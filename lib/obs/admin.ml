module Wire = Synts_clock.Wire

type metrics_format = Prom | Json

type request = Health | Metrics of metrics_format | Stats | Tracedump

type load = { swept : int; cells : int; stamped : int }

type conn_stat = {
  conn : int;
  events_in : int;
  stamps_out : int;
  dedup_hits : int;
  last_seq : int;
}

type stream_stat = {
  chains : int;
  live : int;
  retired : int;
  width : int;
  exact : bool;
  repairs : int;
}

type stats = {
  backend : string;
  clients : int;
  batches : int;
  messages : int;
  internal : int;
  dedup_hits : int;
  errors : int;
  dropped : int;
  pending : int;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  load : load option;
  conns : conn_stat list;
  stream : stream_stat option;
}

type response =
  | Health_r of {
      ok : bool;
      backend : string;
      processes : int;
      dimension : int;
    }
  | Metrics_r of string
  | Stats_r of stats
  | Tracedump_r of { dropped : int; spans : int; jsonl : string }
  | Error_r of string

(* Admin tags are 0x20-0x24, past the data plane's 0-9, so a body sent
   to the wrong socket is refused as an unknown tag of the plane that
   received it. *)

(* {2 Requests} *)

let encode_request r =
  let w = Wire.writer 2 in
  (match r with
  | Health -> Wire.put_byte w 0x20
  | Metrics fmt ->
      Wire.put_byte w 0x21;
      Wire.put_byte w (match fmt with Prom -> 0 | Json -> 1)
  | Stats -> Wire.put_byte w 0x22
  | Tracedump -> Wire.put_byte w 0x23);
  Wire.contents w

let get_request r =
  match Wire.get_byte r with
  | 0x20 -> Health
  | 0x21 -> (
      match Wire.get_byte r with
      | 0 -> Metrics Prom
      | 1 -> Metrics Json
      | f -> Wire.malformed "unknown metrics format %d" f)
  | 0x22 -> Stats
  | 0x23 -> Tracedump
  | t -> Wire.malformed "unknown admin request tag %d" t

let decode_request s = Wire.parse s get_request

(* {2 Responses} *)

let encode_response r =
  let w = Wire.writer 128 in
  (match r with
  | Health_r { ok; backend; processes; dimension } ->
      Wire.put_byte w 0x20;
      Wire.put_bool w ok;
      Wire.put_string w backend;
      Wire.put_varint w processes;
      Wire.put_varint w dimension
  | Metrics_r body ->
      Wire.put_byte w 0x21;
      Wire.put_string w body
  | Stats_r st ->
      Wire.put_byte w 0x22;
      Wire.put_string w st.backend;
      Wire.put_varint w st.clients;
      Wire.put_varint w st.batches;
      Wire.put_varint w st.messages;
      Wire.put_varint w st.internal;
      Wire.put_varint w st.dedup_hits;
      Wire.put_varint w st.errors;
      Wire.put_varint w st.dropped;
      Wire.put_varint w st.pending;
      Wire.put_f64 w st.p50_ms;
      Wire.put_f64 w st.p90_ms;
      Wire.put_f64 w st.p99_ms;
      (match st.load with
      | None -> Wire.put_byte w 0
      | Some { swept; cells; stamped } ->
          Wire.put_byte w 1;
          Wire.put_varint w swept;
          Wire.put_varint w cells;
          Wire.put_varint w stamped);
      Wire.put_varint w (List.length st.conns);
      List.iter
        (fun { conn; events_in; stamps_out; dedup_hits; last_seq } ->
          Wire.put_varint w conn;
          Wire.put_varint w events_in;
          Wire.put_varint w stamps_out;
          Wire.put_varint w dedup_hits;
          (* last_seq starts at -1 (nothing observed yet): shift by one
             so it stays in varint range. *)
          Wire.put_varint w (last_seq + 1))
        st.conns;
      (match st.stream with
      | None -> Wire.put_byte w 0
      | Some { chains; live; retired; width; exact; repairs } ->
          Wire.put_byte w 1;
          Wire.put_varint w chains;
          Wire.put_varint w live;
          Wire.put_varint w retired;
          Wire.put_varint w width;
          Wire.put_bool w exact;
          Wire.put_varint w repairs)
  | Tracedump_r { dropped; spans; jsonl } ->
      Wire.put_byte w 0x23;
      Wire.put_varint w dropped;
      Wire.put_varint w spans;
      Wire.put_string w jsonl
  | Error_r msg ->
      Wire.put_byte w 0x24;
      Wire.put_string w msg);
  Wire.contents w

let get_load r =
  match Wire.get_byte r with
  | 0 -> None
  | 1 ->
      let swept = Wire.get_varint r in
      let cells = Wire.get_varint r in
      let stamped = Wire.get_varint r in
      Some { swept; cells; stamped }
  | f -> Wire.malformed "unknown load flag %d" f

let get_conn_stat r =
  let conn = Wire.get_varint r in
  let events_in = Wire.get_varint r in
  let stamps_out = Wire.get_varint r in
  let dedup_hits = Wire.get_varint r in
  let last_seq = Wire.get_varint r - 1 in
  { conn; events_in; stamps_out; dedup_hits; last_seq }

let get_stream_stat r =
  match Wire.get_byte r with
  | 0 -> None
  | 1 ->
      let chains = Wire.get_varint r in
      let live = Wire.get_varint r in
      let retired = Wire.get_varint r in
      let width = Wire.get_varint r in
      let exact = Wire.get_bool r in
      let repairs = Wire.get_varint r in
      Some { chains; live; retired; width; exact; repairs }
  | f -> Wire.malformed "unknown stream flag %d" f

let get_stats r =
  let backend = Wire.get_string r in
  let clients = Wire.get_varint r in
  let batches = Wire.get_varint r in
  let messages = Wire.get_varint r in
  let internal = Wire.get_varint r in
  let dedup_hits = Wire.get_varint r in
  let errors = Wire.get_varint r in
  let dropped = Wire.get_varint r in
  let pending = Wire.get_varint r in
  let p50_ms = Wire.get_f64 r in
  let p90_ms = Wire.get_f64 r in
  let p99_ms = Wire.get_f64 r in
  let load = get_load r in
  let nconns = Wire.get_count r in
  let conns = List.init nconns (fun _ -> get_conn_stat r) in
  let stream = get_stream_stat r in
  {
    backend; clients; batches; messages; internal; dedup_hits; errors;
    dropped; pending; p50_ms; p90_ms; p99_ms; load; conns; stream;
  }

let get_response r =
  match Wire.get_byte r with
  | 0x20 ->
      let ok = Wire.get_bool r in
      let backend = Wire.get_string r in
      let processes = Wire.get_varint r in
      let dimension = Wire.get_varint r in
      Health_r { ok; backend; processes; dimension }
  | 0x21 -> Metrics_r (Wire.get_string r)
  | 0x22 -> Stats_r (get_stats r)
  | 0x23 ->
      let dropped = Wire.get_varint r in
      let spans = Wire.get_varint r in
      let jsonl = Wire.get_string r in
      Tracedump_r { dropped; spans; jsonl }
  | 0x24 -> Error_r (Wire.get_string r)
  | t -> Wire.malformed "unknown admin response tag %d" t

let decode_response s = Wire.parse s get_response

let pp_request ppf = function
  | Health -> Format.fprintf ppf "Health"
  | Metrics Prom -> Format.fprintf ppf "Metrics(prom)"
  | Metrics Json -> Format.fprintf ppf "Metrics(json)"
  | Stats -> Format.fprintf ppf "Stats"
  | Tracedump -> Format.fprintf ppf "Tracedump"

let pp_response ppf = function
  | Health_r { ok; backend; processes; dimension } ->
      Format.fprintf ppf "Health{ok=%b; %s; n=%d; d=%d}" ok backend processes
        dimension
  | Metrics_r body -> Format.fprintf ppf "Metrics(%d bytes)" (String.length body)
  | Stats_r st ->
      Format.fprintf ppf
        "Stats{%s; clients=%d; batches=%d; msgs=%d; dropped=%d; pending=%d}"
        st.backend st.clients st.batches st.messages st.dropped st.pending
  | Tracedump_r { dropped; spans; _ } ->
      Format.fprintf ppf "Tracedump{spans=%d; dropped=%d}" spans dropped
  | Error_r e -> Format.fprintf ppf "Error(%s)" e
