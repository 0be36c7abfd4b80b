module Wire = Synts_clock.Wire
module Vector = Synts_clock.Vector
module Ingest = Synts_ingest.Ingest
module Internal_events = Synts_core.Internal_events

type request =
  | Hello
  | Observe of { seq : int; events : Ingest.event array }
  | Drain
  | Finish
  | Verify
  | Stats
  | Churn of string
  | Shutdown

type response =
  | Welcome of { processes : int; dimension : int; epoch : int }
  | Outcomes of Ingest.outcome array
  | Resolved of (Ingest.ticket * Internal_events.stamp) list
  | Verified of { ok : bool; checked : int }
  | Stats_r of {
      clients : int;
      batches : int;
      messages : int;
      internal : int;
      dropped : int;
      pending : int;
    }
  | Epoch_r of { epoch : int; processes : int; dimension : int }
  | Error_r of string
  | Bye

(* Decoders walk one {!Wire} cursor per message: every count and length
   read from the wire is bounded by the bytes left before anything is
   allocated for it, and only the canonical encoding of each message is
   accepted, so [decode (encode m) = Ok m] and nothing else decodes. *)

(* {2 Requests} *)

let put_event w = function
  | Ingest.Message { src; dst } ->
      Wire.put_byte w 0;
      Wire.put_varint w src;
      Wire.put_varint w dst
  | Ingest.Internal { proc } ->
      Wire.put_byte w 1;
      Wire.put_varint w proc

(* Sized for an [Observe] of events on processes below 2^14 (a kind
   byte and two two-byte varints each), so its writer does not grow. *)
let encode_request r =
  let w =
    Wire.writer
      (match r with
      | Observe { events; _ } -> 16 + (5 * Array.length events)
      | _ -> 16)
  in
  (match r with
  | Hello -> Wire.put_byte w 0
  | Observe { seq; events } ->
      Wire.put_byte w 1;
      Wire.put_varint w seq;
      Wire.put_varint w (Array.length events);
      Array.iter (put_event w) events
  | Drain -> Wire.put_byte w 2
  | Finish -> Wire.put_byte w 3
  | Verify -> Wire.put_byte w 4
  | Stats -> Wire.put_byte w 5
  | Shutdown -> Wire.put_byte w 6
  | Churn delta ->
      Wire.put_byte w 7;
      Wire.put_string w delta);
  Wire.contents w

let get_event r =
  match Wire.get_byte r with
  | 0 ->
      let src = Wire.get_varint r in
      let dst = Wire.get_varint r in
      Ingest.Message { src; dst }
  | 1 -> Ingest.Internal { proc = Wire.get_varint r }
  | k -> Wire.malformed "unknown event kind %d" k

let get_request r =
  match Wire.get_byte r with
  | 0 -> Hello
  | 1 ->
      let seq = Wire.get_varint r in
      let count = Wire.get_count r in
      Observe { seq; events = Array.init count (fun _ -> get_event r) }
  | 2 -> Drain
  | 3 -> Finish
  | 4 -> Verify
  | 5 -> Stats
  | 6 -> Shutdown
  | 7 -> Churn (Wire.get_string r)
  | t -> Wire.malformed "unknown request tag %d" t

let decode_request s = Wire.parse s get_request

(* {2 Responses} *)

(* [Outcomes] and [Resolved] write their stamps in order: the first as
   a plain {!Wire} vector, every later one delta-coded against the one
   written just before it in the same reply. Stamps of one batch differ
   by far less than their values, so a reply stops growing with how far
   into the stream its stamps lie. *)
type stamps = { mutable started : bool; mutable last : Vector.t }

let stamps () = { started = false; last = [||] }

let put_stamp w st v =
  if st.started then Wire.put_delta_vector w ~prev:st.last v
  else begin
    Wire.put_vector w v;
    st.started <- true
  end;
  st.last <- v

let get_stamp r st =
  let v =
    if st.started then Wire.get_delta_vector r ~prev:st.last
    else begin
      st.started <- true;
      Wire.get_vector r
    end
  in
  st.last <- v;
  v

(* The first stamp's full encoding plus two bytes per component for
   each later one (deltas under 2^13) sizes the buffer, so the writer
   seldom grows. *)
let outcomes_capacity outcomes =
  let stamp =
    Array.find_map
      (function Ingest.Stamped v -> Some v | Ingest.Deferred _ -> None)
      outcomes
  in
  match stamp with
  | Some v ->
      8 + Wire.encoded_bytes v
      + (Array.length outcomes * (2 + (2 * Array.length v)))
  | None -> 8 + (Array.length outcomes * 4)

(* [Outcomes], tag 8: the event count, then per event a kind byte — 0
   and its stamp, coded as [put_stamp] codes it, or 1 and the ticket
   it was deferred under. [Engine.sweep] writes it from these pieces,
   with each stamp coded by the kernel pass that makes it. *)
let put_outcomes_head w count =
  Wire.put_byte w 8;
  Wire.put_varint w count

let put_stamped w = Wire.put_byte w 0

let put_deferred w ticket =
  Wire.put_byte w 1;
  Wire.put_varint w ticket

let put_response w r =
  match r with
  | Welcome { processes; dimension; epoch } ->
      Wire.put_byte w 0;
      Wire.put_varint w processes;
      Wire.put_varint w dimension;
      Wire.put_varint w epoch
  | Outcomes outcomes ->
      put_outcomes_head w (Array.length outcomes);
      let st = stamps () in
      for i = 0 to Array.length outcomes - 1 do
        match outcomes.(i) with
        | Ingest.Stamped v ->
            put_stamped w;
            put_stamp w st v
        | Ingest.Deferred ticket -> put_deferred w ticket
      done
  | Resolved resolved ->
      Wire.put_byte w 9;
      Wire.put_varint w (List.length resolved);
      let st = stamps () in
      List.iter
        (fun (ticket, (stamp : Internal_events.stamp)) ->
          Wire.put_varint w ticket;
          Wire.put_varint w stamp.proc;
          put_stamp w st stamp.prev;
          (match stamp.succ with
          | None -> Wire.put_byte w 0
          | Some v ->
              Wire.put_byte w 1;
              put_stamp w st v);
          Wire.put_varint w stamp.counter)
        resolved
  | Verified { ok; checked } ->
      Wire.put_byte w 3;
      Wire.put_bool w ok;
      Wire.put_varint w checked
  | Stats_r { clients; batches; messages; internal; dropped; pending } ->
      Wire.put_byte w 4;
      Wire.put_varint w clients;
      Wire.put_varint w batches;
      Wire.put_varint w messages;
      Wire.put_varint w internal;
      Wire.put_varint w dropped;
      Wire.put_varint w pending
  | Error_r msg ->
      Wire.put_byte w 5;
      Wire.put_string w msg
  | Bye -> Wire.put_byte w 6
  | Epoch_r { epoch; processes; dimension } ->
      Wire.put_byte w 7;
      Wire.put_varint w epoch;
      Wire.put_varint w processes;
      Wire.put_varint w dimension

let encode_response r =
  let w =
    Wire.writer
      (match r with Outcomes outcomes -> outcomes_capacity outcomes | _ -> 64)
  in
  put_response w r;
  Wire.contents w

let get_outcome r st =
  match Wire.get_byte r with
  | 0 -> Ingest.Stamped (get_stamp r st)
  | 1 -> Ingest.Deferred (Wire.get_varint r)
  | k -> Wire.malformed "unknown outcome kind %d" k

let get_resolved r st =
  let ticket = Wire.get_varint r in
  let proc = Wire.get_varint r in
  let prev = get_stamp r st in
  let succ =
    match Wire.get_byte r with
    | 0 -> None
    | 1 -> Some (get_stamp r st)
    | f -> Wire.malformed "unknown succ flag %d" f
  in
  let counter = Wire.get_varint r in
  (ticket, { Internal_events.proc; prev; succ; counter })

let get_response r =
  match Wire.get_byte r with
  | 0 ->
      let processes = Wire.get_varint r in
      let dimension = Wire.get_varint r in
      let epoch = Wire.get_varint r in
      Welcome { processes; dimension; epoch }
  | 3 ->
      let ok = Wire.get_bool r in
      let checked = Wire.get_varint r in
      Verified { ok; checked }
  | 4 ->
      let clients = Wire.get_varint r in
      let batches = Wire.get_varint r in
      let messages = Wire.get_varint r in
      let internal = Wire.get_varint r in
      let dropped = Wire.get_varint r in
      let pending = Wire.get_varint r in
      Stats_r { clients; batches; messages; internal; dropped; pending }
  | 5 -> Error_r (Wire.get_string r)
  | 6 -> Bye
  | 7 ->
      let epoch = Wire.get_varint r in
      let processes = Wire.get_varint r in
      let dimension = Wire.get_varint r in
      Epoch_r { epoch; processes; dimension }
  | 8 ->
      let count = Wire.get_count r in
      let st = stamps () in
      Outcomes (Array.init count (fun _ -> get_outcome r st))
  | 9 ->
      let count = Wire.get_count r in
      let st = stamps () in
      Resolved (List.init count (fun _ -> get_resolved r st))
  | t -> Wire.malformed "unknown response tag %d" t

let decode_response s = Wire.parse s get_response

let pp_request ppf = function
  | Hello -> Format.fprintf ppf "Hello"
  | Observe { seq; events } ->
      Format.fprintf ppf "Observe{seq=%d; %d events}" seq (Array.length events)
  | Drain -> Format.fprintf ppf "Drain"
  | Finish -> Format.fprintf ppf "Finish"
  | Verify -> Format.fprintf ppf "Verify"
  | Stats -> Format.fprintf ppf "Stats"
  | Churn delta -> Format.fprintf ppf "Churn{%s}" delta
  | Shutdown -> Format.fprintf ppf "Shutdown"

let pp_response ppf = function
  | Welcome { processes; dimension; epoch } ->
      Format.fprintf ppf "Welcome{n=%d; d=%d; epoch=%d}" processes dimension
        epoch
  | Outcomes o -> Format.fprintf ppf "Outcomes(%d)" (Array.length o)
  | Resolved r -> Format.fprintf ppf "Resolved(%d)" (List.length r)
  | Verified { ok; checked } ->
      Format.fprintf ppf "Verified{ok=%b; checked=%d}" ok checked
  | Stats_r { clients; batches; messages; internal; dropped; pending } ->
      Format.fprintf ppf
        "Stats{clients=%d; batches=%d; msgs=%d; internal=%d; dropped=%d; \
         pending=%d}"
        clients batches messages internal dropped pending
  | Epoch_r { epoch; processes; dimension } ->
      Format.fprintf ppf "Epoch{e=%d; n=%d; d=%d}" epoch processes dimension
  | Error_r e -> Format.fprintf ppf "Error(%s)" e
  | Bye -> Format.fprintf ppf "Bye"
