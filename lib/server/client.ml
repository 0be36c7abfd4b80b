module Ingest = Synts_ingest.Ingest
module Tm = Synts_telemetry.Telemetry

let m_rpcs =
  Tm.Counter.v ~help:"Request/reply round trips by serve clients"
    "server.client.rpcs"

let m_retransmits =
  Tm.Counter.v ~help:"Requests retransmitted after a corruption error"
    "server.client.retransmits"

let m_latency =
  Tm.Histogram.v
    ~help:"Round-trip latency of serve client requests (milliseconds)"
    ~buckets:[| 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.; 25.; 50.; 100. |]
    "server.client.rpc_ms"

type t = {
  fd : Unix.file_descr;
  mutable seq : int;  (* next Observe sequence number *)
  mutable processes : int;  (* grows when a churn delta joins a process *)
  mutable dimension : int;  (* follows the server's current epoch *)
  mutable epoch : int;
  mutable closed : bool;
}

let roundtrip fd req =
  Tm.Counter.incr m_rpcs;
  let t0 = Unix.gettimeofday () in
  let resp =
    Frame.call fd ~encode:Protocol.encode_request
      ~decode:Protocol.decode_response req
  in
  Tm.Histogram.observe m_latency (1000. *. (Unix.gettimeofday () -. t0));
  resp

let unexpected what reply =
  Format.asprintf "unexpected %s reply: %a" what Protocol.pp_response reply

let connect address =
  let fd = Server.connect address in
  match roundtrip fd Protocol.Hello with
  | Protocol.Welcome { processes; dimension; epoch } ->
      { fd; seq = 0; processes; dimension; epoch; closed = false }
  | reply ->
      Unix.close fd;
      failwith
        (match reply with
        | Protocol.Error_r e -> "server rejected hello: " ^ e
        | other -> unexpected "hello" other)
  | exception e ->
      Unix.close fd;
      raise e

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let processes t = t.processes
let dimension t = t.dimension
let epoch t = t.epoch

let churn t delta =
  match roundtrip t.fd (Protocol.Churn delta) with
  | Protocol.Epoch_r { epoch; processes; dimension } ->
      t.epoch <- epoch;
      t.processes <- processes;
      t.dimension <- dimension;
      Ok (epoch, processes, dimension)
  | Protocol.Error_r e -> Error e
  | other -> Error (unexpected "churn" other)

let corruption_error e =
  String.starts_with ~prefix:"bad frame" e
  || String.starts_with ~prefix:"bad request" e

let observe_batch t events =
  let seq = t.seq in
  t.seq <- seq + 1;
  let req = Protocol.Observe { seq; events } in
  let rec attempt tries =
    match roundtrip t.fd req with
    | Protocol.Outcomes outcomes -> outcomes
    | Protocol.Error_r e when corruption_error e && tries < 5 ->
        (* The frame was damaged in transit; the server consumed no
           sequence number, and if it did see the request the dedup
           cache answers the retry identically. *)
        Tm.Counter.incr m_retransmits;
        attempt (tries + 1)
    | Protocol.Error_r e ->
        (* A rejected batch (e.g. a channel the current epoch retired)
           consumes no sequence number server-side — hand ours back too,
           so the session survives the failure in lockstep. *)
        t.seq <- seq;
        failwith e
    | other -> failwith (unexpected "observe" other)
  in
  attempt 0

let observe t ev = (observe_batch t [| ev |]).(0)

let resolved_rpc t req name =
  match roundtrip t.fd req with
  | Protocol.Resolved resolved -> resolved
  | Protocol.Error_r e -> failwith e
  | other -> failwith (unexpected name other)

let drain t = resolved_rpc t Protocol.Drain "drain"
let finish t = resolved_rpc t Protocol.Finish "finish"

let verify_server t =
  match roundtrip t.fd Protocol.Verify with
  | Protocol.Verified { ok; checked } -> Ok (ok, checked)
  | Protocol.Error_r e -> Error e
  | other -> Error (unexpected "verify" other)

type stats = {
  clients : int;
  batches : int;
  messages : int;
  internal : int;
  dropped : int;
  pending : int;
}

let server_stats t =
  match roundtrip t.fd Protocol.Stats with
  | Protocol.Stats_r { clients; batches; messages; internal; dropped; pending }
    ->
      Ok { clients; batches; messages; internal; dropped; pending }
  | Protocol.Error_r e -> Error e
  | other -> Error (unexpected "stats" other)

let shutdown t =
  (match roundtrip t.fd Protocol.Shutdown with
  | Protocol.Bye -> ()
  | Protocol.Error_r e -> failwith e
  | other -> failwith (unexpected "shutdown" other));
  close t

module Sink = struct
  type nonrec t = t

  let observe = observe
  let observe_batch = observe_batch
  let drain = drain
  let finish = finish
  let processes = processes
  let dimension = dimension
end

let ingest t = Ingest.sink (module Sink) t
