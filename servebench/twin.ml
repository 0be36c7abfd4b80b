(* The in-process twin of the daemon, for the traced run.

   The twin replays the request stream through the same public functions
   the daemon's select loop calls — [Frame.feed]/[Frame.next],
   [Wire.unframe], [Protocol.decode_request], [Service.handle],
   [Protocol.encode_response], [Wire.frame], then [Frame.send] (to
   /dev/null) and the loop's [Wire.unframe] of each reply to spot [Bye]
   — and times each call as a span. [Service.handle] cannot be opened from outside, so a second
   backend ([Engine] or [Offline_sink], plus a [Membership] for churn) is
   fed the same batches and its span is recorded as the child of the
   handle span: the service's self time is the handle minus that child. *)

module Service = Synts_server.Service
module Engine = Synts_server.Engine
module Frame = Synts_server.Frame
module Protocol = Synts_server.Protocol
module Wire = Synts_clock.Wire
module Offline_sink = Synts_ingest.Offline_sink
module Membership = Synts_graph.Membership
module Decomposition = Synts_graph.Decomposition

(* Span names, client side first. *)
let client_encode = 0
let client_send = 1
let client_recv = 2
let client_decode = 3
let check_digest = 4
let frame_feed = 5
let frame_next = 6
let wire_unframe = 7
let protocol_decode = 8
let service_handle = 9
let engine_observe = 10
let engine_drain = 11
let sink_observe = 12
let sink_drain = 13
let membership_apply = 14
let protocol_encode = 15
let wire_frame = 16
let frame_send = 17
let bye_check = 18

let names =
  [| "client.encode"; "client.send"; "client.recv"; "client.decode"; "check.digest";
     "frame.feed"; "frame.next"; "wire.unframe"; "protocol.decode_request";
     "service.handle"; "engine.observe_batch"; "engine.drain";
     "offline_sink.observe_batch"; "offline_sink.drain"; "membership.apply";
     "protocol.encode_response"; "wire.frame"; "frame.send"; "server.bye_check" |]

(* The spans of the daemon's path, as the twin records them. *)
let daemon_path =
  [ frame_feed; frame_next; wire_unframe; protocol_decode; service_handle; engine_observe;
    engine_drain; sink_observe; sink_drain; membership_apply; protocol_encode; wire_frame;
    frame_send; bye_check ]

(* The offline live window the daemon is started with. *)
let window = 1024

type backend = Engine of Engine.t | Sink of Offline_sink.t

let backend_for d ~offline =
  if offline then Sink (Offline_sink.create ~window ~n:(Decomposition.graph_vertices d) ())
  else Engine (Engine.create d)

let stop_backend = function Engine e -> Engine.stop e | Sink _ -> ()

(* Totals over the traced requests. *)
type counts = {
  mutable events : int;
  mutable requests : int;
  mutable frames : int;
  mutable request_bytes : int;  (* request wire frames *)
  mutable response_bytes : int;  (* encoded responses *)
  mutable response_frame_bytes : int;  (* response wire frames *)
  mutable resolved : int;  (* internal stamps returned by the twin backend *)
  mutable errors : int;  (* requests the twin service refused: a benchmark bug *)
}

type t = {
  spans : Spans.t;
  stream : Workload.stream;
  service : Service.t;
  conn : Service.conn;
  buf : Frame.buffer;
  backend : backend;
  membership : Membership.t option;
  null : Unix.file_descr;  (* where [Frame.send] writes *)
  counts : counts;
}

let create spans (stream : Workload.stream) d =
  let offline = stream.workload.offline in
  let service = Service.create ~offline ~window d in
  {
    spans;
    stream;
    service;
    conn = Service.attach service;
    buf = Frame.buffer ();
    backend = backend_for d ~offline;
    membership =
      (if stream.workload.churn_every > 0 then Some (Membership.create (Check.graph_of d) d)
       else None);
    null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0;
    counts =
      { events = 0; requests = 0; frames = 0; request_bytes = 0; response_bytes = 0;
        response_frame_bytes = 0; resolved = 0; errors = 0 };
  }

let release t =
  Unix.close t.null;
  stop_backend t.backend;
  Service.stop t.service

(* Time [f] as span [name] when recording, else just run it. *)
let timed t ~record ~name ~req ?parent f =
  if record then Spans.span t.spans ~name ~req ?parent f else f Spans.root

let observe_backend spans ~record ~req ~parent backend events =
  let name = match backend with Engine _ -> engine_observe | Sink _ -> sink_observe in
  let run _ =
    match backend with
    | Engine e -> ignore (Engine.observe_batch e events)
    | Sink s -> ignore (Offline_sink.observe_batch s events)
  in
  if record then Spans.span spans ~name ~req ~parent run else run Spans.root

let drain_backend spans ~record ~req ~parent backend ~finish =
  let name = match backend with Engine _ -> engine_drain | Sink _ -> sink_drain in
  let run _ =
    match (backend, finish) with
    | Engine e, false -> Engine.drain e
    | Engine e, true -> Engine.finish e
    | Sink s, false -> Offline_sink.drain s
    | Sink s, true -> Offline_sink.finish s
  in
  if record then Spans.span spans ~name ~req ~parent run else run Spans.root

(* The twin backend's share of a request, as a child of its handle span. *)
let backend_call t ~record ~req ~parent (r : Protocol.request) =
  match r with
  | Observe { events; _ } -> observe_backend t.spans ~record ~req ~parent t.backend events
  | Drain | Finish ->
      let l = drain_backend t.spans ~record ~req ~parent t.backend ~finish:(r = Finish) in
      if record then t.counts.resolved <- t.counts.resolved + List.length l
  | Churn spec -> (
      match (t.membership, Membership.delta_of_string spec) with
      | Some m, Ok delta ->
          timed t ~record ~name:membership_apply ~req ~parent (fun _ ->
              ignore (Membership.apply m delta))
      | _ -> ())
  | Hello | Verify | Stats | Shutdown -> ()

let bye = Protocol.encode_response Protocol.Bye

(* The select loop's test for the reply that ends it. *)
let is_bye reply =
  match Wire.unframe reply with Ok body -> body = bye | Error _ -> false

(* What the daemon does with one reassembled frame. *)
let handle_frame t ~record ~req frame =
  let c = t.counts in
  match timed t ~record ~name:wire_unframe ~req (fun _ -> Wire.unframe frame) with
  | Error _ -> c.errors <- c.errors + 1
  | Ok body -> (
      match timed t ~record ~name:protocol_decode ~req (fun _ -> Protocol.decode_request body) with
      | Error _ -> c.errors <- c.errors + 1
      | Ok r ->
          let resp, parent =
            if record then begin
              let s = Spans.start t.spans ~name:service_handle ~req () in
              let resp = Service.handle t.service t.conn r in
              (resp, Spans.stop t.spans s)
            end
            else (Service.handle t.service t.conn r, Spans.root)
          in
          (match resp with Error_r _ -> c.errors <- c.errors + 1 | _ -> ());
          backend_call t ~record ~req ~parent r;
          let msg = timed t ~record ~name:protocol_encode ~req (fun _ -> Protocol.encode_response resp) in
          let out = timed t ~record ~name:wire_frame ~req (fun _ -> Wire.frame msg) in
          timed t ~record ~name:frame_send ~req (fun _ -> Frame.send t.null out);
          ignore (timed t ~record ~name:bye_check ~req (fun _ -> is_bye out));
          if record then begin
            (match r with
            | Observe { events; _ } -> c.events <- c.events + Array.length events
            | _ -> ());
            c.requests <- c.requests + 1;
            c.request_bytes <- c.request_bytes + String.length frame;
            c.response_bytes <- c.response_bytes + String.length msg;
            c.response_frame_bytes <- c.response_frame_bytes + String.length out
          end)

(* Feed one chunk (the bytes of requests [first ..]) and handle every
   frame it completes, as the select loop does after one [read]. *)
let feed_chunk t ~record ~first bytes =
  timed t ~record ~name:frame_feed ~req:first (fun _ ->
      Frame.feed t.buf bytes (Bytes.length bytes));
  let rec frames req =
    match timed t ~record ~name:frame_next ~req (fun _ -> Frame.next t.buf) with
    | None -> ()
    | Some frame ->
        if record then t.counts.frames <- t.counts.frames + 1;
        handle_frame t ~record ~req frame;
        frames (req + 1)
  in
  frames first

(* Replay requests [0, upto) of the stream. Requests from [traced_from]
   on whose [chunk_of] is not -1 are recorded, grouped into those chunks
   (the client's [read] count when it sent them: requests written
   between two reads reach the daemon together). Stops early past [deadline]
   (monotonic ns); returns the requests replayed. *)
let replay t ~upto ~traced_from ~chunk_of ~deadline =
  let cur = Workload.cursor t.stream in
  let k = ref 0 in
  while !k < upto && Spans.now () < deadline do
    let first = !k in
    let record = first >= traced_from && chunk_of first >= 0 in
    let last = ref (first + 1) in
    if record then
      while !last < upto && chunk_of !last = chunk_of first do incr last done;
    let requests =
      List.init (!last - first) (fun _ ->
          Conn.encode (Workload.request t.stream (Option.get (Workload.next cur))))
    in
    feed_chunk t ~record ~first (Bytes.concat Bytes.empty requests);
    k := !last
  done;
  !k

(* Median in-process time of the daemon's path for one [Hello]. *)
let hello_ns t ~n =
  let bytes = Conn.encode Protocol.Hello in
  Stats.median
    (Array.init n (fun _ ->
         let t0 = Spans.now () in
         feed_chunk t ~record:false ~first:0 bytes;
         float (Spans.now () - t0)))

(* {1 Layers off the daemon's path}

   Each workload's daemon runs only one backend, and only [rpc-cs]
   applies deltas. The other layers are still timed on this workload's
   inputs — the first [observes] requests fed to a fresh backend of the
   other kind, and a few deltas applied to a fresh membership — so that
   every layer metric is a measurement on every workload. *)

(* Returns the events fed and the internal stamps drained. *)
let probe_backend spans (stream : Workload.stream) d ~observes =
  let w = stream.workload in
  let backend = backend_for d ~offline:(not w.offline) in
  let resolved = ref 0 in
  let drain ~finish =
    let l = drain_backend spans ~record:true ~req:(-1) ~parent:Spans.root backend ~finish in
    resolved := !resolved + List.length l
  in
  let observes = min observes stream.observes in
  for i = 0 to observes - 1 do
    observe_backend spans ~record:true ~req:(-1) ~parent:Spans.root backend
      (Workload.events stream i);
    if (i + 1) mod w.drain_every = 0 then drain ~finish:false
  done;
  drain ~finish:true;
  stop_backend backend;
  (observes * w.batch, !resolved)

let probe_churn spans g d ~seed ~deltas =
  let m = Membership.create g d in
  Array.iter
    (fun delta ->
      Spans.span spans ~name:membership_apply ~req:(-1) (fun _ ->
          ignore (Membership.apply m delta)))
    (Workload.churn_deltas (Synts_util.Rng.create seed) g deltas)
