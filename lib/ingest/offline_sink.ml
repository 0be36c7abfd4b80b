module Stream = Synts_core.Offline.Stream
module Event_stream = Synts_core.Event_stream

let m_dropped =
  Synts_telemetry.Telemetry.Counter.v
    ~help:"Resolved stamps evicted from full offline-sink queues"
    "ingest.offline.dropped_events"

type t = {
  stream : Stream.t;
  events : Event_stream.t;
  resolved : Ingest.Pending.t;
  n : int;
}

let create ?window ~n () =
  {
    stream = Stream.create ?window ~n ();
    (* The event stream accepts vectors wider than its creation dimension,
       so it follows the stream's growing chain count like an adaptive
       session's. *)
    events = Event_stream.create ~dimension:1 ~n;
    resolved = Ingest.Pending.create ~cap:Ingest.Pending.default_cap m_dropped;
    n;
  }

let stream t = t.stream
let processes t = t.n
let dimension t = Stream.dimension t.stream
let pending t = Ingest.Pending.length t.resolved
let dropped t = Ingest.Pending.dropped t.resolved

let check t = function
  | Ingest.Message { src; dst } ->
      if src < 0 || src >= t.n || dst < 0 || dst >= t.n || src = dst then
        invalid_arg
          (Printf.sprintf "Offline_sink: bad channel (%d, %d)" src dst)
  | Ingest.Internal { proc } ->
      if proc < 0 || proc >= t.n then
        invalid_arg
          (Printf.sprintf "Offline_sink: internal event on unknown process %d"
             proc)

(* Endpoint [p] of a message stamped [v]; [prev], [p]'s last stamp
   before it, is the [prev] of any internal event waiting on [p]. *)
let endpoint t p ~prev v =
  if Event_stream.waiting t.events ~proc:p then
    List.iter
      (Ingest.Pending.push t.resolved)
      (Event_stream.record_message t.events ~proc:p ~prev v)
  else Event_stream.pass_message t.events ~proc:p

let observe_checked t event =
  match event with
  | Ingest.Message { src; dst } ->
      let prev_src = Stream.last t.stream src in
      let prev_dst = Stream.last t.stream dst in
      let v = Stream.observe t.stream ~src ~dst in
      endpoint t src ~prev:prev_src v;
      endpoint t dst ~prev:prev_dst v;
      Ingest.Stamped v
  | Ingest.Internal { proc } ->
      Ingest.Deferred (Event_stream.record_internal t.events ~proc)

let observe t event =
  check t event;
  observe_checked t event

(* The whole batch is checked first, so a rejected one changes nothing. *)
let observe_batch t events =
  Array.iter (check t) events;
  Array.map (observe_checked t) events

let drain t = Ingest.Pending.drain t.resolved

let finish t = drain t @ Event_stream.finish t.events ~prev:(Stream.last t.stream)

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
