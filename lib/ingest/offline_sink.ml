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
  last : Synts_clock.Vector.t array;
      (* each process's last message stamp, the [prev] of its next
         internal events *)
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
    last = Array.make n [||];
    n;
  }

let stream t = t.stream
let processes t = t.n
let dimension t = Stream.dimension t.stream
let pending t = Ingest.Pending.length t.resolved
let dropped t = Ingest.Pending.dropped t.resolved

let observe t event =
  match event with
  | Ingest.Message { src; dst } ->
      let v = Stream.observe t.stream ~src ~dst in
      let record proc =
        List.iter
          (Ingest.Pending.push t.resolved)
          (Event_stream.record_message t.events ~proc ~prev:t.last.(proc) v);
        t.last.(proc) <- v
      in
      record src;
      record dst;
      Ingest.Stamped v
  | Ingest.Internal { proc } ->
      Ingest.Deferred (Event_stream.record_internal t.events ~proc)

let observe_batch t events = Array.map (observe t) events

let drain t = Ingest.Pending.drain t.resolved

let finish t = drain t @ Event_stream.finish t.events ~prev:(Array.get t.last)

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
