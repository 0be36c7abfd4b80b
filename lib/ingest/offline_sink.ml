module Stream = Synts_core.Offline.Stream
module Event_stream = Synts_core.Event_stream

type t = {
  stream : Stream.t;
  events : Event_stream.t;
  resolved : (Event_stream.ticket * Synts_core.Internal_events.stamp) Queue.t;
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
    resolved = Queue.create ();
    last = Array.make n [||];
    n;
  }

let stream t = t.stream
let processes t = t.n
let dimension t = Stream.dimension t.stream
let pending t = Queue.length t.resolved

let observe t event =
  match event with
  | Ingest.Message { src; dst } ->
      let v = Stream.observe t.stream ~src ~dst in
      let record proc =
        List.iter
          (fun r -> Queue.push r t.resolved)
          (Event_stream.record_message t.events ~proc ~prev:t.last.(proc) v);
        t.last.(proc) <- v
      in
      record src;
      record dst;
      Ingest.Stamped v
  | Ingest.Internal { proc } ->
      Ingest.Deferred (Event_stream.record_internal t.events ~proc)

let observe_batch t events = Array.map (observe t) events

let drain t =
  let out = List.of_seq (Queue.to_seq t.resolved) in
  Queue.clear t.resolved;
  out

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
