module Trace = Synts_sync.Trace

type ticket = Synts_core.Event_stream.ticket

type event =
  | Message of { src : int; dst : int }
  | Internal of { proc : int }

type outcome =
  | Stamped of Synts_clock.Vector.t
  | Deferred of ticket

type resolved = ticket * Synts_core.Internal_events.stamp

module type S = sig
  type t

  val observe : t -> event -> outcome
  val observe_batch : t -> event array -> outcome array
  val drain : t -> resolved list
  val finish : t -> resolved list
  val processes : t -> int
  val dimension : t -> int
end

module Pending = struct
  type t = {
    queue : resolved Queue.t;
    cap : int;
    counter : Synts_telemetry.Telemetry.Counter.t;
    mutable dropped : int;
  }

  let default_cap = 65536

  let create ~cap counter =
    if cap < 1 then invalid_arg "Ingest.Pending: cap must be >= 1";
    { queue = Queue.create (); cap; counter; dropped = 0 }

  let push t r =
    if Queue.length t.queue >= t.cap then begin
      ignore (Queue.pop t.queue);
      t.dropped <- t.dropped + 1;
      Synts_telemetry.Telemetry.Counter.incr t.counter
    end;
    Queue.push r t.queue

  let length t = Queue.length t.queue
  let dropped t = t.dropped

  let drain t =
    let out = List.of_seq (Queue.to_seq t.queue) in
    Queue.clear t.queue;
    out
end

type sink = Sink : (module S with type t = 'a) * 'a -> sink

let sink (type a) (module M : S with type t = a) state = Sink ((module M), state)

let observe (Sink ((module M), t)) event = M.observe t event
let observe_batch (Sink ((module M), t)) events = M.observe_batch t events
let drain (Sink ((module M), t)) = M.drain t
let finish (Sink ((module M), t)) = M.finish t
let processes (Sink ((module M), t)) = M.processes t
let dimension (Sink ((module M), t)) = M.dimension t

let event_of_step = function
  | Trace.Send (src, dst) -> Message { src; dst }
  | Trace.Local proc -> Internal { proc }

let feed_trace s trace =
  let steps = Array.of_list (Trace.steps trace) in
  observe_batch s (Array.map event_of_step steps)

let message_stamps outcomes =
  let count =
    Array.fold_left
      (fun acc -> function Stamped _ -> acc + 1 | Deferred _ -> acc)
      0 outcomes
  in
  let out = Array.make count [||] in
  let i = ref 0 in
  Array.iter
    (function
      | Stamped v ->
          out.(!i) <- v;
          incr i
      | Deferred _ -> ())
    outcomes;
  out
