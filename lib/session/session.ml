module Graph = Synts_graph.Graph
module Decomposition = Synts_graph.Decomposition
module Vector = Synts_clock.Vector
module Online = Synts_core.Online
module Adaptive_stamper = Synts_core.Adaptive_stamper
module Event_stream = Synts_core.Event_stream
module Internal_events = Synts_core.Internal_events
module Frontier = Synts_monitor.Frontier
module Stats = Synts_monitor.Stats
module Tm = Synts_telemetry.Telemetry
module Tracer = Synts_trace.Tracer

let m_stamps =
  Tm.Counter.v ~help:"Message stamps issued by sessions" "session.stamps"

let m_internal =
  Tm.Counter.v ~help:"Internal events observed by sessions"
    "session.internal_events"

let m_drains =
  Tm.Counter.v ~help:"drain_events calls on sessions" "session.drains"

let m_flushes =
  Tm.Counter.v ~help:"finish_events flushes on sessions" "session.flushes"

let m_precedence =
  Tm.Counter.v
    ~help:"Precedence/concurrency/happened-before tests answered by sessions"
    "session.precedence_tests"

let m_dimension =
  Tm.Gauge.v ~help:"Largest vector dimension in use by any session"
    "session.vector_dimension"

let m_dropped =
  Tm.Counter.v
    ~help:"Resolved internal-event stamps evicted from full pending queues"
    "session.dropped_events"

type stamper =
  | Static of Decomposition.t * (src:int -> dst:int -> Vector.t)
  | Adaptive of Adaptive_stamper.t
  | Streaming of Synts_core.Offline.Stream.t

type t = {
  n : int;
  stamper : stamper;
  events : Event_stream.t;
  frontier : Frontier.t;
  stats : Stats.t;
  width : Synts_poset.Incremental_width.t;
  last_message : int array;  (* per process, -1 when none *)
  last_stamp : Vector.t array;
      (* per process, its last message's stamp: the [prev] the event
         stream asks for when it resolves an internal event *)
  resolved : Synts_ingest.Ingest.Pending.t;
  mutable observed : int;
}

let make ?window ?(pending_cap = Synts_ingest.Ingest.Pending.default_cap) ~n
    stamper dimension =
  {
    n;
    stamper;
    events = Event_stream.create ~dimension ~n;
    frontier = Frontier.create ();
    stats = Stats.create ?window ();
    width = Synts_poset.Incremental_width.create ();
    last_message = Array.make n (-1);
    last_stamp = Array.make n [||];
    resolved = Synts_ingest.Ingest.Pending.create ~cap:pending_cap m_dropped;
    observed = 0;
  }

let of_decomposition ?window ?pending_cap d =
  let n = Decomposition.graph_vertices d in
  make ?window ?pending_cap ~n
    (Static (d, Online.stamper d))
    (max 1 (Decomposition.size d))

let of_topology ?window ?pending_cap g =
  of_decomposition ?window ?pending_cap (Decomposition.best g)

let adaptive ?window ?pending_cap ~n () =
  make ?window ?pending_cap ~n (Adaptive (Adaptive_stamper.create n)) 1

let offline_stream ?window ?stream_window ?pending_cap ~n () =
  make ?window ?pending_cap ~n
    (Streaming (Synts_core.Offline.Stream.create ?window:stream_window ~n ()))
    1

let processes t = t.n

let dimension t =
  match t.stamper with
  | Static (d, _) -> Decomposition.size d
  | Adaptive s -> max 1 (Adaptive_stamper.dimension s)
  | Streaming s -> Synts_core.Offline.Stream.dimension s

let message t ~src ~dst =
  let v =
    match t.stamper with
    | Static (_, stamp) -> stamp ~src ~dst
    | Adaptive s -> Adaptive_stamper.stamp s ~src ~dst
    | Streaming s -> Synts_core.Offline.Stream.observe s ~src ~dst
  in
  Tm.Counter.incr m_stamps;
  Tm.Gauge.set_max m_dimension (Vector.size v);
  let id = t.observed in
  t.observed <- id + 1;
  ignore (Frontier.insert t.frontier ~id v);
  Stats.observe t.stats v;
  let preds =
    List.filter (fun m -> m >= 0) [ t.last_message.(src); t.last_message.(dst) ]
  in
  ignore (Synts_poset.Incremental_width.add t.width ~preds);
  t.last_message.(src) <- id;
  t.last_message.(dst) <- id;
  let record proc =
    List.iter
      (Synts_ingest.Ingest.Pending.push t.resolved)
      (Event_stream.record_message t.events ~proc ~prev:t.last_stamp.(proc) v);
    t.last_stamp.(proc) <- v
  in
  record src;
  record dst;
  if Tracer.enabled () then
    (* The session's tick domain is its own sequence numbers; [cells] is
       the per-observe stamp cost in slab cells touched. *)
    Tracer.message ~cat:"session" ~src ~dst ~tick:(float_of_int id) ~id
      ~cells:(Vector.size v) ~stamp:v ();
  v

let internal t ~proc =
  Tm.Counter.incr m_internal;
  if Tracer.enabled () then
    Tracer.instant ~cat:"session" ~pid:proc ~tick:(float_of_int t.observed)
      "internal";
  Event_stream.record_internal t.events ~proc

let dropped_events t = Synts_ingest.Ingest.Pending.dropped t.resolved

let drain_events t =
  Tm.Counter.incr m_drains;
  Synts_ingest.Ingest.Pending.drain t.resolved

let finish_events t =
  Tm.Counter.incr m_flushes;
  drain_events t @ Event_stream.finish t.events ~prev:(Array.get t.last_stamp)

type event = Synts_ingest.Ingest.event =
  | Message of { src : int; dst : int }
  | Internal of { proc : int }

type outcome = Synts_ingest.Ingest.outcome =
  | Stamped of Vector.t
  | Deferred of Event_stream.ticket

(* Every event is checked before any is applied, so a rejected batch
   changes nothing — as in the engine and the offline sink. *)
let check t = function
  | Message { src; dst } ->
      let known =
        match t.stamper with
        | Static (d, _) ->
            Decomposition.lookup (Decomposition.index d) src dst >= 0
        | Adaptive _ | Streaming _ ->
            src >= 0 && src < t.n && dst >= 0 && dst < t.n && src <> dst
      in
      if not known then
        invalid_arg
          (Printf.sprintf "Session: channel (%d, %d) cannot be stamped" src dst)
  | Internal { proc } ->
      if proc < 0 || proc >= t.n then
        invalid_arg
          (Printf.sprintf "Session: internal event on unknown process %d" proc)

let apply t = function
  | Message { src; dst } -> Stamped (message t ~src ~dst)
  | Internal { proc } -> Deferred (internal t ~proc)

let observe t event =
  check t event;
  apply t event

let observe_batch t events =
  Array.iter (check t) events;
  Array.map (apply t) events

let messages_observed t = t.observed
let width t = Synts_poset.Incremental_width.width t.width
let frontier t = Frontier.frontier t.frontier
let concurrency_ratio t = Stats.concurrency_ratio t.stats
let longest_chain t = Stats.longest_chain t.stats

let pad v dim =
  if Vector.size v >= dim then v
  else begin
    let w = Vector.zero dim in
    Array.blit v 0 w 0 (Vector.size v);
    w
  end

let common u v =
  let dim = max (Vector.size u) (Vector.size v) in
  (pad u dim, pad v dim)

let precedes _t u v =
  Tm.Counter.incr m_precedence;
  let u, v = common u v in
  Vector.lt u v

let concurrent _t u v =
  Tm.Counter.incr m_precedence;
  let u, v = common u v in
  Vector.concurrent u v

let happened_before t a b =
  Tm.Counter.incr m_precedence;
  (* Bring every vector of both stamps to one width, then apply the
     Theorem 9 test. *)
  let dim =
    List.fold_left max 1
      (List.filter_map
         (Option.map Vector.size)
         [
           Some a.Internal_events.prev;
           a.Internal_events.succ;
           Some b.Internal_events.prev;
           b.Internal_events.succ;
         ])
  in
  ignore t;
  let widen (s : Internal_events.stamp) =
    {
      s with
      Internal_events.prev = pad s.Internal_events.prev dim;
      succ = Option.map (fun v -> pad v dim) s.Internal_events.succ;
    }
  in
  Internal_events.happened_before (widen a) (widen b)

let decomposition t =
  match t.stamper with
  | Static (d, _) -> d
  | Adaptive s -> Adaptive_stamper.decomposition s
  | Streaming _ ->
      invalid_arg
        "Session.decomposition: streaming-offline sessions stamp from the \
         observed order, not a decomposition"

(* The Ingest.S conformance: a session is one sink among the in-process
   engine and the remote server client. *)
module Sink = struct
  type nonrec t = t

  let observe = observe
  let observe_batch = observe_batch
  let drain = drain_events
  let finish = finish_events
  let processes = processes
  let dimension = dimension
end

let ingest t = Synts_ingest.Ingest.sink (module Sink) t
