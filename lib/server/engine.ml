module Decomposition = Synts_graph.Decomposition
module Stamp_store = Synts_clock.Stamp_store
module Sync_clock = Synts_clock.Sync_clock
module Event_stream = Synts_core.Event_stream
module Ingest = Synts_ingest.Ingest
module Tm = Synts_telemetry.Telemetry

let m_batches =
  Tm.Counter.v ~help:"Batches stamped by the engine" "server.engine.batches"

let m_events =
  Tm.Counter.v ~help:"Events stamped by the engine" "server.engine.events"

let m_dropped =
  Tm.Counter.v ~help:"Resolved stamps dropped to engine queue overflow"
    "server.engine.dropped_events"

(* Engine-private instrumentation, so concurrent daemons (benches spawn
   several) keep separate counts. The sweep pays only plain int bumps;
   everything registry-visible is flushed once per batch. *)
type stats = {
  registry : Tm.registry;
  c_cells : Tm.Counter.t;
  c_messages : Tm.Counter.t;
  c_internal : Tm.Counter.t;
  mutable swept : int;
}

let make_stats () =
  let registry = Tm.create_registry () in
  {
    registry;
    c_cells =
      Tm.Counter.v ~registry ~help:"Clock cells written by the engine"
        "server.engine.cells";
    c_messages =
      Tm.Counter.v ~registry ~help:"Messages stamped by the engine"
        "server.engine.owned_messages";
    c_internal =
      Tm.Counter.v ~registry ~help:"Internal events resolved by the engine"
        "server.engine.internal_events";
    swept = 0;
  }

type t = {
  index : Decomposition.index;
      (* The channel -> component-slot map of the current membership
         epoch. *)
  n : int;
  dim : int;
  clocks : Sync_clock.t;
      (* Rows [0..n-1] of its slab are the processes' home rows, where
         every clock sits between sweeps; the last batch's event [i] has
         row [n + i] above them, until the next sweep. *)
  mutable tickets : int array;
      (* The last batch's event [i]: its ticket when internal, -1 when a
         message. During validation it holds each message's group. *)
  mutable batch : int;  (* events in the last batch *)
  stats : stats;
  mutable events : Event_stream.t;
  resolved : Ingest.Pending.t;
  mutable ticket_base : int;
  mutable issued : int;
  mutable stopped : bool;
}

let of_layout ?(pending_cap = Ingest.Pending.default_cap) ?init
    ?(first_ticket = 0) ~n ~dim ~index () =
  if n < 0 then invalid_arg "Engine.create: negative process count";
  if dim < 1 then invalid_arg "Engine.create: dimension must be >= 1";
  if first_ticket < 0 then invalid_arg "Engine.create: negative first ticket";
  {
    index;
    n;
    dim;
    clocks = Sync_clock.create ~capacity:(max 64 (2 * n)) ?init ~n dim;
    tickets = Array.make 64 0;
    batch = 0;
    stats = make_stats ();
    events = Event_stream.create ~dimension:dim ~n;
    resolved = Ingest.Pending.create ~cap:pending_cap m_dropped;
    ticket_base = first_ticket;
    issued = 0;
    stopped = false;
  }

let create ?pending_cap d =
  of_layout ?pending_cap
    ~n:(Decomposition.graph_vertices d)
    ~dim:(max 1 (Decomposition.size d))
    ~index:(Decomposition.index d) ()

let processes t = t.n
let dimension t = t.dim
let pending t = Ingest.Pending.length t.resolved
let dropped t = Ingest.Pending.dropped t.resolved
let next_ticket t = t.ticket_base + t.issued
let process_vectors t = Array.init t.n (Sync_clock.clock t.clocks)

let telemetry_snapshot t = Tm.snapshot ~registry:t.stats.registry ()

let load t =
  (t.stats.swept, Tm.Counter.value t.stats.c_cells,
   Tm.Counter.value t.stats.c_messages)

let enqueue t resolved =
  List.iter
    (fun (ticket, stamp) ->
      Ingest.Pending.push t.resolved (t.ticket_base + ticket, stamp))
    resolved

(* Endpoint [p] of the message stamped in row [r]; [prev] is the row of
   its clock before the message, the [prev] of any internal event waiting
   on it. Vectors are built only then. *)
let endpoint t p ~prev r =
  if Event_stream.waiting t.events ~proc:p then
    let slab = Sync_clock.store t.clocks in
    enqueue t
      (Event_stream.record_message t.events ~proc:p
         ~prev:(Stamp_store.get slab prev) (Stamp_store.get slab r))
  else Event_stream.pass_message t.events ~proc:p

let validate t events =
  Array.iteri
    (fun i ev ->
      match ev with
      | Ingest.Internal { proc } ->
          if proc < 0 || proc >= t.n then
            invalid_arg
              (Printf.sprintf "Engine: internal event on unknown process %d"
                 proc)
      | Ingest.Message { src; dst } -> (
          match Decomposition.lookup t.index src dst with
          | -1 ->
              invalid_arg
                (Printf.sprintf
                   "Engine: channel (%d, %d) outside the decomposition" src dst)
          | g -> t.tickets.(i) <- g))
    events

let flush_stats t len internals =
  let s = t.stats in
  s.swept <- s.swept + len;
  Tm.Counter.add s.c_cells (len * t.dim);
  Tm.Counter.add s.c_messages (len - internals);
  Tm.Counter.add s.c_internal internals

(* Componentwise merge of the endpoints' clocks plus one on the
   message's group, adopted by both endpoints — Fig. 5, one row per
   event. Internal events never touch the clocks; they take a zero row so
   that event [i] keeps row [n + i]. *)
let sweep t events =
  if t.stopped then invalid_arg "Engine: stopped";
  let len = Array.length events in
  if Array.length t.tickets < len then
    t.tickets <- Array.make (max len (2 * Array.length t.tickets)) 0;
  (* Validate the whole batch up front so a bad event mutates nothing. *)
  validate t events;
  let clocks = t.clocks in
  Sync_clock.drop_stamps clocks;
  t.batch <- len;
  if len > 0 then begin
    Tm.Counter.incr m_batches;
    Tm.Counter.add m_events len;
    let internals = ref 0 in
    for i = 0 to len - 1 do
      match Array.unsafe_get events i with
      | Ingest.Internal { proc } ->
          ignore (Stamp_store.push_zero (Sync_clock.store clocks));
          t.tickets.(i) <-
            t.ticket_base + Event_stream.record_internal t.events ~proc;
          t.issued <- t.issued + 1;
          incr internals
      | Ingest.Message { src; dst } ->
          let g = t.tickets.(i) in
          let prev_src = Sync_clock.row clocks src
          and prev_dst = Sync_clock.row clocks dst in
          let r = Sync_clock.stamp clocks ~src ~dst ~a:g ~b:g in
          endpoint t src ~prev:prev_src r;
          endpoint t dst ~prev:prev_dst r;
          t.tickets.(i) <- -1
    done;
    (* Settle: each clock the batch moved goes back to its home row once,
       however often the batch touched it. The stamp rows stay readable
       until the next sweep drops them. *)
    for i = 0 to len - 1 do
      match Array.unsafe_get events i with
      | Ingest.Message { src; dst } ->
          Sync_clock.home clocks src;
          Sync_clock.home clocks dst
      | Ingest.Internal _ -> ()
    done;
    flush_stats t len !internals
  end

let rows t = Stamp_store.data (Sync_clock.store t.clocks)
let tickets t = t.tickets
let batch_stamp t i = Stamp_store.get (Sync_clock.store t.clocks) (t.n + i)

let observe_batch t events =
  sweep t events;
  Array.init t.batch (fun i ->
      match t.tickets.(i) with
      | -1 -> Ingest.Stamped (batch_stamp t i)
      | ticket -> Ingest.Deferred ticket)

let observe t ev = (observe_batch t [| ev |]).(0)

let drain t = Ingest.Pending.drain t.resolved

let finish t =
  let flushed =
    List.map
      (fun (ticket, stamp) -> (t.ticket_base + ticket, stamp))
      (Event_stream.finish t.events ~prev:(Sync_clock.clock t.clocks))
  in
  let out = drain t @ flushed in
  (* Event_stream.finish retires the stream; tickets keep increasing
     across the replacement via the base offset. *)
  t.ticket_base <- t.ticket_base + t.issued;
  t.issued <- 0;
  t.events <- Event_stream.create ~dimension:t.dim ~n:t.n;
  out

let stop t = t.stopped <- true

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
