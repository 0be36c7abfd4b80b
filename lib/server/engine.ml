module Decomposition = Synts_graph.Decomposition
module Sync_clock = Synts_clock.Sync_clock
module Wire = Synts_clock.Wire
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
      (* Process [p]'s clock is row [p] of its slab, its home row, and
         never leaves it. *)
  mutable groups : int array;
      (* Validation's scratch: the group of each message of the batch. *)
  scratch : Wire.writer;  (* [observe_batch]'s reply body, discarded *)
  stats : stats;
  mutable events : Event_stream.t;
  resolved : Ingest.Pending.t;
  mutable ticket_base : int;
  mutable issued : int;
  mutable stopped : bool;
}

let of_layout ?(pending_cap = Ingest.Pending.default_cap) ?init
    ?(first_ticket = 0) ~n ~dim ~index () =
  if n < 1 then invalid_arg "Engine.create: need at least one process";
  if dim < 1 then invalid_arg "Engine.create: dimension must be >= 1";
  if first_ticket < 0 then invalid_arg "Engine.create: negative first ticket";
  {
    index;
    n;
    dim;
    clocks = Sync_clock.create ~capacity:n ?init ~n dim;
    groups = Array.make 64 0;
    scratch = Wire.writer 256;
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

(* Endpoint [p]'s clock before the message, copied out only when an
   internal event waits on it: that event's [prev]. *)
let prior t p =
  if Event_stream.waiting t.events ~proc:p then
    Some (Sync_clock.clock t.clocks p)
  else None

(* Endpoint [p] after the message: [prior] resolves its waiting
   events, whose [succ] is the stamp now in its home row. *)
let endpoint t p = function
  | Some prev ->
      enqueue t
        (Event_stream.record_message t.events ~proc:p ~prev
           (Sync_clock.clock t.clocks p))
  | None -> Event_stream.pass_message t.events ~proc:p

(* The batch on a copy of the clocks, the reply coded into a writer that
   is thrown away: once a component nears 2^61, a stamp's delta against
   the one before it may leave the range a reply codes. The kernel
   refuses that stamp before it changes anything, but by then the
   batch's earlier messages have moved clocks. *)
let stamp_on_copy t events =
  let clocks = Sync_clock.create ~init:(process_vectors t) ~n:t.n t.dim in
  let w = Wire.writer 64 and prev = ref (-1) in
  Array.iteri
    (fun i -> function
      | Ingest.Message { src; dst } ->
          Sync_clock.stamp_home clocks w ~src ~dst ~a:t.groups.(i) ~prev:!prev;
          prev := src
      | Ingest.Internal _ -> ())
    events

(* Refuse a batch that cannot be stamped whole, before anything changes;
   returns its message count. Each message raises the largest component
   by one at most. *)
let validate t events =
  let len = Array.length events in
  if Array.length t.groups < len then
    t.groups <- Array.make (max len (2 * Array.length t.groups)) 0;
  let messages = ref 0 in
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
          | g ->
              t.groups.(i) <- g;
              incr messages))
    events;
  let top = Sync_clock.top t.clocks in
  if top > max_int - !messages then
    invalid_arg
      (Printf.sprintf "Engine: component overflow: a clock is at %d" top);
  if top >= Wire.max_delta - !messages then stamp_on_copy t events;
  !messages

let flush_stats t len internals =
  let s = t.stats in
  s.swept <- s.swept + len;
  Tm.Counter.add s.c_cells (len * t.dim);
  Tm.Counter.add s.c_messages (len - internals);
  Tm.Counter.add s.c_internal internals

(* Fig. 5, one kernel pass per message: the componentwise max of the
   endpoints' clocks plus one on the message's group, written into both
   home rows and coded into the reply as it is computed. The reply's
   previous stamp still sits in the home rows of its endpoints, [src]'s
   among them. Internal events never touch the clocks. *)
let sweep ?out t w events =
  if t.stopped then invalid_arg "Engine: stopped";
  let messages = validate t events in
  let len = Array.length events in
  let clocks = t.clocks in
  Protocol.put_outcomes_head w len;
  if len > 0 then begin
    Tm.Counter.incr m_batches;
    Tm.Counter.add m_events len;
    let prev = ref (-1) in
    for i = 0 to len - 1 do
      match Array.unsafe_get events i with
      | Ingest.Internal { proc } ->
          let ticket =
            t.ticket_base + Event_stream.record_internal t.events ~proc
          in
          t.issued <- t.issued + 1;
          Protocol.put_deferred w ticket;
          (match out with Some f -> f i (Ingest.Deferred ticket) | None -> ())
      | Ingest.Message { src; dst } ->
          let before_src = prior t src and before_dst = prior t dst in
          Protocol.put_stamped w;
          Sync_clock.stamp_home clocks w ~src ~dst ~a:t.groups.(i) ~prev:!prev;
          prev := src;
          endpoint t src before_src;
          endpoint t dst before_dst;
          match out with
          | Some f -> f i (Ingest.Stamped (Sync_clock.clock clocks src))
          | None -> ()
    done;
    flush_stats t len (len - messages)
  end

let observe_batch t events =
  let outcomes = Array.make (Array.length events) (Ingest.Deferred (-1)) in
  Wire.reset t.scratch;
  sweep t t.scratch events ~out:(fun i o -> outcomes.(i) <- o);
  outcomes

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
