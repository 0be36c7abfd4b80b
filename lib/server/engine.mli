(** The streaming Fig. 5 stamping engine behind [synts serve].

    An engine conforms to {!Synts_ingest.Ingest.S}, so everything that
    feeds a {!Synts_session.Session} can feed an engine unchanged. It
    stamps on one domain with one {!Synts_clock.Sync_clock} kernel, the
    one {!Synts_core.Online} also runs on. Rows [0 .. n-1] of its slab
    are the processes' home rows, where every clock sits between
    batches, and a batch's event [i] gets row [n + i] above them — the
    componentwise max of its endpoints' clocks plus one on its edge
    group, which both endpoints then adopt. After the sweep each clock
    the batch moved is copied home once, however often it was touched;
    the next sweep drops the batch's rows. The conformance tests hold
    the stamps to the packet-faithful {!Synts_core.Edge_clock} protocol
    ({!Synts_core.Online.timestamp_trace_protocol}), and [--check]
    replays them through {!Synts_core.Epoch_stamper}; neither runs on
    the kernel.

    The serve loop never asks for a vector: it calls {!sweep} and codes
    the reply straight from {!rows} ({!Protocol.put_outcome_rows}).
    {!observe_batch} builds vectors from the same rows for in-process
    callers.

    Internal events never touch the clocks. They resolve through
    {!Synts_core.Event_stream} during the sweep, in event order, with
    [prev] read from the process's clock row; tickets and resolved
    stamps behave exactly as a session's. *)

type t

val create : ?pending_cap:int -> Synts_graph.Decomposition.t -> t
(** [create d] builds an engine over decomposition [d].
    [pending_cap] (default 65536, the {!Synts_ingest.Ingest.Pending}
    bound every sink shares) bounds the resolved-stamp queue: beyond it
    the oldest entry is dropped and counted in {!dropped}.
    [pending_cap < 1] raises [Invalid_argument]. *)

val of_layout :
  ?pending_cap:int ->
  ?init:int array array ->
  ?first_ticket:int ->
  n:int ->
  dim:int ->
  index:Synts_graph.Decomposition.index ->
  unit ->
  t
(** An engine over an explicit layout instead of a static decomposition —
    the constructor a membership reshard uses. [index] maps a channel to
    its component slot (typically [Synts_graph.Membership.index] of the
    epoch's membership). [init] (default all zeros) seeds the per-process
    clock rows — the previous engine's {!process_vectors} translated into
    the new epoch — and must be [n] rows of width [dim]; the kernel
    seeds its home rows with them. [first_ticket]
    (default 0) continues the previous engine's ticket numbering
    ({!next_ticket}) so clients see one monotone ticket space across
    epochs. [dim < 1], [n < 1] or ill-shaped [init] raise
    [Invalid_argument]. *)

val processes : t -> int
val dimension : t -> int

val pending : t -> int
(** Resolved stamps currently queued awaiting {!drain} — the engine's
    backpressure signal. *)

val dropped : t -> int
(** Resolved stamps discarded to the [pending_cap] bound since creation
    (also the ["server.engine.dropped_events"] counter). *)

val next_ticket : t -> int
(** The ticket the next deferred internal event would get — pass it as
    [first_ticket] to the successor engine when resharding so the ticket
    space stays monotone. *)

val process_vectors : t -> int array array
(** The per-process clock vectors: row [p] is process [p]'s current
    clock (width {!dimension}). This is the state {!of_layout}'s [init]
    carries across a membership epoch change. *)

val telemetry_snapshot : t -> Synts_telemetry.Telemetry.snapshot
(** The engine-private registry: cells written, messages stamped and
    internal events. *)

val load : t -> int * int * int
(** [(events swept, cells written, messages stamped)] since creation —
    the admin channel's load row. *)

(** {1 The row path} *)

val sweep : t -> Synts_ingest.Ingest.event array -> unit
(** Stamp one ordered batch into the slab without building a vector per
    stamp. Afterwards, until the next sweep, event [i] of the batch is a
    message stamped with row [processes t + i] of {!rows} when
    [(tickets t).(i) < 0], and otherwise an internal event deferred under
    ticket [(tickets t).(i)]. [Message] events outside the layout and
    internal events on unknown processes raise [Invalid_argument] before
    any state changes. *)

val rows : t -> int array
(** The slab, [dimension t] words per row; see {!sweep}. *)

val tickets : t -> int array
(** The last batch's tickets, [-1] for messages; see {!sweep}. *)

val batch_stamp : t -> int -> Synts_clock.Vector.t
(** A fresh vector of the last batch's event [i] row. *)

(** {1 Ingestion} *)

val observe : t -> Synts_ingest.Ingest.event -> Synts_ingest.Ingest.outcome
(** A batch of one — see {!observe_batch}. *)

val observe_batch :
  t -> Synts_ingest.Ingest.event array -> Synts_ingest.Ingest.outcome array
(** {!sweep}, then one outcome per event, in event order. *)

val drain :
  t -> (Synts_ingest.Ingest.ticket * Synts_core.Internal_events.stamp) list

val finish :
  t -> (Synts_ingest.Ingest.ticket * Synts_core.Internal_events.stamp) list
(** Flush pending internal events ([succ = +∞]) and reset the internal
    event stream; message clocks are {e not} reset, but the next
    internal event of each process has a zero [prev] until the process
    takes part in a message. Tickets keep increasing across a
    [finish]. *)

val stop : t -> unit
(** Retire the engine. Idempotent; it must not be used afterwards. *)

module Sink : Synts_ingest.Ingest.S with type t = t
(** The {!Synts_ingest.Ingest.S} conformance. *)

val ingest : t -> Synts_ingest.Ingest.sink
(** This engine as a packed ingest sink. *)
