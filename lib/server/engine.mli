(** The streaming Fig. 5 stamping engine behind [synts serve].

    An engine conforms to {!Synts_ingest.Ingest.S}, so everything that
    feeds a {!Synts_session.Session} can feed an engine unchanged. It
    stamps on one domain with one {!Synts_clock.Sync_clock} kernel, the
    one {!Synts_core.Online} also runs on. Row [p] of its slab is
    process [p]'s {e home row}, where its clock always sits. A message's
    stamp is the componentwise max of its endpoints' clocks plus one on
    its edge group, which both endpoints then adopt; one kernel pass
    over the components computes it, writes it into both home rows and
    codes it into the reply ({!Synts_clock.Sync_clock.stamp_home}), so
    each component is touched once per message. The conformance tests
    hold the stamps to the packet-faithful {!Synts_core.Edge_clock}
    protocol ({!Synts_core.Online.timestamp_trace_protocol}), and
    [--check] replays them through {!Synts_core.Epoch_stamper}; neither
    runs on the kernel.

    The serve loop never asks for a vector: {!sweep} writes the
    [Outcomes] reply while it stamps. {!observe_batch} runs the same
    sweep and copies each stamp out as a vector for in-process callers.

    Internal events never touch the clocks. They resolve through
    {!Synts_core.Event_stream} during the sweep, in event order; a
    process's clock is copied out before a message moves it only when
    an internal event waits on it, as that event's [prev]. Tickets and
    resolved stamps behave exactly as a session's. *)

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

(** {1 The serve path} *)

val sweep :
  ?out:(int -> Synts_ingest.Ingest.outcome -> unit) ->
  t ->
  Synts_clock.Wire.writer ->
  Synts_ingest.Ingest.event array ->
  unit
(** Stamp one ordered batch and append its [Outcomes] reply body
    ({!Protocol.put_outcomes_head}) to the writer, in one pass per
    message and without a vector per stamp. [out i o], when given, gets
    event [i]'s outcome, a stamp as a fresh vector. A batch is refused
    whole, with [Invalid_argument] before any state changes or any byte
    is written: a [Message] outside the layout, an internal event on an
    unknown process, or a batch that could carry a clock component past
    [max_int] or a stamp delta the reply cannot code. *)

(** {1 Ingestion} *)

val observe : t -> Synts_ingest.Ingest.event -> Synts_ingest.Ingest.outcome
(** A batch of one — see {!observe_batch}. *)

val observe_batch :
  t -> Synts_ingest.Ingest.event array -> Synts_ingest.Ingest.outcome array
(** {!sweep} into a scratch writer, collecting one outcome per event, in
    event order. *)

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
