(** The streaming offline pipeline as an {!Ingest.S} sink.

    Wraps {!Synts_core.Offline.Stream} — incremental Dilworth chain
    maintenance with bounded memory — behind the unified ingestion
    interface, so embedders written against {!Ingest.sink} (sessions, the
    [synts serve] service, the load driver) can emit offline-style
    rank-vector stamps live. Message stamps are immediate and final;
    internal events resolve through {!Synts_core.Event_stream} exactly as
    a session's do. The vector dimension grows with the streaming chain
    count (compare stamps of different widths zero-padded, e.g. via
    {!Synts_core.Offline.Stream.precedes}).

    Unlike the Fig. 5 online sinks ({!Synts_session.Session},
    [Synts_server.Engine]), stamps do {e not} depend on a topology
    decomposition — only on the observed linearization — and are
    order-equivalent to the batch {!Synts_core.Offline.timestamp_trace}
    on the same event order. *)

type t

val create : ?window:int -> n:int -> unit -> t
(** A sink over [n] processes; [window] is the live-window bound of
    {!Synts_poset.Streaming_chains}. *)

val stream : t -> Synts_core.Offline.Stream.t
(** The underlying stream, for width / memory / repair statistics. *)

val pending : t -> int
(** Resolved stamps queued awaiting {!drain} — the backpressure signal
    the admin channel reports. The queue holds at most
    {!Ingest.Pending.default_cap} stamps. *)

val dropped : t -> int
(** Resolved stamps evicted from the full queue since creation. *)

val observe : t -> Ingest.event -> Ingest.outcome
val observe_batch : t -> Ingest.event array -> Ingest.outcome array
(** Both raise [Invalid_argument] on a message whose endpoints are equal
    or out of range, or an internal event on an unknown process; a
    batch is checked whole before its first event is stamped, so a
    rejected batch changes nothing. *)

val drain : t -> Ingest.resolved list
val finish : t -> Ingest.resolved list

val processes : t -> int
val dimension : t -> int

module Sink : Ingest.S with type t = t

val ingest : t -> Ingest.sink
(** This stamper as a packed ingest sink. *)
