(** The one-object embedding API for live monitoring.

    A [Session.t] owns everything a monitoring integration needs: the
    decomposition (fixed from a known topology, or grown adaptively), the
    per-process clocks, the causal frontier, streaming order statistics
    and the deferred internal-event stamps. Feed it the observation stream
    — one call per message (in any linearization order of the real run)
    and per internal event — and query it at any time.

    All vectors returned by one session are mutually comparable with
    {!precedes}/{!concurrent}/{!happened_before}, which zero-pad when the
    adaptive decomposition has grown between two stamps. *)

type t

val of_topology : ?window:int -> ?pending_cap:int -> Synts_graph.Graph.t -> t
(** Known topology: uses [Decomposition.best]. [window] bounds the
    statistics' retained history; [pending_cap] (default 65536, ≥ 1)
    bounds the resolved internal-event queue — see {!drain_events}. *)

val of_decomposition :
  ?window:int -> ?pending_cap:int -> Synts_graph.Decomposition.t -> t
(** Known topology with a caller-chosen decomposition. *)

val adaptive : ?window:int -> ?pending_cap:int -> n:int -> unit -> t
(** Unknown topology: channels register on first use. *)

val offline_stream :
  ?window:int -> ?stream_window:int -> ?pending_cap:int -> n:int -> unit -> t
(** Offline-quality stamps, live: messages are stamped by the streaming
    Dilworth pipeline ({!Synts_core.Offline.Stream}) instead of the
    Fig. 5 online rule — rank vectors over the incrementally maintained
    chain partition, order-equivalent to the batch
    {!Synts_core.Offline.timestamp_trace} of the observed linearization,
    with no topology decomposition needed. {!dimension} starts at 1 and
    grows with the chain count (near the poset's width, cf. the paper's
    ⌊N/2⌋); all comparison entry points zero-pad as with {!adaptive}
    sessions. [stream_window] bounds the pipeline's live matching window
    ({!Synts_poset.Streaming_chains.create}). {!decomposition} raises
    [Invalid_argument] for these sessions. *)

val processes : t -> int
val dimension : t -> int
(** Current vector size (constant unless adaptive). *)

(** {1 Observation}

    Sessions ingest the {!Synts_ingest.Ingest} event stream: {!observe}
    is {e the} entry point, and {!ingest} packs a session as a
    first-class {!Synts_ingest.Ingest.sink} so embedders written against
    the unified interface run against a session, the [synts serve]
    engine or a remote server client interchangeably. *)

type event = Synts_ingest.Ingest.event =
  | Message of { src : int; dst : int }
  | Internal of { proc : int }
(** One element of a unified observation stream (re-exported from
    {!Synts_ingest.Ingest} — the constructors are the same). *)

type outcome = Synts_ingest.Ingest.outcome =
  | Stamped of Synts_clock.Vector.t
      (** A message's timestamp, available immediately. *)
  | Deferred of Synts_core.Event_stream.ticket
      (** An internal event's ticket, redeemed via
          {!drain_events}/{!finish_events}. *)

val observe : t -> event -> outcome
(** The unified entry point over both event kinds. Raises
    [Invalid_argument], changing nothing, for a [Message] on a channel
    outside a fixed decomposition (or, for the other two kinds, outside
    the process range or from a process to itself) and for an
    [Internal] event on an unknown process. *)

val observe_batch : t -> event array -> outcome array
(** {!observe} over a contiguous run of events, in order. Every event is
    checked first: a batch with one bad event raises and changes
    nothing. *)

module Sink : Synts_ingest.Ingest.S with type t = t
(** The {!Synts_ingest.Ingest.S} conformance ([drain] and [finish] map
    to {!drain_events} and {!finish_events}). *)

val ingest : t -> Synts_ingest.Ingest.sink
(** This session as a packed ingest sink. *)

val drain_events :
  t -> (Synts_core.Event_stream.ticket * Synts_core.Internal_events.stamp) list
(** Internal-event stamps resolved since the last drain, oldest first.
    The pending queue is bounded by the constructor's [pending_cap]: when
    an embedder stops draining, the oldest resolved stamps are evicted —
    each eviction increments {!dropped_events} and the
    [session.dropped_events] telemetry counter, never silently. *)

val dropped_events : t -> int
(** Resolved stamps evicted from the full pending queue so far. *)

val finish_events :
  t -> (Synts_core.Event_stream.ticket * Synts_core.Internal_events.stamp) list
(** Flush still-pending internal events with [succ = +∞]. *)

val messages_observed : t -> int
val frontier : t -> (int * Synts_clock.Vector.t) list
(** Current maximal messages as [(sequence number, timestamp)]; sequence
    numbers count messages in observation order from 0. *)

val concurrency_ratio : t -> float
val longest_chain : t -> int

val width : t -> int
(** Width of the message poset observed so far (maintained incrementally;
    always ≤ {!dimension}). The size an offline re-timestamping of the
    prefix would need. *)

val precedes : t -> Synts_clock.Vector.t -> Synts_clock.Vector.t -> bool
val concurrent : t -> Synts_clock.Vector.t -> Synts_clock.Vector.t -> bool
val happened_before :
  t -> Synts_core.Internal_events.stamp -> Synts_core.Internal_events.stamp -> bool
(** Padded comparisons, valid across the session's whole lifetime. *)

val decomposition : t -> Synts_graph.Decomposition.t
(** The current decomposition (a snapshot when adaptive). Raises
    [Invalid_argument] for {!offline_stream} sessions, which stamp from
    the observed order without one. *)
