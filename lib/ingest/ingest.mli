(** The unified ingestion interface every stamping sink conforms to.

    PRs 1–5 grew one observation entry point per layer: [Session.observe],
    raw streaming-stamper closures, the CSP runtime's [?on_stamp] hook, the
    network replay plumbing in [bin/main.ml]. This module is the
    convergence point: an {e ingest sink} consumes a stream of
    [Session.observe]-shaped events — synchronous messages and internal
    events, in any linearization order of the real run — and answers with
    stamps (immediate for messages, deferred tickets for internal events).

    {!S} is implemented by [Synts_session.Session] (in-process monitoring),
    [Synts_server.Engine] (the stamping engine behind [synts serve]) and
    [Synts_server.Client] (remote stamping over a socket), so embedders
    are written once against {!sink} and run unchanged against any of
    them. *)

type ticket = Synts_core.Event_stream.ticket
(** Deferred internal-event handles, issued in announcement order. *)

type event =
  | Message of { src : int; dst : int }
      (** The next synchronous message, in linearization order. *)
  | Internal of { proc : int }  (** An internal event of one process. *)

type outcome =
  | Stamped of Synts_clock.Vector.t
      (** A message's timestamp, available immediately. *)
  | Deferred of ticket
      (** An internal event's handle; its stamp is complete only once the
          process's next message is observed — redeem via {!drain} or
          {!finish}. *)

type resolved = ticket * Synts_core.Internal_events.stamp
(** A redeemed internal-event stamp. *)

(** The interface proper. Implementations must stamp identically to the
    paper's packet-level Fig. 5 protocol over the same decomposition and
    event order (the {!Synts_core.Edge_clock} msg/ack machine, driven by
    [Online.timestamp_trace_protocol]) — the conformance tests hold every
    Fig. 5 conformer to that oracle, which shares no code with the
    stamping kernel. A batch that {!S.observe_batch} rejects changes
    nothing in any sink: every event is checked before the first is
    applied. *)
module type S = sig
  type t

  val observe : t -> event -> outcome
  (** Observe the next event of the stream. *)

  val observe_batch : t -> event array -> outcome array
  (** Observe a contiguous run of events at once (the unit of ingestion
      for batching sinks such as the server client; equivalent to
      observing each event in order). *)

  val drain : t -> resolved list
  (** Internal-event stamps resolved since the last drain, oldest
      first. *)

  val finish : t -> resolved list
  (** Flush: every still-pending internal event is resolved with
      [succ = +∞] (preceded by any undrained resolved stamps). *)

  val processes : t -> int
  val dimension : t -> int
  (** Current timestamp width (may grow for adaptive sinks). *)
end

(** The queue every sink keeps its resolved stamps in until {!drain}.
    It is bounded: a push into a full queue evicts the oldest stamp and
    counts it, so a caller that never drains loses stamps, counted,
    instead of growing the process without bound. *)
module Pending : sig
  type t

  val default_cap : int
  (** 65,536 stamps: the bound of every sink that is not given one. *)

  val create : cap:int -> Synts_telemetry.Telemetry.Counter.t -> t
  (** [create ~cap dropped] holds at most [cap] stamps and adds every
      eviction to the counter [dropped]. Raises [Invalid_argument] when
      [cap < 1]. *)

  val push : t -> resolved -> unit
  val length : t -> int

  val dropped : t -> int
  (** Stamps evicted since creation. *)

  val drain : t -> resolved list
  (** Every queued stamp, oldest first; the queue is left empty. *)
end

type sink = Sink : (module S with type t = 'a) * 'a -> sink
(** A first-class sink: implementation packed with its state. *)

val sink : (module S with type t = 'a) -> 'a -> sink

(** {1 Operating on packed sinks} *)

val observe : sink -> event -> outcome
val observe_batch : sink -> event array -> outcome array
val drain : sink -> resolved list
val finish : sink -> resolved list
val processes : sink -> int
val dimension : sink -> int

(** {1 Stream helpers} *)

val event_of_step : Synts_sync.Trace.step -> event
(** [Send (src, dst)] is a [Message], [Local p] an [Internal]. *)

val feed_trace : sink -> Synts_sync.Trace.t -> outcome array
(** Observe every step of a linearized trace, in order (one outcome per
    step; does not {!finish}). *)

val message_stamps : outcome array -> Synts_clock.Vector.t array
(** The [Stamped] vectors of an outcome stream, in order — one per
    message when the outcomes came from a whole trace. *)
