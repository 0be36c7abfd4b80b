(** Transport-independent core of the [synts serve] daemon.

    A service owns one Fig. 5 {!Engine} (or the streaming offline
    pipeline) and the per-connection protocol state; the socket layer
    ({!Server}) only moves framed bytes. Keeping the core transport-free
    is what lets the property tests drive the full request path —
    encode, frame, (possibly corrupt), unframe, decode, stamp — without
    opening a socket.

    On the engine, the byte path ({!handle_raw}, {!serve_frame}) codes an
    [Observe] reply straight from the engine's slab rows
    ({!Protocol.put_outcome_rows}); no vector is built per stamp. Its
    frames equal, byte for byte, those of {!handle} followed by
    {!Protocol.encode_response} and {!Synts_clock.Wire.frame}.

    {2 At-least-once exactness}

    Each connection's [Observe] requests carry a client sequence number.
    The service stamps a sequence once and caches the reply: a duplicate
    delivery (network dup, or a client retransmitting after a corrupted
    frame was rejected) is answered from the cache, never re-stamped —
    so the fault injector's dup/corrupt clauses cannot skew timestamps.
    On the byte path a duplicate gets the cached frame's bytes. A
    sequence older than the cached one is answered with [Error_r]
    ("stale"), as is a gap (the client skipped a sequence); {!handle}
    and the byte path share this state machine, and a refused or
    rejected batch consumes no sequence number. *)

type t

val create :
  ?check:bool ->
  ?offline:bool ->
  ?window:int ->
  Synts_graph.Decomposition.t ->
  t
(** [check] (default false) additionally logs every ingested event in
    arrival order so {!Protocol.Verify} can replay the whole stream
    against a mode-specific oracle. With [offline] false (the default)
    the backend is the Fig. 5 {!Engine} and verification replays the
    log, membership deltas included, through
    {!Synts_core.Epoch_stamper}, which keeps its own clocks apart from
    the engine's kernel, comparing stamps bit-for-bit. With [offline] true the backend is
    the streaming Dilworth pipeline
    ({!Synts_ingest.Offline_sink}, live window [window]): stamps are
    offline-style rank vectors, and verification instead
    batch-timestamps the logged trace with
    {!Synts_core.Offline.timestamp_trace} and requires the same
    precedes/concurrent verdict on every message pair
    (order-equivalence — the streamed vectors are not bit-identical to
    the batch ones). *)

type conn

val attach : t -> conn
(** Register a connection (fresh sequence/cache state). *)

val detach : t -> conn -> unit

val clients : t -> int
(** Currently attached connections. *)

val handle : t -> conn -> Protocol.request -> Protocol.response
(** Execute one decoded request. Never raises: engine
    [Invalid_argument]s surface as [Error_r]. [Shutdown] answers [Bye];
    the caller decides what to do with its transport. *)

val handle_raw : t -> conn -> string -> string
(** The byte-level path: {!Synts_clock.Wire.unframe}, decode, answer,
    frame. Malformed or corrupted input yields a framed [Error_r]
    {e without} touching the connection's sequence state, so a
    retransmission of the damaged request still lands in the dedup
    window. A frame [unframe] refuses is counted in [server.bad_frames],
    a body the decoder refuses (an admin-plane body among them) in
    [server.bad_requests]; both also count in {!errors}. *)

val serve_frame : t -> conn -> string -> Synts_clock.Wire.writer -> bool
(** [serve_frame t conn raw out] is {!handle_raw} with the reply appended
    to [out] as the transport carries it ({!Frame.put}: length prefix,
    then frame), so the replies to one read leave in one write. Returns
    [true] when the reply is [Bye]. *)

val stop : t -> unit
(** Retire the backend. *)

(** {2 Introspection}

    The accessors behind the admin channel ({!Admin_service}). All are
    cheap reads of coordinator-side state — safe to call between
    requests on the serve loop's thread. *)

type backend =
  | Online of Engine.t
  | Offline_stream of Synts_ingest.Offline_sink.t

val backend : t -> backend
(** The {e current} backend — a [Protocol.Churn] request retires the
    engine and replaces it with one laid out for the new epoch
    (per-process clocks translated, ticket space continued), so do not
    cache the result across requests. *)

val epoch : t -> int
(** Current membership epoch (0 for the offline backend, which does not
    support churn). *)

val membership : t -> Synts_graph.Membership.t option
(** The churn-tolerant membership behind the online backend ([None] in
    offline mode) — read-only introspection for the admin channel and
    the [epoch/*] lint rules; deltas must flow through
    [Protocol.Churn]. *)

val backend_name : t -> string
(** ["online"] or ["offline-stream"]. *)

val batches : t -> int
val messages_total : t -> int
val internal_total : t -> int

val dedup_hits : t -> int
(** Observe requests answered from a reply cache (sequence replays). *)

val errors : t -> int
(** Requests answered with [Error_r], including bad frames. *)

val pending : t -> int
(** Resolved stamps queued in the backend awaiting [Drain]. *)

val dropped : t -> int
(** Resolved stamps the backend discarded to its queue bound
    ({!Synts_ingest.Ingest.Pending}), on either backend. *)

val stamp_quantiles : t -> float * float * float
(** [(p50, p90, p99)] server-side batch stamping latency in
    milliseconds, from the service-private [server.stamp_ms]
    histogram. *)

val conn_stats : t -> (int * int * int * int * int) list
(** Per-connection [(id, events in, stamps out, dedup hits, last seq)],
    sorted by id. *)

val telemetry_snapshots : t -> Synts_telemetry.Telemetry.snapshot list
(** The service-private registry snapshot followed by the engine's
    (none in offline mode) — merge with [Obs.Merge.snapshots] for the
    admin [metrics] view. *)
