(** The online algorithm over whole traces (paper Sec. 3, Theorem 4).

    Timestamps every message of a synchronous computation with a
    [d]-component vector, [d] the size of the chosen edge decomposition,
    such that [m1 ↦ m2 ⟺ v(m1) < v(m2)]. Two implementations are
    provided: the {!Synts_clock.Sync_clock} kernel (both endpoints' merge
    + increment collapsed into one slab row per message), which also
    stamps for the [synts serve] engine, and a packet-faithful one that
    drives two {!Edge_clock} state machines through the explicit
    message/ack exchange — the independent oracle the test suite holds
    the kernel to. *)

val timestamp_trace :
  Synts_graph.Decomposition.t -> Synts_sync.Trace.t -> Synts_clock.Vector.t array
(** One vector per message id. Raises [Invalid_argument] when some used
    channel is absent from the decomposition. *)

val timestamp_store :
  ?store:Synts_clock.Stamp_store.t ->
  ?rows:int array ->
  Synts_graph.Decomposition.t ->
  Synts_sync.Trace.t ->
  Synts_clock.Stamp_store.t * int array
(** Zero-allocation form of {!timestamp_trace}: stamps land in a flat
    {!Synts_clock.Stamp_store} slab and the returned array maps message
    id to slab row. Pass [?store] (cleared, dimension must match) and a
    [?rows] scratch array (length ≥ message count) to reuse buffers
    across traces — then the sweep allocates nothing per message. *)

val timestamp_trace_reference :
  Synts_graph.Decomposition.t -> Synts_sync.Trace.t -> Synts_clock.Vector.t array
(** The pre-slab seed implementation (merge + two copies per message).
    Kept as the equivalence oracle for the kernel tests; not a hot path. *)

val timestamp_trace_protocol :
  Synts_graph.Decomposition.t -> Synts_sync.Trace.t -> Synts_clock.Vector.t array
(** Same result via the explicit Figure 5 protocol (message then
    acknowledgement); additionally asserts that sender and receiver derive
    the same timestamp. *)

val stamper :
  Synts_graph.Decomposition.t -> (src:int -> dst:int -> Synts_clock.Vector.t)
(** A stateful streaming stamper: feed messages in a linearization order,
    get each message's timestamp. Useful for online monitoring loops.
    Internally stamps on a {!Synts_clock.Sync_clock} kernel that settles
    every clock back to its home row once the slab reaches
    [max 64 (4(n+1))] rows, so its size stays O(n·d) regardless of
    stream length; each call returns a fresh copy of the stamp. *)

val stamper_reference :
  Synts_graph.Decomposition.t -> (src:int -> dst:int -> Synts_clock.Vector.t)
(** The pre-slab seed stamper, kept as the equivalence oracle. *)

val precedes : Synts_clock.Vector.t -> Synts_clock.Vector.t -> bool
(** The O(d) precedence test: [m1 ↦ m2 ⟺ precedes v1 v2]. *)

val concurrent : Synts_clock.Vector.t -> Synts_clock.Vector.t -> bool
