(** Plausible (comb) clocks after Torres-Rojas & Ahamad — fixed-size
    vectors that are sound but not complete.

    Process [Pi] owns component [i mod r] of an [r]-sized vector; updates
    mirror the synchronous Fidge–Mattern rule on the folded components
    (the {!Sync_clock} kernel with the endpoints' classes as bumps).
    Guarantees [m1 ↦ m2 ⇒ v(m1) < v(m2)] but may order concurrent
    messages — experiment E10 measures that error rate to show why the
    paper's exact, topology-sized clocks matter for monitoring. *)

val timestamp_trace : r:int -> Synts_sync.Trace.t -> Vector.t array
(** One r-sized vector per message id, with the default [p mod r]
    component mapping. Requires [1 <= r]. *)

val timestamp_trace_with :
  classes:int array -> Synts_sync.Trace.t -> Vector.t array
(** Arbitrary process→component mapping [classes] (one entry per process,
    values in [0 .. max]); vector size is [1 + max class]. With classes =
    communication clusters this is a (sound, incomplete) stand-in for
    hierarchical cluster timestamps: intra-cluster orderings collapse. *)

val ordering_error_rate : r:int -> Synts_sync.Trace.t -> float
(** Fraction of concurrent message pairs that the r-sized plausible clocks
    falsely order, 0.0 when there are no concurrent pairs. *)

val ordering_error_rate_with : classes:int array -> Synts_sync.Trace.t -> float
