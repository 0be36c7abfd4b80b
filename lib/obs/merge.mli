(** Deterministic snapshot aggregation.

    Registries are kept apart where their owners are: the process-wide
    default registry, each serve service's private one and its engine's.
    The admin channel merges their {e snapshots} into one logical view.
    Merge semantics, per metric name:

    - {b counters} add — each registry counted disjoint work;
    - {b gauges} take the maximum — watermark semantics;
    - {b histograms} require identical bucket bounds, then add per-bucket
      counts, the overflow bucket, [sum] and [count] pointwise, and
      combine [min]/[max] with min-of-mins / max-of-maxes (the empty
      histogram's [+inf]/[-inf] sentinels are the identities).

    The same name registered at different kinds (or histogram bounds)
    across inputs raises [Invalid_argument] — that is a bug in the
    instrumentation, not data. The result is name-sorted, so merging is
    itself deterministic. *)

val snapshots :
  Synts_telemetry.Telemetry.snapshot list -> Synts_telemetry.Telemetry.snapshot
(** Merge any number of snapshots; [snapshots [] = []] and
    [snapshots [s] = s] (re-sorted). *)

val value :
  Synts_telemetry.Telemetry.value -> Synts_telemetry.Telemetry.value ->
  Synts_telemetry.Telemetry.value
(** Merge two values of the same metric. Raises [Invalid_argument] on a
    kind or bucket-bounds mismatch. *)
