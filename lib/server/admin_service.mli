(** Server side of the admin channel: answers {!Synts_obs.Admin}
    requests from {!Service} state.

    Runs on the serve loop's thread between data-plane requests, so
    every read — per-connection tallies, backend queue depths, merged
    registries, the tracer ring — is a coherent snapshot; nothing here
    blocks or stamps. *)

val merged_snapshot : Service.t -> Synts_telemetry.Telemetry.snapshot
(** The default registry, the service-private registry and the engine's
    registry, merged with {!Synts_obs.Merge.snapshots}. *)

val stats : Service.t -> Synts_obs.Admin.stats
(** The [Stats] payload: totals, dedup/drop/pending counters, stamp
    latency quantiles, the engine's load (online mode), per-connection
    rows and (offline mode) the streaming watermarks. *)

val handle : Service.t -> Synts_obs.Admin.request -> Synts_obs.Admin.response

val handle_raw : Service.t -> string -> string
(** Byte-level path: unframe, decode, {!handle}, encode, re-frame.
    Malformed input yields a framed [Error_r]. A data-plane request
    arriving here is refused as an unknown admin request tag. *)
