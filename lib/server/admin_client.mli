(** Blocking scraper for a daemon's admin channel — what [synts top]
    and the obs smoke tier speak.

    Unlike {!Client} there is no hello exchange: the admin channel is
    request/response from the first frame, and each call is one
    {!Frame.call} round trip. All calls raise [Failure] on protocol
    errors (including the unknown-tag rejection a data-plane port
    answers with) and [Unix.Unix_error] on transport errors. *)

type t

val connect : Server.address -> t
val close : t -> unit

val health : t -> bool * string * int * int
(** [(ok, backend, processes, dimension)]. *)

val metrics : t -> Synts_obs.Admin.metrics_format -> string
(** The merged registry snapshot (process, service and engine), rendered
    as Prometheus text or JSON. *)

val stats : t -> Synts_obs.Admin.stats

val tracedump : t -> int * int * string
(** [(dropped, spans, jsonl)] — drains nothing; the ring keeps its
    contents. *)
