(** Blocking client for a [synts serve] daemon.

    A connected client is one more {!Synts_ingest.Ingest.S}
    implementation: code written against the unified interface runs
    unchanged whether its sink is an in-process {!Synts_session.Session},
    the {!Engine}, or this client talking to a remote daemon.

    Each request/reply round-trip is timed into the
    [server.client.rpc_ms] telemetry histogram. {!observe_batch}
    retransmits on a [bad frame]/[bad request] error reply — safe
    because the server deduplicates by sequence number and answers a
    replayed sequence from its cache. *)

type t

val connect : Server.address -> t
(** Connect and perform the [Hello]/[Welcome] exchange. Raises
    [Failure] on protocol errors (including a version-mismatch
    rejection) and [Unix.Unix_error] on transport errors. *)

val close : t -> unit
(** Close the connection (the server keeps running). *)

val processes : t -> int
val dimension : t -> int
(** Process count and stamp dimension as of the last [Welcome] or
    [Epoch_r] — both can grow when churn deltas are applied. *)

val epoch : t -> int
(** The server's membership epoch as last reported to this client. *)

val churn : t -> string -> (int * int * int, string) result
(** [churn t delta] asks the server to apply a rendered membership delta
    ([join:P:U-V,...] / [leave:P] / [add:U-V] / [drop:U-V]). On [Ok
    (epoch, processes, dimension)] the client's cached layout is updated
    in place; in-flight sequence state is untouched (the server reshards
    without dropping connections). *)

val observe : t -> Synts_ingest.Ingest.event -> Synts_ingest.Ingest.outcome
val observe_batch :
  t -> Synts_ingest.Ingest.event array -> Synts_ingest.Ingest.outcome array
(** One [Observe] round trip (retransmitted on corruption errors, at
    most 5 times). Raises [Failure] on a server-side error such as a
    channel outside the decomposition. *)

val drain :
  t -> (Synts_ingest.Ingest.ticket * Synts_core.Internal_events.stamp) list

val finish :
  t -> (Synts_ingest.Ingest.ticket * Synts_core.Internal_events.stamp) list

val verify_server : t -> (bool * int, string) result
(** Ask a [--check] server to replay its whole arrival log through the
    single-domain oracle; [Ok (ok, messages_checked)]. *)

type stats = {
  clients : int;
  batches : int;
  messages : int;
  internal : int;
  dropped : int;  (** Server-side resolved-stamp drops (loss). *)
  pending : int;  (** Server-side resolved stamps awaiting drain. *)
}

val server_stats : t -> (stats, string) result

val shutdown : t -> unit
(** Request daemon shutdown, await [Bye], close the connection. *)

module Sink : Synts_ingest.Ingest.S with type t = t
val ingest : t -> Synts_ingest.Ingest.sink
