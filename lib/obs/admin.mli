(** The admin-channel protocol: the second plane of [synts serve].

    [synts serve] can listen on a second socket reserved for
    introspection. Admin messages travel in the one envelope of the data
    plane — {!Synts_server.Frame} length prefixes around
    {!Synts_clock.Wire.frame} checksum frames, whose version byte covers
    both planes — and differ only in their tags: one tag byte names both
    the plane and the verb. Admin tags are [0x20]–[0x24], past the data
    plane's [0]–[9], so a data-plane body that reaches the admin socket
    (or an admin body the data socket) is refused as an unknown tag of
    the receiving plane, not misparsed.

    Like the data plane, integers are LEB128 varints and strings are
    length-prefixed; the latency quantiles are IEEE doubles in 8-byte
    big-endian, so encoding is bit-deterministic. Both planes use the
    one {!Synts_clock.Wire} codec. *)

type metrics_format = Prom | Json

type request =
  | Health
  | Metrics of metrics_format
      (** The merged registry snapshot, rendered. *)
  | Stats
  | Tracedump  (** Drain the tracer ring. *)

(** The engine's load. *)
type load = {
  swept : int;  (** Events swept. *)
  cells : int;  (** Clock cells written (events x components). *)
  stamped : int;  (** Messages stamped. *)
}

type conn_stat = {
  conn : int;
  events_in : int;
  stamps_out : int;
  dedup_hits : int;
  last_seq : int;
}

type stream_stat = {
  chains : int;
  live : int;
  retired : int;
  width : int;
  exact : bool;
  repairs : int;
}

type stats = {
  backend : string;  (** ["online"] or ["offline-stream"]. *)
  clients : int;
  batches : int;
  messages : int;
  internal : int;
  dedup_hits : int;
  errors : int;
  dropped : int;  (** Resolved-queue overflow drops. *)
  pending : int;  (** Resolved stamps awaiting drain. *)
  p50_ms : float;  (** Stamp-batch latency quantiles. *)
  p90_ms : float;
  p99_ms : float;
  load : load option;  (** [None] on the offline backend. *)
  conns : conn_stat list;
  stream : stream_stat option;  (** Offline-stream watermarks. *)
}

type response =
  | Health_r of {
      ok : bool;
      backend : string;
      processes : int;
      dimension : int;
    }
  | Metrics_r of string  (** Rendered Prometheus text or JSON. *)
  | Stats_r of stats
  | Tracedump_r of { dropped : int; spans : int; jsonl : string }
  | Error_r of string

val encode_request : request -> string
(** Tag + payload; wrap with [Wire.frame] before [Frame.send]. *)

val encode_response : response -> string

(** Total, like the data-plane decoders: they never raise, accept only
    canonical encodings, and bound every string length and list count
    by the bytes left before allocating. *)

val decode_request : string -> (request, string) result
val decode_response : string -> (response, string) result

val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
