(** The admin-channel protocol: a second, versioned frame family.

    [synts serve] can listen on a second socket reserved for
    introspection. Admin messages reuse the exact transport stack of the
    data plane — {!Synts_server.Frame} length prefixes around
    {!Synts_clock.Wire.frame} checksum frames — but the checksummed body
    opens with its {e own} family header: {!family_magic} ([0xAD]) then a
    family version byte, then a tag. A data-plane client that connects to
    the admin port (or vice versa) is therefore rejected with a
    descriptive decode error, not a misparse, and the admin protocol can
    rev independently of the stamping protocol.

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

(** The engine's load. The daemon stamps on one domain and reports one
    row, shard 0; the list shape is kept so the frame layout does not
    change. *)
type shard_stat = {
  shard : int;
  s_events : int;  (** Events swept. *)
  s_cells : int;  (** Clock cells written (events x components). *)
  s_messages : int;  (** Messages stamped. *)
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
  shards : shard_stat list;
  conns : conn_stat list;
  stream : stream_stat option;  (** Offline-stream watermarks. *)
}

type response =
  | Health_r of {
      ok : bool;
      backend : string;
      processes : int;
      dimension : int;
      shards : int;  (** Always 1; kept so the frame layout does not change. *)
    }
  | Metrics_r of string  (** Rendered Prometheus text or JSON. *)
  | Stats_r of stats
  | Tracedump_r of { dropped : int; spans : int; jsonl : string }
  | Error_r of string

val family_magic : char
(** First body byte of every admin message ([0xAD]). *)

val current_version : int
(** The admin family version this build speaks (1). *)

val encode_request : request -> string
(** Family header + tag + payload; wrap with [Wire.frame] before
    [Frame.send]. *)

val encode_response : response -> string

(** Total, like the data-plane decoders: they never raise, accept only
    canonical encodings, and bound every string length and list count
    by the bytes left before allocating. *)

val decode_request : string -> (request, string) result
val decode_response : string -> (response, string) result

val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
