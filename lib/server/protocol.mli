(** Binary request/response codec for the [synts serve] wire protocol.

    Messages are byte strings: a one-byte tag followed by LEB128 varints
    and length-prefixed vector payloads, built with the
    {!Synts_clock.Wire} codec vectors use. On the socket every message
    travels inside a {!Synts_clock.Wire.frame} (version byte, checksum)
    under a 4-byte big-endian length prefix (see {!Frame}), so
    corruption is caught by the checksum before decoding and version
    mismatches are rejected with a clear error. The admin plane
    ({!Synts_obs.Admin}) shares that envelope; its tags start at [0x20],
    past this plane's [0]–[9], so each plane refuses the other's bodies
    as unknown tags.

    The stamps of an [Outcomes] or [Resolved] reply are written in
    order, the first as a plain vector and every later one delta-coded
    against the vector written just before it
    ({!Synts_clock.Wire.put_delta_vector}), so a reply's size follows
    how far its stamps lie apart, not how far into the stream they
    lie. These two layouts carry tags 8 and 9; the plain layouts'
    tags 1 and 2 are refused, so a peer built from an older tree fails
    with ["unknown response tag"] instead of reading deltas as counts.

    [Observe] carries a client-chosen sequence number: the server
    answers a replayed (duplicated or retransmitted) sequence from its
    reply cache instead of stamping twice, which is what keeps
    at-least-once delivery exact — see {!Service}. *)

type request =
  | Hello
  | Observe of { seq : int; events : Synts_ingest.Ingest.event array }
  | Drain
  | Finish
  | Verify
  | Stats
  | Churn of string
      (** A rendered {!Synts_graph.Membership.delta}
          ([join:P:U-V,...] / [leave:P] / [add:U-V] / [drop:U-V]) to
          apply to the server's membership; answered with [Epoch_r]. *)
  | Shutdown

type response =
  | Welcome of { processes : int; dimension : int; epoch : int }
  | Outcomes of Synts_ingest.Ingest.outcome array
  | Resolved of
      (Synts_ingest.Ingest.ticket * Synts_core.Internal_events.stamp) list
  | Verified of { ok : bool; checked : int }
  | Stats_r of {
      clients : int;
      batches : int;
      messages : int;
      internal : int;
      dropped : int;  (** Resolved stamps lost to backend queue overflow. *)
      pending : int;  (** Resolved stamps awaiting [Drain] — backpressure. *)
    }
  | Epoch_r of { epoch : int; processes : int; dimension : int }
      (** Reply to [Churn]: the epoch the delta opened and the (possibly
          grown) process count and stamp dimension clients must use from
          now on. *)
  | Error_r of string
  | Bye

val encode_request : request -> string
val encode_response : response -> string

val put_response : Synts_clock.Wire.writer -> response -> unit
(** {!encode_response}, appended to a writer the caller reuses. *)

val put_outcomes_head : Synts_clock.Wire.writer -> int -> unit
(** The head of an [Outcomes] body: tag 8 and the event count. Each
    event follows in order: {!put_stamped} and then its stamp — the
    first of the reply as a plain vector, every later one delta-coded
    against the stamp before it — or {!put_deferred}. {!put_response}
    writes [Outcomes] this way; {!Engine.sweep} writes the same bytes
    while it stamps, its kernel coding each stamp in the pass that
    computes it ({!Synts_clock.Sync_clock.stamp_home}). *)

val put_stamped : Synts_clock.Wire.writer -> unit
(** The kind byte of a stamped event (0); its stamp follows. *)

val put_deferred : Synts_clock.Wire.writer -> int -> unit
(** A deferred internal event: kind byte 1, then its ticket. *)

(** The decoders are total: they never raise, and they accept exactly
    the canonical encodings — [decode s = Ok m] implies [encode m = s].
    Every count and length read from [s] is checked against the bytes
    left before anything is allocated for it. *)

val decode_request : string -> (request, string) result
val decode_response : string -> (response, string) result

val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
