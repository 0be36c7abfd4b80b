(** Length-prefixed frame transport over file descriptors.

    On the wire each message of either plane is a 4-byte big-endian
    length followed by a {!Synts_clock.Wire.frame} (version byte,
    checksum, body). The length prefix delimits frames on the stream;
    the checksum frame inside authenticates the bytes; decoding happens
    one layer up ({!Service.handle_raw}, {!Admin_service.handle_raw},
    {!call}). *)

val max_frame : int
(** Upper bound on an accepted frame (16 MiB) — a sanity check against
    desynchronised or hostile streams. *)

val send : Unix.file_descr -> string -> unit
(** Write one already-framed message (length prefix added here). *)

val put : Synts_clock.Wire.writer -> Synts_clock.Wire.writer -> unit
(** [put out frame] appends the length prefix and the bytes of [frame]
    to [out], as {!send} would write them: how a read's replies gather
    in one buffer before one {!flush}. Raises [Failure] past
    {!max_frame}. *)

val flush : Unix.file_descr -> Synts_clock.Wire.writer -> unit
(** Write every byte of the buffer, then empty it. *)

val recv : Unix.file_descr -> [ `Frame of string | `Eof ]
(** Read one framed message (checksum frame included, not yet
    validated). [`Eof] on orderly close before a length prefix; raises
    [Failure] on truncation mid-frame or an oversized length. *)

val call :
  Unix.file_descr ->
  encode:('req -> string) ->
  decode:(string -> ('resp, string) result) ->
  'req ->
  'resp
(** One blocking round trip of a client of either plane: the encoded
    request in a checksum frame, then the reply read, unframed and
    decoded. Raises [Failure] when the peer closes the connection first
    or the reply is corrupt or undecodable, and [Unix.Unix_error] on
    transport errors. *)

(** {1 Incremental decoding} — for a non-blocking select loop. *)

type buffer

val buffer : unit -> buffer

val feed : buffer -> bytes -> int -> unit
(** Append [len] bytes just read from the socket. *)

val next : buffer -> string option
(** Extract the next complete frame, if the buffer holds one. Raises
    [Failure "frame too large"] past {!max_frame}. *)
