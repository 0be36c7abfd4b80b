(** Length-prefixed frame transport over file descriptors.

    On the wire each protocol message is a 4-byte big-endian length
    followed by a versioned {!Synts_clock.Wire.frame} (magic, version,
    checksum, body). The length prefix delimits frames on the stream;
    the checksum frame inside authenticates the bytes; decoding happens
    one layer up ({!Service.handle_raw} / the client). *)

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

(** {1 Incremental decoding} — for a non-blocking select loop. *)

type buffer

val buffer : unit -> buffer

val feed : buffer -> bytes -> int -> unit
(** Append [len] bytes just read from the socket. *)

val next : buffer -> string option
(** Extract the next complete frame, if the buffer holds one. Raises
    [Failure "frame too large"] past {!max_frame}. *)
