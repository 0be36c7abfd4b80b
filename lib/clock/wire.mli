(** Wire encoding of timestamp vectors.

    Makes the piggyback-cost comparisons concrete at the byte level:
    vectors are LEB128-varint encoded with a length prefix, so a fresh
    clock costs one byte per component and mature clocks grow
    logarithmically with their counters. {!encode_diff} is the
    Singhal–Kshemkalyani transmission: only [(index, value)] pairs that
    changed since the peer last saw the vector. *)

(** {1 The shared codec}

    One varint writer and one varint reader, shared by every byte layout
    in the tree: vectors here and the message codecs of both
    [synts serve] planes. Integers are LEB128 varints
    (non-negative; writers raise [Invalid_argument] otherwise), strings
    are length-prefixed, booleans are one [0]/[1] byte and doubles are
    their IEEE bits in 8 big-endian bytes. Neither side allocates per
    value. *)

val malformed : ('a, unit, string, 'b) format4 -> 'a
(** [malformed fmt ...] rejects the message being parsed with a
    formatted reason — how message codecs refuse an unknown tag. It
    raises an exception private to this module, which {!parse} turns
    into an [Error]. *)

val varint_bytes : int -> int
(** Encoded size of one varint, without building it. *)

type writer
(** An append-only byte buffer that grows as needed. *)

val writer : int -> writer
(** [writer capacity] starts empty with room for [capacity] bytes. *)

val put_byte : writer -> int -> unit
val put_bool : writer -> bool -> unit
val put_varint : writer -> int -> unit

val put_vector : writer -> Vector.t -> unit
(** The {!encode} layout: component count, then the components. *)

val put_delta_vector : writer -> prev:Vector.t -> Vector.t -> unit
(** [v] coded against the vector [prev] written before it: the component
    count, then each component's delta [v.(i) - prev.(i)] as a zigzag
    varint (0, -1, 1, -2 become 0, 1, 2, 3), a shorter [prev] read as
    padded with zeros. Neighbouring stamps of one reply differ by far
    less than their values, so most deltas take one byte. Raises
    [Invalid_argument] on a negative component or a delta of magnitude
    2^61 or more; components are message counts. The stamping kernel
    writes the same bytes while it stamps
    ({!Sync_clock.stamp_home}). *)

val put_string : writer -> string -> unit
(** Varint length, then the bytes. *)

val put_f64 : writer -> float -> unit

val contents : writer -> string
(** A copy of the bytes written so far. *)

val length : writer -> int
(** Bytes written so far. *)

val reset : writer -> unit
(** Forget the bytes written, keeping the capacity, so one writer can
    serve message after message. *)

val buffer : writer -> bytes
(** The backing store: its first {!length} bytes are the contents. Valid
    until the next write. Callers read it, or write past {!length} into
    room they {!reserve}d and then {!commit}. *)

val max_varint : int
(** The most bytes one varint takes (9). *)

val reserve : writer -> int -> unit
(** [reserve w n] makes room for [n] more bytes: {!buffer} then holds at
    least [length w + n] bytes. *)

val commit : writer -> int -> unit
(** [commit w pos] takes the bytes of {!buffer} below [pos] as written,
    for a loop that writes varints straight into the buffer — the
    stamping kernel's, {!Sync_clock.stamp_home}. [pos] must lie between
    {!length} and the end of the buffer. *)

val max_delta : int
(** 2^61: a delta-coded component must lie strictly between [-max_delta]
    and [max_delta] ({!put_delta_vector}). *)

val put_contents : writer -> writer -> unit
(** [put_contents w src] appends the bytes of [src]. *)

type reader
(** A cursor over one message. *)

val get_byte : reader -> int
val get_bool : reader -> bool

(** Readers advance the cursor and fail, like {!malformed}, on
    truncated or malformed input: call them only inside {!parse}. *)

val get_varint : reader -> int
(** Only the canonical (shortest) encoding is accepted; truncation,
    overflow past 62 bits and overlong encodings fail. A value below
    0x80 is read without entering the general loop. *)

val get_count : reader -> int
(** A varint that counts the items that follow, each at least one byte
    long: one larger than the bytes left fails, so a decoder can
    allocate for it safely. *)

val get_vector : reader -> Vector.t
val get_delta_vector : reader -> prev:Vector.t -> Vector.t
(** Inverse of {!put_delta_vector} against the same [prev]. A
    reconstructed component that is negative or overflows, or a delta
    outside the writer's range, fails, so only the canonical encoding
    is accepted. *)

val get_string : reader -> string
val get_f64 : reader -> float

val parse : string -> (reader -> 'a) -> ('a, string) result
(** [parse s f] runs [f] over the whole of [s]: [Error] when a reader
    or {!malformed} fails, or bytes are left over. Never raises
    otherwise, as long as [f] raises nothing else. *)

val encode : Vector.t -> string
(** Length-prefixed varint encoding. *)

val decode : string -> (Vector.t, string) result
(** Inverse of {!encode}; descriptive errors on truncated, trailing or
    non-canonical input. *)

val encoded_bytes : Vector.t -> int
(** [String.length (encode v)] without building the string. *)

val checksum : string -> int
(** The 32-bit frame checksum of a byte string, defined over its [n]
    bytes with [k = 0x9e3779b1] and [step h w = (h lxor w) * k mod 2^32]
    (a bijection in [h] and in [w], since [k] is odd):
    - four lanes start at [0x243f6a88], [0x85a308d3], [0x13198a2e] and
      [0x03707344];
    - each whole 16-byte block, read as four little-endian 32-bit words
      [w0..w3], steps lane [j] with [wj];
    - [h = step (step (step lane0 lane1) lane2) lane3];
    - each of the [n mod 16] bytes after the last block steps [h] with
      its value, then the length steps it with [n mod 2^32];
    - the digest is murmur3's [fmix32 h]: [h lxor (h lsr 16)], times
      [0x85ebca6b], [lxor] its [lsr 13], times [0xc2b2ae35], [lxor] its
      [lsr 16], each product mod 2^32.

    Every stage is a bijection in the state it is given, so two strings
    of one length that differ only inside one 4-byte word of one block,
    or only in one byte after the last block, have different digests:
    every single-byte and single-bit change is detected. The lanes are
    independent, so the hash consumes 16 bytes a step. *)

(** {1 Checksum framing}

    A frame is [version byte · varint checksum · body]: the
    {!current_version} byte, then the {!checksum} of the body as a
    varint, then the body. Both serve planes and the simulator's
    checksummed vectors use this one layout. A frame announcing any
    other version is rejected with a descriptive
    ["unsupported wire version N"] error — how [synts serve] turns away
    mismatched clients, version-2 peers (the same layout with an
    FNV-1a checksum) among them — rather than a misleading checksum
    failure. *)

val current_version : int
(** The version byte of every frame (3). *)

val frame : string -> string
(** Wrap an arbitrary body in a checksum frame. *)

val put_frame : writer -> writer -> unit
(** [put_frame w body] appends [frame (contents body)] to [w], byte for
    byte, without building either string. [w] and [body] must be
    distinct writers. *)

val unframe : string -> (string, string) result
(** Validate and strip a frame, returning the body. Total and
    canonical: [unframe s = Ok body] implies [frame body = s]. Errors:
    ["checksum mismatch"] (bit-flip corruption),
    ["unsupported wire version N (this build speaks 3)"],
    ["truncated checksum frame"], ["empty frame"]. *)

val encode_framed : Vector.t -> string
(** [frame (encode v)] — a vector in a checksum frame. *)

val decode_framed : string -> (Vector.t, string) result
(** Inverse of {!encode_framed}; [Error "checksum mismatch"] when the
    body does not hash to the stored digest (bit-flip corruption),
    other errors as {!decode} or {!unframe}. *)

(** {1 Epoch-tagged vectors}

    Under churn ({!Synts_graph.Membership}) a stamp is only meaningful
    together with the epoch whose slot layout it uses; these frames
    carry [varint epoch] before the vector so a receiver on a newer
    epoch can decode a stale frame and translate it through the remap
    chain instead of rejecting it. *)

val encode_epoch : epoch:int -> Vector.t -> string
(** [varint epoch · encode v]. Raises [Invalid_argument] when [epoch]
    is negative. *)

val decode_epoch : string -> (int * Vector.t, string) result
(** Inverse of {!encode_epoch}. *)

val encode_epoch_framed : epoch:int -> Vector.t -> string
(** {!encode_epoch} inside a checksum frame (see {!frame}). *)

val decode_epoch_framed : string -> (int * Vector.t, string) result

val encode_diff : prev:Vector.t -> Vector.t -> string
(** Sparse encoding of the entries where [v] differs from [prev] (count,
    then (index, value) varint pairs). Sizes must match. *)

val decode_diff : prev:Vector.t -> string -> (Vector.t, string) result
(** Apply a sparse diff to the previously known vector (fresh copy).
    Indices must be in range and strictly increasing, as {!encode_diff}
    emits them. *)
