(* ---------- the shared codec: one varint writer, one reader ----------

   Every byte layout in the tree — vectors here, the request/response
   codecs of both [synts serve] planes — is built from these
   primitives. Neither side allocates per value: the writer appends into
   a growable [Bytes] with one capacity check per varint (one per vector
   for [put_vector]), and the reader advances a mutable cursor and
   raises on malformed input, which {!parse} turns into an [Error]. *)

exception Malformed of string

(* The varint reader's failure: a constant raised without a backtrace,
   so the per-component loop carries no error-formatting call. The
   cursor still points at the bad varint, which is what [parse]
   reports. *)
exception Bad_varint

(* A delta-coded component out of range, by index, raised the same way
   with the cursor just past its varint. *)
exception Bad_delta of int

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* A non-negative OCaml int has at most 62 significant bits: 9 groups. *)
let max_varint = 9

let varint_bytes v =
  if v < 0 then invalid_arg "Wire: negative value";
  let n = ref 1 and v = ref (v lsr 7) in
  while !v <> 0 do
    incr n;
    v := !v lsr 7
  done;
  !n

let encoded_bytes v =
  let total = ref (varint_bytes (Array.length v)) in
  for i = 0 to Array.length v - 1 do
    total := !total + varint_bytes (Array.unsafe_get v i)
  done;
  !total

(* LEB128 of a non-negative [v] at [pos], returning the next position.
   Callers guarantee room for [varint_bytes v] bytes. It makes no call,
   so a loop that inlines it keeps its cursor in a register: a call
   anywhere in a loop body, even on a path never taken, makes the
   compiler keep the loop's state on the stack. *)
let[@inline] set_uvarint buf pos v =
  let pos = ref pos and v = ref v in
  while !v >= 0x80 do
    Bytes.unsafe_set buf !pos (Char.unsafe_chr (!v land 0x7f lor 0x80));
    incr pos;
    v := !v lsr 7
  done;
  Bytes.unsafe_set buf !pos (Char.unsafe_chr !v);
  !pos + 1

(* The one varint writer: [set_uvarint] of a value it first checks. A
   value below 0x80 — nearly every delta-coded stamp component — is one
   inlined store; everything else, the negative values it refuses
   included, goes out of line. *)
let set_varint_loop buf pos v =
  if v < 0 then invalid_arg "Wire: negative value";
  set_uvarint buf pos v

let[@inline] set_varint buf pos v =
  if v land lnot 0x7f = 0 then begin
    Bytes.unsafe_set buf pos (Char.unsafe_chr v);
    pos + 1
  end
  else set_varint_loop buf pos v

(* The {!encode} layout of [v]: its length, then its components. *)
let set_vector buf pos v =
  let pos = ref (set_varint buf pos (Array.length v)) in
  for i = 0 to Array.length v - 1 do
    pos := set_varint buf !pos (Array.unsafe_get v i)
  done;
  !pos

type writer = { mutable buf : Bytes.t; mutable len : int }

let writer capacity = { buf = Bytes.create capacity; len = 0 }

let reserve w need =
  if w.len + need > Bytes.length w.buf then begin
    let buf = Bytes.create (max (w.len + need) (2 * Bytes.length w.buf)) in
    Bytes.blit w.buf 0 buf 0 w.len;
    w.buf <- buf
  end

let commit w pos =
  if pos < w.len || pos > Bytes.length w.buf then
    invalid_arg "Wire.commit: position outside the reserved room";
  w.len <- pos

let put_byte w b =
  reserve w 1;
  Bytes.set w.buf w.len (Char.chr b);
  w.len <- w.len + 1

let put_bool w b = put_byte w (if b then 1 else 0)

let put_varint w v =
  if w.len + max_varint > Bytes.length w.buf then reserve w (varint_bytes v);
  w.len <- set_varint w.buf w.len v

let put_vector w v =
  let room = max_varint * (Array.length v + 1) in
  if w.len + room > Bytes.length w.buf then reserve w room;
  w.len <- set_vector w.buf w.len v

(* Delta coding: component [i] travels as the zigzag code of
   [v.(i) - prev.(i)] (0, -1, 1, -2 -> 0, 1, 2, 3), with a shorter [prev]
   read as padded with zeros. Deltas are kept inside ±2^61 so that every
   code is a non-negative int; the reader refuses the one code outside
   that range, so each vector has exactly one encoding. *)
let max_delta = 1 lsl 61

(* Raised in place rather than through [invalid_arg], so the delta
   loops make no call. *)
let delta_out_of_range =
  Invalid_argument "Wire.put_delta_vector: component or delta out of range"

(* One loop over the components [prev] covers, one over the zero-padded
   rest. Zigzag codes of in-range deltas are non-negative, so both
   loops write with [set_uvarint] and make no call. *)
let put_delta_vector w ~prev v =
  let len = Array.length v in
  if w.len + (max_varint * (len + 1)) > Bytes.length w.buf then
    reserve w (max_varint * (len + 1));
  let buf = w.buf in
  let pos = ref (set_varint buf w.len len) in
  let overlap = if len < Array.length prev then len else Array.length prev in
  for i = 0 to overlap - 1 do
    let x = Array.unsafe_get v i in
    let d = x - Array.unsafe_get prev i in
    if x < 0 || d >= max_delta || d <= -max_delta then
      raise_notrace delta_out_of_range;
    pos := set_uvarint buf !pos ((d lsl 1) lxor (d asr (Sys.int_size - 1)))
  done;
  for i = overlap to len - 1 do
    let x = Array.unsafe_get v i in
    if x < 0 || x >= max_delta then raise_notrace delta_out_of_range;
    pos := set_uvarint buf !pos (x lsl 1)
  done;
  w.len <- !pos

let put_string w s =
  let n = String.length s in
  put_varint w n;
  reserve w n;
  Bytes.blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

(* Doubles travel as their IEEE bits, big-endian — 8 bytes, no textual
   round-trip, so they survive the wire bit-exactly. *)
let put_f64 w f =
  reserve w 8;
  Bytes.set_int64_be w.buf w.len (Int64.bits_of_float f);
  w.len <- w.len + 8

let contents w = Bytes.sub_string w.buf 0 w.len
let length w = w.len
let reset w = w.len <- 0
let buffer w = w.buf

let put_contents w src =
  reserve w src.len;
  Bytes.blit src.buf 0 w.buf w.len src.len;
  w.len <- w.len + src.len

type reader = { src : string; mutable pos : int }

let get_byte r =
  if r.pos >= String.length r.src then
    malformed "truncated message at byte %d" r.pos;
  let b = Char.code (String.unsafe_get r.src r.pos) in
  r.pos <- r.pos + 1;
  b

let get_bool r =
  match get_byte r with
  | 0 -> false
  | 1 -> true
  | b -> malformed "bad boolean byte %d at byte %d" b (r.pos - 1)

(* The one varint reader. Truncation, overflow past 62 bits and
   non-canonical (overlong) encodings all fail: only the shortest
   encoding is accepted, so a decoded message re-encodes to exactly the
   bytes it came from. A byte below 0x80 is a whole varint and is read
   inline; any other byte, and the end of input, go to the loop, which
   alone sees continuation bytes and so alone judges canonicality. *)
let get_varint_loop r =
  let s = r.src and start = r.pos in
  let len = String.length s in
  let pos = ref start and shift = ref 0 and acc = ref 0 and b = ref 0x80 in
  while !b >= 0x80 do
    if !pos >= len || !shift > 56 then raise_notrace Bad_varint;
    b := Char.code (String.unsafe_get s !pos);
    incr pos;
    acc := !acc lor ((!b land 0x7f) lsl !shift);
    shift := !shift + 7
  done;
  if !acc < 0 || (!b = 0 && !pos - start > 1) then raise_notrace Bad_varint;
  r.pos <- !pos;
  !acc

let[@inline] get_varint r =
  let pos = r.pos in
  if pos < String.length r.src then begin
    let b = Char.code (String.unsafe_get r.src pos) in
    if b < 0x80 then begin
      r.pos <- pos + 1;
      b
    end
    else get_varint_loop r
  end
  else get_varint_loop r

(* Every counted item takes at least one byte, so a count larger than
   the bytes left is malformed — checked before anything is allocated. *)
let get_count r =
  let n = get_varint r in
  if n > String.length r.src - r.pos then
    malformed "count %d exceeds the %d bytes left" n
      (String.length r.src - r.pos);
  n

let get_string r =
  let n = get_varint r in
  if n > String.length r.src - r.pos then
    malformed "truncated string at byte %d" r.pos;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

(* The vector readers take a run of one-byte varints at a time with a
   local cursor, and then one longer varint (or the end of input)
   through [get_varint_loop], which leaves [r.pos] at the varint when it
   fails. Like [set_uvarint], the run loop makes no call, so it raises
   its one failure in place. *)
let get_vector r =
  let n = get_count r in
  let v = Array.make n 0 and s = r.src in
  let len = String.length s and i = ref 0 in
  while !i < n do
    let pos = ref r.pos in
    while
      !i < n && !pos < len && Char.code (String.unsafe_get s !pos) < 0x80
    do
      Array.unsafe_set v !i (Char.code (String.unsafe_get s !pos));
      incr pos;
      incr i
    done;
    r.pos <- !pos;
    if !i < n then begin
      Array.unsafe_set v !i (get_varint_loop r);
      incr i
    end
  done;
  v

(* [prev]'s overlap is copied first and each delta added in place, so
   the zero padding costs no per-component test. A sum past [max_int]
   wraps negative, and [z = max_int] is the delta -2^61, which no writer
   emits; a one-byte code is never [max_int]. *)
let get_delta_vector r ~prev =
  let n = get_count r and plen = Array.length prev in
  let v =
    if n <= plen then Array.sub prev 0 n
    else Array.append prev (Array.make (n - plen) 0)
  in
  let s = r.src in
  let len = String.length s and i = ref 0 in
  while !i < n do
    let pos = ref r.pos in
    while
      !i < n && !pos < len && Char.code (String.unsafe_get s !pos) < 0x80
    do
      let z = Char.code (String.unsafe_get s !pos) in
      let x = Array.unsafe_get v !i + ((z lsr 1) lxor -(z land 1)) in
      incr pos;
      if x < 0 then begin
        r.pos <- !pos;
        raise_notrace (Bad_delta !i)
      end;
      Array.unsafe_set v !i x;
      incr i
    done;
    r.pos <- !pos;
    if !i < n then begin
      let z = get_varint_loop r in
      let x = Array.unsafe_get v !i + ((z lsr 1) lxor -(z land 1)) in
      if x < 0 || z = max_int then raise_notrace (Bad_delta !i);
      Array.unsafe_set v !i x;
      incr i
    end
  done;
  v

let get_f64 r =
  if 8 > String.length r.src - r.pos then
    malformed "truncated float at byte %d" r.pos;
  let f = Int64.float_of_bits (String.get_int64_be r.src r.pos) in
  r.pos <- r.pos + 8;
  f

let parse s f =
  let r = { src = s; pos = 0 } in
  match f r with
  | x ->
      let left = String.length s - r.pos in
      if left = 0 then Ok x else Error (Printf.sprintf "%d trailing bytes" left)
  | exception Malformed e -> Error e
  | exception Bad_varint ->
      Error (Printf.sprintf "malformed varint at byte %d" r.pos)
  | exception Bad_delta i ->
      Error
        (Printf.sprintf "delta-coded component %d out of range before byte %d"
           i r.pos)

(* ---------- vectors ---------- *)

let encode v =
  let buf = Bytes.create (encoded_bytes v) in
  ignore (set_vector buf 0 v : int);
  Bytes.unsafe_to_string buf

let decode s = parse s get_vector

(* The frame checksum, as [wire.mli] defines it: four independent
   multiply chains over the little-endian words of each 16-byte block,
   so a step consumes 16 bytes where a byte-serial hash consumes one.
   The lanes run in [Int64], untagged in registers: the low 32 bits of
   a sum, xor or product depend only on the low 32 bits of its
   operands, so masking once at the end gives the 32-bit definition.
   One range check at entry guards the unchecked loads. *)
external get_int64u : string -> int -> int64 = "%caml_string_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Eight little-endian bytes: the low half is one lane's word and the
   high half the next lane's. A lane fed the whole value still sees only
   its own word, since its high half never reaches the low 32 bits. *)
let[@inline] words s i =
  let w = get_int64u s i in
  if Sys.big_endian then swap64 w else w

(* [k = 0x9e3779b1] as the signed 32-bit immediate with the same low 32
   bits, the only ones that reach the digest. *)
let[@inline] step h w = Int64.mul (Int64.logxor h w) (-0x61c8864fL)

let fmix32 h =
  let h = h lxor (h lsr 16) in
  let h = (h * 0x85ebca6b) land 0xffffffff in
  let h = h lxor (h lsr 13) in
  let h = (h * 0xc2b2ae35) land 0xffffffff in
  h lxor (h lsr 16)

let checksum_sub s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Wire.checksum_sub: range out of bounds";
  let h0 = ref 0x243f6a88L
  and h1 = ref 0x85a308d3L
  and h2 = ref 0x13198a2eL
  and h3 = ref 0x03707344L in
  let blocks_end = off + (len land lnot 15) in
  let i = ref off in
  while !i < blocks_end do
    let p = !i in
    let a = words s p and b = words s (p + 8) in
    h0 := step !h0 a;
    h1 := step !h1 (Int64.shift_right_logical a 32);
    h2 := step !h2 b;
    h3 := step !h3 (Int64.shift_right_logical b 32);
    i := p + 16
  done;
  let h = ref (step (step (step !h0 !h1) !h2) !h3) in
  for j = blocks_end to off + len - 1 do
    h := step !h (Int64.of_int (Char.code (String.unsafe_get s j)))
  done;
  fmix32 (Int64.to_int (step !h (Int64.of_int len)) land 0xffffffff)

let checksum s = checksum_sub s 0 (String.length s)

(* ---------- checksum framing ----------

   A frame is a version byte, the varint checksum of the body, then the
   body. The version byte turns a peer speaking another revision away
   with a clear error instead of a baffling checksum failure. This build
   reads and writes version 3 only; 0 and 1 named earlier layouts, and
   2 this one with an FNV-1a checksum. *)

let current_version = 3

(* The frame header of a body with checksum [digest], written at [pos];
   returns the position of the body. *)
let set_header buf pos digest =
  Bytes.unsafe_set buf pos (Char.unsafe_chr current_version);
  set_varint buf (pos + 1) digest

let frame body =
  let digest = checksum body and len = String.length body in
  let out = Bytes.create (1 + varint_bytes digest + len) in
  Bytes.blit_string body 0 out (set_header out 0 digest) len;
  Bytes.unsafe_to_string out

(* [frame (contents body)] appended to [w], with no intermediate
   string: the checksum is taken over [body]'s bytes in place. *)
let put_frame w body =
  let digest = checksum_sub (Bytes.unsafe_to_string body.buf) 0 body.len in
  reserve w (1 + max_varint + body.len);
  let pos = set_header w.buf w.len digest in
  Bytes.blit body.buf 0 w.buf pos body.len;
  w.len <- pos + body.len

(* The checksum varint after the version byte is verified against the
   rest of [s] in place; only a matching body is copied out. *)
let unframe s =
  if s = "" then Error "empty frame"
  else if Char.code s.[0] <> current_version then
    Error
      (Printf.sprintf "unsupported wire version %d (this build speaks %d)"
         (Char.code s.[0]) current_version)
  else
    let r = { src = s; pos = 1 } in
    match get_varint r with
    | exception Bad_varint -> Error "truncated checksum frame"
    | expected ->
        let len = String.length s - r.pos in
        if checksum_sub s r.pos len <> expected then Error "checksum mismatch"
        else Ok (String.sub s r.pos len)

let encode_framed v = frame (encode v)
let decode_framed s = Result.bind (unframe s) decode

(* ---------- epoch-tagged vectors ----------

   Under churn a vector is only meaningful relative to the epoch whose
   slot layout it uses, so the wire shape is [varint epoch · encode v].
   A receiver on a newer epoch decodes the old frame and translates it
   through the membership remap chain instead of rejecting it — stale
   frames degrade to one table lookup, not a connection error. *)

let encode_epoch ~epoch v =
  if epoch < 0 then invalid_arg "Wire.encode_epoch: negative epoch";
  let buf = Bytes.create (varint_bytes epoch + encoded_bytes v) in
  ignore (set_vector buf (set_varint buf 0 epoch) v : int);
  Bytes.unsafe_to_string buf

let decode_epoch s =
  parse s (fun r ->
      let epoch = get_varint r in
      (epoch, get_vector r))

let encode_epoch_framed ~epoch v = frame (encode_epoch ~epoch v)
let decode_epoch_framed s = Result.bind (unframe s) decode_epoch

let encode_diff ~prev v =
  if Array.length prev <> Array.length v then
    invalid_arg "Wire.encode_diff: size mismatch";
  let changed = ref 0 in
  for i = 0 to Array.length v - 1 do
    if v.(i) <> prev.(i) then incr changed
  done;
  let w = writer (max_varint * ((2 * !changed) + 1)) in
  put_varint w !changed;
  for i = 0 to Array.length v - 1 do
    if v.(i) <> prev.(i) then begin
      put_varint w i;
      put_varint w v.(i)
    end
  done;
  contents w

(* Indices must be strictly increasing, as [encode_diff] emits them. An
   entry equal to [prev] is accepted: the receiver's previous vector need
   not be the one the sender diffed against. *)
let decode_diff ~prev s =
  parse s (fun r ->
      let count = get_count r in
      let v = Array.copy prev in
      let last = ref (-1) in
      for _ = 1 to count do
        let i = get_varint r in
        if i <= !last || i >= Array.length v then
          malformed "diff index %d out of order or range" i;
        v.(i) <- get_varint r;
        last := i
      done;
      v)
