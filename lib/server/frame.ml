module Wire = Synts_clock.Wire

let max_frame = 16 * 1024 * 1024

let put_len b off len =
  Bytes.set b off (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (len land 0xff))

let get_len b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let write_all fd b len =
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

let send fd s =
  let len = String.length s in
  if len > max_frame then failwith "frame too large";
  let b = Bytes.create (4 + len) in
  put_len b 0 len;
  Bytes.blit_string s 0 b 4 len;
  write_all fd b (4 + len)

let put out frame =
  let len = Wire.length frame in
  if len > max_frame then failwith "frame too large";
  Wire.put_byte out ((len lsr 24) land 0xff);
  Wire.put_byte out ((len lsr 16) land 0xff);
  Wire.put_byte out ((len lsr 8) land 0xff);
  Wire.put_byte out (len land 0xff);
  Wire.put_contents out frame

let flush fd out =
  write_all fd (Wire.buffer out) (Wire.length out);
  Wire.reset out

(* Read exactly [len] bytes; [`Eof] only when the stream closes cleanly
   before the first byte. *)
let read_exact fd len ~allow_eof =
  let b = Bytes.create len in
  let off = ref 0 in
  let eof = ref false in
  while !off < len && not !eof do
    let k = Unix.read fd b !off (len - !off) in
    if k = 0 then
      if !off = 0 && allow_eof then eof := true
      else failwith "connection closed mid-frame"
    else off := !off + k
  done;
  if !eof then `Eof else `Bytes b

let recv fd =
  match read_exact fd 4 ~allow_eof:true with
  | `Eof -> `Eof
  | `Bytes hdr -> (
      let len = get_len hdr 0 in
      if len > max_frame then failwith "frame too large";
      match read_exact fd len ~allow_eof:false with
      | `Eof -> assert false
      | `Bytes body -> `Frame (Bytes.unsafe_to_string body))

let call fd ~encode ~decode req =
  send fd (Wire.frame (encode req));
  match recv fd with
  | `Eof -> failwith "peer closed the connection"
  | `Frame reply -> (
      match Wire.unframe reply with
      | Error e -> failwith ("corrupt reply frame: " ^ e)
      | Ok body -> (
          match decode body with
          | Error e -> failwith ("bad reply: " ^ e)
          | Ok resp -> resp))

(* Reassembly buffer: live bytes are [data.[rd .. wr)]. Frames are cut
   straight out of it; the live tail is moved to the front only when a
   feed would not fit behind it, so draining k frames from one read
   copies each byte once, not the whole buffer per frame. *)
type buffer = { mutable data : Bytes.t; mutable rd : int; mutable wr : int }

let buffer () = { data = Bytes.create 4096; rd = 0; wr = 0 }

let feed buf b len =
  if buf.wr + len > Bytes.length buf.data then begin
    let live = buf.wr - buf.rd in
    let data =
      if live + len <= Bytes.length buf.data then buf.data
      else Bytes.create (max (live + len) (2 * Bytes.length buf.data))
    in
    Bytes.blit buf.data buf.rd data 0 live;
    buf.data <- data;
    buf.rd <- 0;
    buf.wr <- live
  end;
  Bytes.blit b 0 buf.data buf.wr len;
  buf.wr <- buf.wr + len

let next buf =
  let have = buf.wr - buf.rd in
  if have < 4 then None
  else begin
    let len = get_len buf.data buf.rd in
    if len > max_frame then failwith "frame too large";
    if have < 4 + len then None
    else begin
      let frame = Bytes.sub_string buf.data (buf.rd + 4) len in
      buf.rd <- buf.rd + 4 + len;
      if buf.rd = buf.wr then begin
        buf.rd <- 0;
        buf.wr <- 0
      end;
      Some frame
    end
  end
