(* The benchmark's side of one data-plane connection.

   Requests are written as one length-prefixed frame per [write]; replies
   are read through a buffer so that one [read] can return several
   pipelined replies. Bytes are counted in both directions, length
   prefixes included. *)

module Wire = Synts_clock.Wire
module Protocol = Synts_server.Protocol

type t = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable pos : int;  (* first unread byte of [buf] *)
  mutable lim : int;  (* end of the bytes read so far *)
  mutable bytes_out : int;
  mutable bytes_in : int;
  mutable reads : int;  (* [read] calls that returned data *)
}

let of_fd fd =
  { fd; buf = Bytes.create 65536; pos = 0; lim = 0; bytes_out = 0; bytes_in = 0;
    reads = 0 }

(* Connect to a Unix socket, retrying while the daemon has not bound it
   yet. Sleeping between attempts leaves the shared CPU to the daemon. *)
let connect ?(pause = 0.0002) ~deadline path =
  let rec attempt () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> of_fd fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
        Unix.close fd;
        Unix.sleepf pause;
        attempt ()
    | exception e ->
        Unix.close fd;
        raise e
  in
  attempt ()

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* The client's encoding of one request: the protocol message inside a
   checksummed wire frame, behind the 4-byte big-endian length. *)
let encode req =
  let frame = Wire.frame (Protocol.encode_request req) in
  let len = String.length frame in
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.blit_string frame 0 b 4 len;
  b

let send t b =
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write t.fd b !off (len - !off)
  done;
  t.bytes_out <- t.bytes_out + len

(* Make [need] unread bytes available, reading as much as the socket
   holds each time. *)
let fill t need =
  if t.lim - t.pos < need then begin
    let have = t.lim - t.pos in
    if need > Bytes.length t.buf then begin
      let grown = Bytes.create (max need (2 * Bytes.length t.buf)) in
      Bytes.blit t.buf t.pos grown 0 have;
      t.buf <- grown
    end
    else Bytes.blit t.buf t.pos t.buf 0 have;
    t.pos <- 0;
    t.lim <- have;
    while t.lim < need do
      let k = Unix.read t.fd t.buf t.lim (Bytes.length t.buf - t.lim) in
      if k = 0 then failwith "daemon closed the connection";
      t.reads <- t.reads + 1;
      t.lim <- t.lim + k
    done
  end

(* The next reply's wire frame (length prefix stripped). *)
let recv t =
  fill t 4;
  let len = Int32.to_int (Bytes.get_int32_be t.buf t.pos) in
  if len < 0 || len > Synts_server.Frame.max_frame then failwith "bad reply length";
  fill t (4 + len);
  let frame = Bytes.sub_string t.buf (t.pos + 4) len in
  t.pos <- t.pos + 4 + len;
  t.bytes_in <- t.bytes_in + 4 + len;
  frame

let decode frame =
  match Wire.unframe frame with
  | Error e -> Protocol.Error_r ("corrupt reply frame: " ^ e)
  | Ok body -> (
      match Protocol.decode_response body with
      | Ok r -> r
      | Error e -> Protocol.Error_r ("bad reply: " ^ e))
