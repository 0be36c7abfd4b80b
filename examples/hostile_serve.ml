(* Serve beside a hostile client: malformed frames are answered with
   errors and never take the daemon down.

   An in-process `synts serve` daemon (started with --check) takes two
   connections on a unix socket. The hostile one sends frames the
   protocol must refuse: the two that once killed the daemon (an Observe
   announcing 2^60 events, a Churn string claiming max_int bytes),
   requests that decode but name processes or sequence numbers the
   daemon must reject, and seeded random junk — raw bytes that fail the
   checksum, and checksummed bodies, random or one byte off a valid
   request, that reach the decoder. Each must be answered with Error_r.
   Last it announces a frame larger than the transport allows, after
   which the daemon must drop the desynchronised stream. The clean
   connection then runs a seeded session and the daemon's --check
   replay must confirm every stamp.

   Exits non-zero unless every hostile frame got an Error_r (or, for the
   oversized length prefix, a close), the daemon is still serving, and
   the clean session verifies — this is a @serve-smoke CI leg. *)

module Graph = Synts_graph.Graph
module Decomposition = Synts_graph.Decomposition
module Topology = Synts_graph.Topology
module Rng = Synts_util.Rng
module Wire = Synts_clock.Wire
module Ingest = Synts_ingest.Ingest
module Frame = Synts_server.Frame
module Protocol = Synts_server.Protocol
module Server = Synts_server.Server
module Client = Synts_server.Client

let fail fmt = Format.kasprintf failwith fmt
let path = "hostile-smoke.sock"

let varint v =
  let w = Wire.writer 9 in
  Wire.put_varint w v;
  Wire.contents w

let random_bytes rng =
  String.init (Rng.int rng 48) (fun _ -> Char.chr (Rng.int rng 256))

(* A request body the decoder must refuse: random bytes, or a valid
   Observe with one byte replaced, kept only when it does not decode. *)
let rec junk_body rng =
  let body =
    if Rng.bool rng then random_bytes rng
    else begin
      let events =
        Array.init (1 + Rng.int rng 4) (fun _ ->
            Ingest.Message { src = Rng.int rng 6; dst = Rng.int rng 6 })
      in
      let b =
        Bytes.of_string
          (Protocol.encode_request (Protocol.Observe { seq = 0; events }))
      in
      Bytes.set b (Rng.int rng (Bytes.length b)) (Char.chr (Rng.int rng 256));
      Bytes.to_string b
    end
  in
  match Protocol.decode_request body with
  | Error _ -> body
  | Ok _ -> junk_body rng

let hostile_frames rng =
  let framed body = Wire.frame body in
  [
    ( "observe announcing 2^60 events",
      framed ("\x01" ^ varint 0 ^ varint (1 lsl 60) ^ "\x01\x00") );
    ( "churn claiming max_int bytes",
      framed ("\x07" ^ varint max_int ^ "join:6") );
    ( "join of process 10^12",
      framed
        (Protocol.encode_request
           (Protocol.Churn "join:1000000000000:1000000000000-0")) );
    ( "out-of-range process",
      framed
        (Protocol.encode_request
           (Protocol.Observe
              {
                seq = 0;
                events = [| Ingest.Message { src = 0; dst = 1000 } |];
              })) );
    ( "sequence gap",
      framed
        (Protocol.encode_request
           (Protocol.Observe
              { seq = 7; events = [| Ingest.Internal { proc = 0 } |] })) );
    ( "bad churn delta",
      framed (Protocol.encode_request (Protocol.Churn "join:x")) );
  ]
  @ List.init 200 (fun i ->
        if i mod 2 = 0 then (Printf.sprintf "raw junk #%d" i, random_bytes rng)
        else (Printf.sprintf "checksummed junk #%d" i, framed (junk_body rng)))

(* A daemon that died on a frame never answers: time out rather than
   wait forever. *)
let recv fd name =
  match Frame.recv fd with
  | reply -> reply
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      fail "%s: no reply within 10 s (daemon down?)" name

let hostile_session rng =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  let frames = hostile_frames rng in
  List.iter
    (fun (name, frame) ->
      Frame.send fd frame;
      match recv fd name with
      | `Eof -> fail "%s: daemon closed the connection" name
      | `Frame reply -> (
          match Result.bind (Wire.unframe reply) Protocol.decode_response with
          | Ok (Protocol.Error_r _) -> ()
          | Ok r -> fail "%s answered %a" name Protocol.pp_response r
          | Error e -> fail "%s: unreadable reply (%s)" name e))
    frames;
  (* A length prefix past the transport's cap desynchronises the stream:
     the daemon must close this connection, and only this one. *)
  let prefix = Bytes.make 4 '\xff' in
  ignore (Unix.write fd prefix 0 4 : int);
  (match recv fd "oversized length prefix" with
  | `Eof -> ()
  | `Frame _ -> fail "oversized frame answered instead of closing"
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ());
  Unix.close fd;
  List.length frames

let clean_session rng g c =
  let edges = Array.of_list (Graph.edges g) in
  let sent = ref 0 in
  for _ = 1 to 40 do
    let events =
      Array.init 8 (fun _ ->
          if Rng.chance rng 0.1 then
            Ingest.Internal { proc = Rng.int rng (Graph.n g) }
          else begin
            incr sent;
            let u, v = Rng.pick_array rng edges in
            if Rng.bool rng then Ingest.Message { src = u; dst = v }
            else Ingest.Message { src = v; dst = u }
          end)
    in
    ignore (Client.observe_batch c events : Ingest.outcome array)
  done;
  ignore (Client.finish c);
  !sent

let () =
  let rng = Rng.create 2002 in
  let g = Topology.ring 6 in
  let addr = Server.Unix_socket path in
  let h = Server.spawn ~shards:2 ~check:true addr (Decomposition.best g) in
  let clean = Client.connect addr in
  let hostile = hostile_session rng in
  let sent = clean_session rng g clean in
  (match Client.server_stats clean with
  | Ok s when s.Client.clients = 1 -> ()
  | Ok s ->
      fail "%d clients attached after the hostile one left" s.Client.clients
  | Error e -> fail "stats: %s" e);
  (match Client.verify_server clean with
  | Ok (true, checked) when checked = sent ->
      Format.printf
        "hostile-smoke: %d hostile frames refused, oversized stream closed, \
         %d clean messages verified@."
        hostile checked
  | Ok (true, checked) -> fail "replay checked %d of %d" checked sent
  | Ok (false, _) -> fail "replay found a mismatch"
  | Error e -> fail "verify: %s" e);
  Client.shutdown clean;
  Server.join h
