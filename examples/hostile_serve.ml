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
   which the daemon must drop the desynchronised stream.

   The daemon also listens on an admin socket, and both planes get the
   same kinds of frame: a valid body of their own in each of the two
   earlier envelopes ([d7 01] where the version byte now stands, and
   version 2, this envelope with an FNV-1a checksum), each to be refused
   as an unsupported wire version; a well-formed frame of the other
   plane; and 50 seeded junk frames. Each must be answered with an
   Error_r of the plane that received it. The clean connection then
   runs a seeded session, the daemon's --check replay must confirm
   every stamp, and the admin plane must still answer health.

   It then runs two `synts serve` child processes (the binary is the one
   argument), each with its own fd table, against clients that only
   connect. One faces 1,090 idle connections, more than select's
   FD_SETSIZE of 1024 allows; the other runs under `ulimit -n 24`, so
   its accepts run out of fds. In both, a clean client that connected
   first must still be served and verified while the idle connections
   stay open, the daemon must not spin on its listener, and it must shut
   down cleanly. The flood holds over a thousand sockets in this process
   and the daemon, so run it with a soft fd limit of a few thousand
   (`ulimit -n 4096`), as the @serve-smoke rule does.

   Exits non-zero unless every hostile frame got an Error_r of its
   plane (or, for the oversized length prefix, a close), the daemon is
   still serving on both planes, and the clean sessions verify — this is
   a @serve-smoke CI leg. *)

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
module Admin = Synts_obs.Admin
module Admin_client = Synts_server.Admin_client

let fail fmt = Format.kasprintf failwith fmt
let path = "hostile-smoke.sock"
let admin_path = "hostile-admin.sock"

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

(* An admin request body the admin decoder must refuse, made as
   [junk_body] makes a data-plane one. *)
let rec admin_junk_body rng =
  let body =
    if Rng.bool rng then random_bytes rng
    else begin
      let b =
        Bytes.of_string
          (Admin.encode_request
             (Rng.pick_array rng
                [| Admin.Health; Admin.Metrics Admin.Json; Admin.Stats |]))
      in
      Bytes.set b (Rng.int rng (Bytes.length b)) (Char.chr (Rng.int rng 256));
      Bytes.to_string b
    end
  in
  match Admin.decode_request body with
  | Error _ -> body
  | Ok _ -> admin_junk_body rng

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

let contains ~sub s =
  let n = String.length sub in
  let rec from i =
    i + n <= String.length s && (String.sub s i n = sub || from (i + 1))
  in
  from 0

(* Send each frame on [fd] and hand its reply's body to [refused],
   which fails unless it is an Error_r of the receiving plane and
   returns its text; with [why], that text must name it. *)
let expect_refusals ?why fd frames refused =
  List.iter
    (fun (name, frame) ->
      Frame.send fd frame;
      match recv fd name with
      | `Eof -> fail "%s: daemon closed the connection" name
      | `Frame reply -> (
          match Wire.unframe reply with
          | Ok body -> (
              let e = refused name body in
              match why with
              | Some sub when not (contains ~sub e) ->
                  fail "%s: refused with %S, not for %S" name e sub
              | _ -> ())
          | Error e -> fail "%s: unreadable reply (%s)" name e))
    frames

let data_refused name body =
  match Protocol.decode_response body with
  | Ok (Protocol.Error_r e) -> e
  | Ok r -> fail "%s answered %a" name Protocol.pp_response r
  | Error e -> fail "%s: unreadable reply (%s)" name e

let admin_refused name body =
  match Admin.decode_response body with
  | Ok (Admin.Error_r e) -> e
  | Ok r -> fail "%s answered %a" name Admin.pp_response r
  | Error e -> fail "%s: unreadable admin reply (%s)" name e

let connect_raw sock =
  let fd = Server.connect (Server.Unix_socket sock) in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  fd

let hostile_session rng =
  let fd = connect_raw path in
  let frames = hostile_frames rng in
  expect_refusals fd frames data_refused;
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

(* [body] in the envelopes of earlier releases, both with the body's
   varint FNV-1a checksum: [d7 01] where the version byte now stands,
   and version 2. *)
let earlier_envelopes body =
  let fnv1a =
    String.fold_left
      (fun h c -> (h lxor Char.code c) * 0x01000193 land 0xffffffff)
      0x811c9dc5
  in
  let digest = varint (fnv1a body) in
  [
    ("frame in the d7 01 layout", "\xd7\x01" ^ digest ^ body);
    ("version-2 frame", "\x02" ^ digest ^ body);
  ]

(* The other frames both planes must refuse, built from a valid body of
   the other plane ([other]) and the receiving plane's junk. *)
let plane_frames rng ~other ~junk =
  ("frame of the other plane", Wire.frame other)
  :: List.init 50 (fun i ->
         if i mod 2 = 0 then (Printf.sprintf "raw junk #%d" i, random_bytes rng)
         else (Printf.sprintf "checksummed junk #%d" i, Wire.frame (junk rng)))

let plane_session rng =
  let hello = Protocol.encode_request Protocol.Hello in
  let health = Admin.encode_request Admin.Health in
  let legs =
    [
      ( path,
        earlier_envelopes hello,
        plane_frames rng ~other:health ~junk:junk_body,
        data_refused );
      ( admin_path,
        earlier_envelopes health,
        plane_frames rng ~other:hello ~junk:admin_junk_body,
        admin_refused );
    ]
  in
  List.fold_left
    (fun total (sock, earlier, frames, refused) ->
      let fd = connect_raw sock in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          expect_refusals ~why:"unsupported wire version" fd earlier refused;
          expect_refusals fd frames refused);
      total + List.length earlier + List.length frames)
    0 legs

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

let verify name c sent =
  match Client.verify_server c with
  | Ok (true, checked) when checked = sent -> ()
  | Ok (true, checked) -> fail "%s: replay checked %d of %d" name checked sent
  | Ok (false, _) -> fail "%s: replay found a mismatch" name
  | Error e -> fail "%s: verify: %s" name e

(* On-CPU seconds of a process from /proc; [None] off Linux. After the
   parenthesised command name, utime and stime are the 12th and 13th
   fields, in clock ticks of 1/100 s. *)
let cpu_seconds pid =
  match
    In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid)
      In_channel.input_all
  with
  | exception Sys_error _ -> None
  | stat ->
      let from = String.rindex stat ')' + 2 in
      let fields =
        Array.of_list
          (String.split_on_char ' '
             (String.sub stat from (String.length stat - from)))
      in
      Some
        ((float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.)

(* `synts serve` as a child process, optionally under an fd limit. *)
let spawn_daemon synts ?ulimit sock =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let cmd =
    Printf.sprintf "%sexec %s serve ring:6 --seed 1 --listen %s --check"
      (match ulimit with
      | Some k -> Printf.sprintf "ulimit -n %d && " k
      | None -> "")
      (Filename.quote synts) (Filename.quote sock)
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process "/bin/sh" [| "/bin/sh"; "-c"; cmd |] null null null
  in
  Unix.close null;
  let rec wait tries =
    match Client.connect (Server.Unix_socket sock) with
    | c -> c
    | exception (Unix.Unix_error _ | Failure _) when tries > 0 ->
        Unix.sleepf 0.02;
        wait (tries - 1)
  in
  (pid, wait 250)

(* An idle client: connects, never sends. A daemon that does not take
   the connection within 10 s fails the case. *)
let idle_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.;
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      fail "idle connection to %s: %s" sock (Unix.error_message e)

let fd_case synts ?ulimit name ~idle rng g =
  let sock = name ^ ".sock" in
  let pid, clean = spawn_daemon synts ?ulimit sock in
  let flood = ref [] in
  (* A failed case must not leave its daemon running. *)
  let sent =
    try
      for _ = 1 to idle do
        match idle_connect sock with
        | fd -> flood := fd :: !flood
        | exception Unix.Unix_error (Unix.EMFILE, _, _) ->
            fail "%s: this process ran out of fds itself; raise ulimit -n"
              name
      done;
      let before = cpu_seconds pid in
      Unix.sleepf 0.5;
      (match (before, cpu_seconds pid) with
      | Some a, Some b when b -. a > 0.25 ->
          fail "%s: the daemon burned %.2f s of CPU in 0.5 s idle" name
            (b -. a)
      | _ -> ());
      let sent = clean_session rng g clean in
      verify name clean sent;
      Client.shutdown clean;
      sent
    with e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      raise e
  in
  List.iter Unix.close !flood;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED k -> fail "%s: daemon exited with %d" name k
  | _, (Unix.WSIGNALED k | Unix.WSTOPPED k) ->
      fail "%s: daemon killed by signal %d" name k);
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  Format.printf "%s: %d idle connections held, %d clean messages verified@."
    name (List.length !flood) sent

let () =
  let synts =
    match Sys.argv with
    | [| _; synts |] -> synts
    | _ ->
        prerr_endline "usage: hostile_serve SYNTS-BINARY";
        exit 2
  in
  let rng = Rng.create 2002 in
  let g = Topology.ring 6 in
  let addr = Server.Unix_socket path in
  let admin = Server.Unix_socket admin_path in
  let h = Server.spawn ~check:true ~admin addr (Decomposition.best g) in
  let clean = Client.connect addr in
  let hostile = hostile_session rng in
  let crossed = plane_session rng in
  let sent = clean_session rng g clean in
  (match Client.server_stats clean with
  | Ok s when s.Client.clients = 1 -> ()
  | Ok s ->
      fail "%d clients attached after the hostile one left" s.Client.clients
  | Error e -> fail "stats: %s" e);
  verify "hostile-smoke" clean sent;
  let a = Admin_client.connect admin in
  (match Admin_client.health a with
  | true, _, _, _ -> ()
  | false, _, _, _ -> fail "admin health reports the daemon down");
  Admin_client.close a;
  Format.printf
    "hostile-smoke: %d hostile frames refused, oversized stream closed, %d \
     frames refused across the two planes, %d clean messages verified, \
     admin health answered@."
    hostile crossed sent;
  Client.shutdown clean;
  Server.join h;
  fd_case synts "fd-flood" ~idle:1090 rng g;
  fd_case synts "fd-limit" ~ulimit:24 ~idle:40 rng g
