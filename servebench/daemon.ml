(* A [synts serve] child process, seen from outside: spawned, reached
   over its Unix socket, and read through /proc. *)

module Protocol = Synts_server.Protocol

type t = { pid : int; socket : string }

let spawn ~exe ~socket ~seed (w : Workload.t) =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let args =
    [ exe; "serve"; w.spec; "--seed"; string_of_int seed; "--listen"; socket ]
    @ if w.offline then [ "--offline"; "--window"; string_of_int Twin.window ] else []
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () -> Unix.create_process exe (Array.of_list args) null null null)
  in
  { pid; socket }

let reap t = ignore (Unix.waitpid [] t.pid)

let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try reap t with Unix.Unix_error _ -> ());
  try Unix.unlink t.socket with Unix.Unix_error _ -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [(on-CPU ns, run-queue wait ns)] summed over the daemon's threads.
   schedstat counts in nanoseconds; /proc/PID/stat only in clock ticks. *)
let schedstat t =
  let dir = Printf.sprintf "/proc/%d/task" t.pid in
  Array.fold_left
    (fun (run, wait) tid ->
      match
        String.split_on_char ' ' (String.trim (read_file (Filename.concat dir tid ^ "/schedstat")))
      with
      | r :: w :: _ -> (run + int_of_string r, wait + int_of_string w)
      | _ -> failwith "unreadable schedstat"
      | exception Sys_error _ -> (run, wait))
    (0, 0) (Sys.readdir dir)

(* Peak resident set ([VmHWM]) in KiB. *)
let peak_rss_kb t =
  let status = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" Fun.id

let roundtrip conn req =
  Conn.send conn (Conn.encode req);
  Conn.decode (Conn.recv conn)

let hello conn =
  match roundtrip conn Protocol.Hello with
  | Protocol.Welcome _ as w -> w
  | r -> Format.kasprintf failwith "unexpected hello reply: %a" Protocol.pp_response r

(* Ask for [Shutdown], wait for [Bye] and for the process to exit. *)
let shutdown t conn =
  (match roundtrip conn Protocol.Shutdown with
  | Protocol.Bye -> ()
  | r -> Format.kasprintf failwith "unexpected shutdown reply: %a" Protocol.pp_response r);
  Conn.close conn;
  reap t

let connect_timeout = 30.

(* Spawn a daemon and time it to its first [Welcome]. *)
let start ~exe ~socket ~seed w =
  let t0 = Unix.gettimeofday () in
  let c0 = Monotonic_clock.now () in
  let t = spawn ~exe ~socket ~seed w in
  match
    let conn = Conn.connect ~deadline:(t0 +. connect_timeout) socket in
    ignore (hello conn);
    conn
  with
  | conn ->
      let setup_ns = Int64.to_int (Int64.sub (Monotonic_clock.now ()) c0) in
      (t, conn, float setup_ns *. 1e-9)
  | exception e ->
      kill t;
      raise e
