module Wire = Synts_clock.Wire
module Tm = Synts_telemetry.Telemetry
module Log = Synts_obs.Log

let m_accepted =
  Tm.Counter.v ~help:"Connections accepted by the serve daemon"
    "server.connections"

let m_admin_accepted =
  Tm.Counter.v ~help:"Connections accepted on the admin channel"
    "server.admin.connections"

let m_admin_requests =
  Tm.Counter.v ~help:"Requests answered on the admin channel"
    "server.admin.requests"

let m_refused =
  Tm.Counter.v ~help:"Connections closed on arrival, their fd past the cap"
    "server.refused_connections"

let m_accept_errors =
  Tm.Counter.v ~help:"Failed accepts, such as on fd exhaustion"
    "server.accept_errors"

(* [Unix.select] handles only fds below FD_SETSIZE (1024) and fails on
   any other. An accepted connection of either plane whose fd number is
   at or past this cap is closed at once, so every fd the loop selects
   on stays below FD_SETSIZE — also in an in-process daemon, whose fd
   table its clients share. *)
let fd_cap = 1000

(* On Unix a [Unix.file_descr] is the fd number itself. *)
let fd_number : Unix.file_descr -> int = Obj.magic

(* An accept that fails for want of fds leaves the connection in the
   backlog and the listener readable. The listeners then sit out of the
   select set until a connection closes or this many seconds pass, so
   the loop waits instead of spinning. *)
let accept_backoff = 0.1

type address = Unix_socket of string | Tcp of string * int

let pp_address ppf = function
  | Unix_socket path -> Format.fprintf ppf "unix:%s" path
  | Tcp (host, port) -> Format.fprintf ppf "%s:%d" host port

let address_of_string s =
  match String.rindex_opt s ':' with
  | Some i -> (
      let host = String.sub s 0 i
      and port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 ->
          Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
      | _ -> Error (Printf.sprintf "bad port in address %S" s))
  | None ->
      if s = "" then Error "empty address" else Ok (Unix_socket s)

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> failwith (Printf.sprintf "unknown host %S" host))

let bind_listen address =
  match address with
  | Unix_socket path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (resolve host, port));
      Unix.listen fd 64;
      fd

(* One select loop owns the data listener, the optional admin listener
   and every connection of both planes. Admin connections carry no
   protocol state beyond a frame reassembly buffer — each admin frame is
   answered from a coherent read of the service between data-plane
   requests. A data connection's replies to one read gather in its
   output buffer and leave in one write. *)
let loop ?admin service listen_fd address =
  let conns :
      (Unix.file_descr, Service.conn * Frame.buffer * Wire.writer) Hashtbl.t =
    Hashtbl.create 8
  in
  let admin_conns : (Unix.file_descr, Frame.buffer) Hashtbl.t =
    Hashtbl.create 4
  in
  let admin_fd = Option.map fst admin in
  let scratch = Bytes.create 65536 in
  let running = ref true in
  let paused_until = ref 0. in
  let close_fd fd =
    paused_until := 0.;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let close_conn fd =
    (match Hashtbl.find_opt conns fd with
    | Some (conn, _, _) -> Service.detach service conn
    | None -> ());
    Hashtbl.remove conns fd;
    close_fd fd
  in
  let close_admin_conn fd =
    Hashtbl.remove admin_conns fd;
    close_fd fd
  in
  let accept fd on_client =
    match Unix.accept fd with
    | client, _ ->
        if fd_number client >= fd_cap then begin
          Tm.Counter.incr m_refused;
          try Unix.close client with Unix.Unix_error _ -> ()
        end
        else on_client client
    | exception Unix.Unix_error (err, _, _) -> (
        Tm.Counter.incr m_accept_errors;
        Log.warn ~component:"server" ~tick:(Service.batches service)
          ~kv:[ ("error", Unix.error_message err) ]
          "accept failed";
        match err with
        | Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED -> ()
        | _ -> paused_until := Unix.gettimeofday () +. accept_backoff)
  in
  let serve_fd fd =
    let conn, buf, out = Hashtbl.find conns fd in
    match Unix.read fd scratch 0 (Bytes.length scratch) with
    | 0 -> close_conn fd
    | len -> (
        Frame.feed buf scratch len;
        let rec drain () =
          match Frame.next buf with
          | None -> ()
          | Some frame ->
              if Service.serve_frame service conn frame out then
                running := false
              else drain ()
        in
        match drain () with
        | () -> Frame.flush fd out
        | exception Failure _ ->
            (* Desynchronised stream (oversized length prefix): the
               connection is unrecoverable, the daemon is not. The
               replies before it still go out. *)
            (try Frame.flush fd out with Unix.Unix_error _ -> ());
            close_conn fd)
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        close_conn fd
  in
  let serve_admin_fd fd =
    let buf = Hashtbl.find admin_conns fd in
    match Unix.read fd scratch 0 (Bytes.length scratch) with
    | 0 -> close_admin_conn fd
    | len ->
        Frame.feed buf scratch len;
        let rec drain () =
          match Frame.next buf with
          | None -> ()
          | Some frame ->
              Tm.Counter.incr m_admin_requests;
              Frame.send fd (Admin_service.handle_raw service frame);
              drain ()
        in
        (try drain () with Failure _ -> close_admin_conn fd)
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        close_admin_conn fd
  in
  while !running do
    if !paused_until > 0. && Unix.gettimeofday () >= !paused_until then
      paused_until := 0.;
    let paused = !paused_until > 0. in
    let fds =
      (if paused then [] else listen_fd :: Option.to_list admin_fd)
      @ Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
      @ Hashtbl.fold (fun fd _ acc -> fd :: acc) admin_conns []
    in
    let timeout =
      (* Negative means no timeout to select: never while paused. *)
      if paused then Float.max 0. (!paused_until -. Unix.gettimeofday ())
      else -1.0
    in
    match Unix.select fds [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = listen_fd then
              accept listen_fd (fun client ->
                  Tm.Counter.incr m_accepted;
                  Log.debug ~component:"server" ~tick:(Service.batches service)
                    "client connected";
                  Hashtbl.replace conns client
                    (Service.attach service, Frame.buffer (), Wire.writer 4096))
            else if admin_fd = Some fd then
              accept fd (fun client ->
                  Tm.Counter.incr m_admin_accepted;
                  Log.debug ~component:"server" ~tick:(Service.batches service)
                    "admin client connected";
                  Hashtbl.replace admin_conns client (Frame.buffer ()))
            else if Hashtbl.mem conns fd then (
              try serve_fd fd
              with Unix.Unix_error _ | Failure _ -> close_conn fd)
            else if Hashtbl.mem admin_conns fd then
              try serve_admin_fd fd
              with Unix.Unix_error _ | Failure _ -> close_admin_conn fd)
          readable
  done;
  Log.info ~component:"server" ~tick:(Service.batches service)
    ~kv:
      [
        ("batches", string_of_int (Service.batches service));
        ("messages", string_of_int (Service.messages_total service));
        ("dropped", string_of_int (Service.dropped service));
      ]
    "shutdown";
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) conns;
  Hashtbl.reset conns;
  Hashtbl.iter
    (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ())
    admin_conns;
  Hashtbl.reset admin_conns;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (match address with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  (match admin with
  | Some (fd, Unix_socket path) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ())
  | Some (fd, Tcp _) -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  Service.stop service

let bind_admin = Option.map (fun address -> (bind_listen address, address))

let serve ?check ?offline ?window ?admin address d =
  let listen_fd = bind_listen address in
  let admin = bind_admin admin in
  let service = Service.create ?check ?offline ?window d in
  loop ?admin service listen_fd address

type handle = unit Domain.t

let spawn ?check ?offline ?window ?admin address d =
  (* Bind before spawning so the caller can connect immediately. *)
  let listen_fd = bind_listen address in
  let admin = bind_admin admin in
  Domain.spawn (fun () ->
      let service = Service.create ?check ?offline ?window d in
      loop ?admin service listen_fd address)

let join = Domain.join
