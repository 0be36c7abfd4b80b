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

(* Why the loop closed a connection, with one counter per cause. *)
type cause = Eof | Socket_error | Oversized

let m_closed_eof =
  Tm.Counter.v ~help:"Connections closed after the peer's orderly close"
    "server.closed.eof"

let m_closed_error =
  Tm.Counter.v ~help:"Connections closed on a reset or other socket error"
    "server.closed.error"

let m_closed_oversized =
  Tm.Counter.v ~help:"Connections closed on a length prefix past the frame cap"
    "server.closed.oversized"

let m_closed = function
  | Eof -> m_closed_eof
  | Socket_error -> m_closed_error
  | Oversized -> m_closed_oversized

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

let sockaddr = function
  | Unix_socket path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let host =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found -> failwith (Printf.sprintf "unknown host %S" host))
      in
      Unix.ADDR_INET (host, port)

let socket addr = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0

let bind_listen address =
  let addr = sockaddr address in
  let fd = socket addr in
  (match address with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
  Unix.bind fd addr;
  Unix.listen fd 64;
  fd

let connect address =
  let addr = sockaddr address in
  let fd = socket addr in
  match Unix.connect fd addr with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

(* The plane a connection was accepted on. A data connection keeps its
   protocol state and the output buffer its replies to one read gather
   in; an admin connection carries nothing beyond its reassembly
   buffer, and each admin frame is answered from a coherent read of the
   service between data-plane requests. *)
type plane = Data of Service.conn * Wire.writer | Admin

type conn = { plane : plane; buf : Frame.buffer }

(* One select loop owns the data listener, the optional admin listener
   and every connection of both planes, in one table. *)
let loop ?admin service listen_fd address =
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 8 in
  let listeners = listen_fd :: Option.to_list (Option.map fst admin) in
  let scratch = Bytes.create 65536 in
  let running = ref true in
  let paused_until = ref 0. in
  let close fd cause =
    match Hashtbl.find_opt conns fd with
    | None -> ()
    | Some { plane; _ } ->
        (match plane with
        | Data (conn, _) -> Service.detach service conn
        | Admin -> ());
        Hashtbl.remove conns fd;
        Tm.Counter.incr (m_closed cause);
        paused_until := 0.;
        (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  let accept listener =
    match Unix.accept listener with
    | client, _ ->
        if fd_number client >= fd_cap then begin
          Tm.Counter.incr m_refused;
          try Unix.close client with Unix.Unix_error _ -> ()
        end
        else begin
          let plane =
            if listener = listen_fd then begin
              Tm.Counter.incr m_accepted;
              Data (Service.attach service, Wire.writer 4096)
            end
            else begin
              Tm.Counter.incr m_admin_accepted;
              Admin
            end
          in
          Log.debug ~component:"server" ~tick:(Service.batches service)
            (match plane with
            | Data _ -> "client connected"
            | Admin -> "admin client connected");
          Hashtbl.replace conns client { plane; buf = Frame.buffer () }
        end
    | exception Unix.Unix_error (err, _, _) -> (
        Tm.Counter.incr m_accept_errors;
        Log.warn ~component:"server" ~tick:(Service.batches service)
          ~kv:[ ("error", Unix.error_message err) ]
          "accept failed";
        match err with
        | Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED -> ()
        | _ -> paused_until := Unix.gettimeofday () +. accept_backoff)
  in
  (* One read: each complete frame goes to its plane's handler, and a
     data connection's replies to the read leave in one write. *)
  let serve fd { plane; buf } =
    match Unix.read fd scratch 0 (Bytes.length scratch) with
    | 0 -> close fd Eof
    | len -> (
        Frame.feed buf scratch len;
        let rec drain () =
          match (Frame.next buf, plane) with
          | None, _ -> ()
          | Some frame, Data (conn, out) ->
              if Service.serve_frame service conn frame out then
                running := false
              else drain ()
          | Some frame, Admin ->
              Tm.Counter.incr m_admin_requests;
              Frame.send fd (Admin_service.handle_raw service frame);
              drain ()
        in
        let flush () =
          match plane with Data (_, out) -> Frame.flush fd out | Admin -> ()
        in
        match drain () with
        | () -> flush ()
        | exception Failure _ ->
            (* Desynchronised stream (oversized length prefix): the
               connection is unrecoverable, the daemon is not. The
               replies before it still go out. *)
            (try flush () with Unix.Unix_error _ -> ());
            close fd Oversized)
    | exception Unix.Unix_error _ -> close fd Socket_error
  in
  while !running do
    if !paused_until > 0. && Unix.gettimeofday () >= !paused_until then
      paused_until := 0.;
    let paused = !paused_until > 0. in
    let fds =
      Hashtbl.fold (fun fd _ acc -> fd :: acc) conns
        (if paused then [] else listeners)
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
            if List.mem fd listeners then accept fd
            else
              match Hashtbl.find_opt conns fd with
              | Some c -> (
                  try serve fd c
                  with Unix.Unix_error _ | Failure _ -> close fd Socket_error)
              | None -> ())
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
  let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Hashtbl.iter (fun fd _ -> close_quietly fd) conns;
  Hashtbl.reset conns;
  List.iter close_quietly listeners;
  List.iter
    (function
      | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
      | Tcp _ -> ())
    (address :: Option.to_list (Option.map snd admin));
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
