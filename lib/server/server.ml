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

(* The only [Bye] the service ever frames answers [Shutdown]. Frames are
   deterministic, so spotting it is a string comparison: a length check
   for every other reply. *)
let bye_frame = Wire.frame (Protocol.encode_response Protocol.Bye)

(* One select loop owns the data listener, the optional admin listener
   and every connection of both planes. Admin connections carry no
   protocol state beyond a frame reassembly buffer — each admin frame is
   answered from a coherent read of the service between data-plane
   requests. *)
let loop ?admin service listen_fd address =
  let conns : (Unix.file_descr, Service.conn * Frame.buffer) Hashtbl.t =
    Hashtbl.create 8
  in
  let admin_conns : (Unix.file_descr, Frame.buffer) Hashtbl.t =
    Hashtbl.create 4
  in
  let admin_fd = Option.map fst admin in
  let scratch = Bytes.create 65536 in
  let running = ref true in
  let close_conn fd =
    (match Hashtbl.find_opt conns fd with
    | Some (conn, _) -> Service.detach service conn
    | None -> ());
    Hashtbl.remove conns fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let close_admin_conn fd =
    Hashtbl.remove admin_conns fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let serve_fd fd =
    let conn, buf = Hashtbl.find conns fd in
    match Unix.read fd scratch 0 (Bytes.length scratch) with
    | 0 -> close_conn fd
    | len ->
        Frame.feed buf scratch len;
        let rec drain () =
          match Frame.next buf with
          | None -> ()
          | Some frame ->
              let reply = Service.handle_raw service conn frame in
              Frame.send fd reply;
              if String.equal reply bye_frame then running := false
              else drain ()
        in
        (try drain ()
         with Failure _ ->
           (* Desynchronised stream (oversized length prefix): the
              connection is unrecoverable, the daemon is not. *)
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
    let fds =
      listen_fd
      :: (match admin_fd with Some fd -> [ fd ] | None -> [])
      @ Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
      @ Hashtbl.fold (fun fd _ acc -> fd :: acc) admin_conns []
    in
    match Unix.select fds [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = listen_fd then begin
              let client, _ = Unix.accept listen_fd in
              Tm.Counter.incr m_accepted;
              Log.debug ~component:"server" ~tick:(Service.batches service)
                "client connected";
              Hashtbl.replace conns client
                (Service.attach service, Frame.buffer ())
            end
            else if admin_fd = Some fd then begin
              let client, _ = Unix.accept fd in
              Tm.Counter.incr m_admin_accepted;
              Log.debug ~component:"server" ~tick:(Service.batches service)
                "admin client connected";
              Hashtbl.replace admin_conns client (Frame.buffer ())
            end
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

let serve ?shards ?check ?offline ?window ?admin address d =
  let listen_fd = bind_listen address in
  let admin = bind_admin admin in
  let service = Service.create ?shards ?check ?offline ?window d in
  loop ?admin service listen_fd address

type handle = unit Domain.t

let spawn ?shards ?check ?offline ?window ?admin address d =
  (* Bind before spawning so the caller can connect immediately. *)
  let listen_fd = bind_listen address in
  let admin = bind_admin admin in
  Domain.spawn (fun () ->
      let service = Service.create ?shards ?check ?offline ?window d in
      loop ?admin service listen_fd address)

let join = Domain.join
