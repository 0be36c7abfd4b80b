(** The [synts serve] daemon: a select loop over Unix or TCP sockets.

    One single-threaded loop owns the listening sockets, the engine and
    every client connection, data and admin alike, in one connection
    table: each connection records its plane and its reassembly buffer,
    and one read function hands each complete {!Frame} to the plane's
    handler ({!Service} for {!Protocol} messages, {!Admin_service} for
    {!Synts_obs.Admin} ones). The replies to one read of a data
    connection leave in one write.

    Every connection the loop closes is counted by cause, on both
    planes: [server.closed.eof] (the peer closed),
    [server.closed.error] (a reset or another socket error) and
    [server.closed.oversized] (a length prefix past {!Frame.max_frame},
    which desynchronises the stream).

    File descriptors are a resource clients can exhaust. A failed
    [accept] is counted ([server.accept_errors]) and never fatal; while
    fds are short the listeners rest for a moment instead of spinning.
    A connection whose fd number is at or past a fixed cap below
    [FD_SETSIZE] is closed on arrival and counted
    ([server.refused_connections]), so every connection the loop selects
    on stays valid for [select] — also in a daemon started with
    {!spawn}, whose fd table its in-process clients share.

    A {!Protocol.Shutdown} request from any client answers [Bye],
    closes every connection, stops the engine and returns. *)

type address = Unix_socket of string | Tcp of string * int

val pp_address : Format.formatter -> address -> unit

val address_of_string : string -> (address, string) result
(** ["host:port"] is TCP; anything else is a Unix socket path. *)

val connect : address -> Unix.file_descr
(** A client socket connected to [address] — how {!Client} and
    {!Admin_client} dial either plane. Raises [Unix.Unix_error] when the
    connection fails and [Failure] on an unknown host. *)

val serve :
  ?check:bool ->
  ?offline:bool ->
  ?window:int ->
  ?admin:address ->
  address ->
  Synts_graph.Decomposition.t ->
  unit
(** Bind, listen and serve until a [Shutdown] request. Raises
    [Unix.Unix_error] when the address cannot be bound. A pre-existing
    Unix socket path is unlinked first and removed again on exit.
    [offline]/[window] select the streaming-offline backend — see
    {!Service.create}. [admin] additionally listens on a second address
    for the {!Synts_obs.Admin} plane
    ([health]/[metrics]/[stats]/[tracedump], answered by
    {!Admin_service} on the same loop, between data-plane requests). *)

type handle
(** A daemon running in its own domain (in-process [synts serve] — used
    by [synts load --spawn] and the smoke tests). *)

val spawn :
  ?check:bool ->
  ?offline:bool ->
  ?window:int ->
  ?admin:address ->
  address ->
  Synts_graph.Decomposition.t ->
  handle
(** Bind in the calling domain — the address is connectable as soon as
    this returns — then serve from a fresh domain. *)

val join : handle -> unit
(** Wait for the daemon to exit (i.e. for a [Shutdown] request). *)
