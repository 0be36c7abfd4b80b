(** The [synts serve] daemon: a select loop over Unix or TCP sockets.

    One single-threaded loop owns the listening socket, the engine and
    every client connection. Clients speak the {!Frame} transport
    carrying {!Protocol} messages; all protocol logic is in {!Service}.
    The replies to one read of a connection leave in one write.

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
    speaking the {!Synts_obs.Admin} frame family
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
