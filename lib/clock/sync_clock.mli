(** The synchronous-clock rule over one {!Stamp_store} slab — the one
    kernel behind the paper's online algorithm (Fig. 5:
    {!Synts_core.Online}, the [synts serve] engine) and the
    Fidge–Mattern, Singhal–Kshemkalyani and plausible baselines.

    A synchronous message's stamp is the componentwise maximum of its
    two endpoints' clocks plus one on component [a], and on [b] when
    [b <> a]; both endpoints then adopt it. Fig. 5 bumps the channel's
    edge group ([a = b]), Fidge–Mattern each endpoint's own component
    ([a = src], [b = dst]) and plausible clocks the endpoints' classes.

    Rows [0 .. n-1] of the slab are the processes' {e home rows}, and
    each process has a current row, initially its home row. {!stamp}
    appends the new stamp as a row and points both endpoints at it, so
    no clock is ever copied while stamping. Whole-trace sweeps
    ({!sweep}) never move a row. Streaming callers bound the slab by
    {e settling}: {!home} copies a process's clock back to its home row,
    and {!drop_stamps} forgets the stamp rows once every clock is
    home. *)

type t

val create : ?capacity:int -> ?init:int array array -> n:int -> int -> t
(** [create ~n dim] makes a kernel of [n] processes with [dim]-component
    clocks, every process at its home row. [init] (default all zeros)
    seeds the home rows and must hold [n] rows of width [dim].
    [capacity] (default 64) is the slab's initial row count. [n < 0],
    [dim < 0] or an ill-shaped [init] raise [Invalid_argument]. *)

val store : t -> Stamp_store.t
(** The slab. Other rows may be pushed on it between stamps (the engine
    keeps one row per batch event); they are dropped with the stamp
    rows. *)

val stamp : t -> src:int -> dst:int -> a:int -> b:int -> int
(** Append the message's stamp and return its row: the max of the
    endpoints' current rows, plus one on [a] and on [b] when [b <> a].
    Both endpoints then point at the new row. *)

val row : t -> int -> int
(** Process [p]'s current row. *)

val clock : t -> int -> Vector.t
(** A fresh copy of process [p]'s clock. *)

(** {1 Settling} *)

val home : t -> int -> unit
(** [home t p] copies process [p]'s clock back to its home row and
    points [p] there; a no-op when [p] is home. *)

val drop_stamps : t -> unit
(** Forget every row above the home rows. Every process must be home
    ({!home}); settling costs one copy per process moved, not one per
    process. *)

val settle : t -> unit
(** {!home} every process, then {!drop_stamps}. *)

(** {1 Whole-trace sweeps} *)

val sweep :
  ?store:Stamp_store.t ->
  ?rows:int array ->
  who:string ->
  dim:int ->
  Synts_sync.Trace.t ->
  (t -> src:int -> dst:int -> int) ->
  Stamp_store.t * int array
(** [sweep ~who ~dim trace step] runs a kernel over the trace's
    processes and calls [step] on each message in trace order; [step]
    stamps it and returns its row. The result maps message id to row.
    Pass [?store] (cleared here; its dimension must be [dim]) and a
    [?rows] array (length ≥ message count) to reuse buffers across
    traces: with a warm store the sweep allocates nothing per message.
    [who] names the caller in [Invalid_argument] messages. *)

val vectors :
  Stamp_store.t * int array -> Synts_sync.Trace.t -> Vector.t array
(** A {!sweep}'s stamps copied out as one vector per message id. *)
