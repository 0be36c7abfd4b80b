(** Streaming assignment of internal-event stamps (online Sec. 5).

    The batch {!Internal_events.of_trace} needs the whole trace; a running
    monitor does not have it. This module stamps internal events {e as the
    computation unfolds}: an internal event's [prev] and [counter] are
    known immediately, but its stamp is only complete once the process's
    {e next} message fixes [succ] — the inherent latency the paper notes
    ("an internal event can be assigned a timestamp only after the process
    knows the timestamp of the message after e"). Events still pending at
    shutdown are flushed with [succ = +∞].

    The stream holds no vectors. An internal event's [prev] is its
    process's clock — the stamp of the process's last message — and that
    clock cannot change before the next message resolves the event, so
    the caller supplies it at resolution: a session passes the last
    stamp it returned, the serve engine reads the process's slab row.
    Until a process has taken part in a message of this stream, [prev]
    is the zero vector.

    Tickets number internal events per {!t} in announcement order, so when
    a trace is replayed in order they coincide with the trace's internal
    ids. *)

type t

type ticket = int

val create : dimension:int -> n:int -> t
(** [n] processes, vectors of [dimension] components (the decomposition
    size), no events yet. *)

val record_internal : t -> proc:int -> ticket
(** Announce an internal event on [proc]; its stamp is deferred. *)

val waiting : t -> proc:int -> bool
(** Whether [proc] has announced internal events that its next message
    resolves. *)

val record_message :
  t -> proc:int -> prev:Synts_clock.Vector.t -> Synts_clock.Vector.t ->
  (ticket * Internal_events.stamp) list
(** Announce that [proc] just participated in a message with the given
    timestamp, [prev] being [proc]'s clock before it (the stamp of its
    previous message). Returns the stamps this resolves — every pending
    internal event of [proc], in occurrence order. Call once per
    participant (twice per message). Neither vector is kept, and [prev]
    is read only when [proc] is {!waiting} and has had a message before.
    Vectors at least [dimension] wide are accepted (they may grow when
    fed by an adaptive stamper); each resolved stamp's [prev] is
    zero-padded to its [succ]'s width. *)

val pass_message : t -> proc:int -> unit
(** {!record_message} for a [proc] that is not {!waiting}, which needs
    no vector: it only notes that [proc]'s next internal event has a
    message before it. Raises [Invalid_argument] when [proc] is
    waiting. *)

val finish :
  t -> prev:(int -> Synts_clock.Vector.t) ->
  (ticket * Internal_events.stamp) list
(** Flush every still-pending event with [succ = +∞], in ticket order;
    [prev p] is process [p]'s current clock, asked for only when [p] has
    pending events and has had a message. The stream stays usable, as a
    session or a [serve --offline] sink that goes on after one client's
    [Finish] uses it: tickets keep increasing, a process's [prev] stays
    its last message's stamp, and the counters of its internal events
    go on from those just flushed until its next message. A caller that
    wants [prev] zero again (the serve engine at [Finish]) starts a new
    stream. *)

val pending : t -> int
(** Number of announced-but-unresolved events. *)
