(** The offline algorithm (paper Sec. 4, Figure 9).

    Given a completed computation: (1) the message poset has width
    [w ≤ ⌊N/2⌋] because every message occupies two of the N processes
    (Theorem 8); (2) a Dilworth chain partition yields a realizer
    [{L1, …, Lw}] with [∩ Li = (M, ↦)]; (3) message [m] is timestamped
    with [V_m], [V_m[i]] = number of elements below [m] in [Li] (its
    rank). Then [m1 ↦ m2 ⟺ V_m1 < V_m2]. *)

val width_bound : n:int -> int
(** [⌊N/2⌋]. *)

val timestamp_poset : Synts_poset.Poset.t -> Synts_clock.Vector.t array
(** Rank vectors from the Dilworth realizer of an arbitrary poset, shifted
    to 1-based so every timestamp is strictly above the zero vector (the
    bottom element used by the internal-event stamps of Sec. 5). *)

val timestamp_trace : Synts_sync.Trace.t -> Synts_clock.Vector.t array
(** Timestamps for all messages of a synchronous trace; vector size is
    [max 1 (width of the message poset)] ≤ ⌊N/2⌋. *)

val dimension_used : Synts_sync.Trace.t -> int
(** The realizer size the offline algorithm would use on this trace. *)

(** {1 Streaming pipeline}

    The batch path above re-solves closure + matching over the whole
    poset; [Stream] emits offline-style rank-vector stamps {e as messages
    arrive}, with memory bounded by the live window of
    {!Synts_poset.Streaming_chains} (O(window²/word + chains · (window +
    chains)) words, not O(M²) closure bits) — per-process state is just
    the last message stamp of each process. Streamed stamps are
    {e order-equivalent} to {!timestamp_trace} on any trace: same
    {!precedes} / {!concurrent} verdicts, with the batch path kept as
    the property-test oracle. The
    vector dimension is the streaming chain count: equal to the width
    reached by the batch realizer on chain-friendly arrival orders, and
    never more than a small factor above it — still bounded by the
    messages seen, not by N. *)
module Stream : sig
  type t

  val create : ?window:int -> n:int -> unit -> t
  (** A streaming stamper over [n] processes. [window] is forwarded to
      {!Synts_poset.Streaming_chains.create}. *)

  val observe : t -> src:int -> dst:int -> Synts_clock.Vector.t
  (** Stamp the next message of the linearization. Its immediate
      predecessors are the last messages at [src] and [dst], so its
      ancestor row is the union of their two rows, O(window/word) words
      (O(chains · window/word) when one of them has left the live
      window), and a direct match is one more such pass; when no
      ancestor is a free matching tail, one augmenting search of
      O(visited rows · window/word) words follows. Allocates only the
      returned stamp, which is final. Raises [Invalid_argument] on a bad
      channel. *)

  val processes : t -> int
  val messages : t -> int

  val last : t -> int -> Synts_clock.Vector.t
  (** [last t p] is the stamp of process [p]'s last message, the [prev]
      of its next internal events; empty before its first message. *)

  val dimension : t -> int
  (** Current stamp width (grows as chains open; ≥ 1). *)

  val width : t -> int
  (** The message poset's width — exact while {!exact_width}, an upper
      bound after window retirement began. *)

  val exact_width : t -> bool

  val live : t -> int
  (** Elements currently held in the live window. *)

  val retired : t -> int
  (** Elements evicted from the live window so far. *)

  val repairs : t -> int
  (** Insertions that ran the full augmenting-path repair. *)

  val last_info : t -> Synts_poset.Streaming_chains.info
  (** Attribution of the most recent {!observe}: chain, whether it
      opened one, matching growth, repair-search visits and slots
      retired. *)

  val live_words : t -> int
  (** Estimated heap words held live — bounded by the window, independent
      of {!messages}. *)

  val peak_live_words : t -> int
  (** {!live_words} never decreases, so this is its current value. *)

  val precedes : t -> Synts_clock.Vector.t -> Synts_clock.Vector.t -> bool
  val concurrent : t -> Synts_clock.Vector.t -> Synts_clock.Vector.t -> bool
  (** Zero-padded comparisons, valid across the stream's whole lifetime
      (stamps emitted at different dimensions compare correctly). *)
end

val stream_trace :
  ?window:int -> Synts_sync.Trace.t -> Synts_clock.Vector.t array
(** All message stamps of a trace through the streaming pipeline, padded
    to the final dimension (directly comparable with {!precedes} /
    {!concurrent}, like {!timestamp_trace} — the two are order-equivalent
    message for message). *)

val precedes : Synts_clock.Vector.t -> Synts_clock.Vector.t -> bool
val concurrent : Synts_clock.Vector.t -> Synts_clock.Vector.t -> bool
(** Strict vector order / incomparability with implicit zero-padding, so
    batch stamps, streamed stamps and stamps emitted at different stream
    dimensions are all directly comparable. *)
