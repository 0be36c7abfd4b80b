(** Streaming minimum-chain-partition maintenance (ROADMAP item 2).

    Elements arrive in a linear-extension order, as in
    {!Incremental_width}, but here each insertion also {e places} the
    element on a chain and emits a final rank-vector stamp, with memory
    bounded by a live window instead of the O(M²) closure of the batch
    pipeline ({!Dilworth} over {!Poset}).

    {2 The invariants}

    {b Append-only placement.} An element may only be appended to a chain
    whose current tail is strictly below it, so every chain is totally
    ordered and the down-set of any element meets each chain in a
    {e prefix}. Placement is patience-style: extend the most recently
    grown extendable chain (preferring the chain of the element's matched
    predecessor), open a new chain only when no tail is below the new
    element.

    {b Chain-count stamps.} The stamp of [m] is
    [V_m.(c) = |{x ∈ chain c : x ≤ m}|], computed in O(chains) from the
    componentwise maximum of the predecessors' stamps — no closure row is
    consulted. By the prefix property this is exact, final at emission,
    and {e order-equivalent} for any append-only placement:
    [m1 < m2 ⟺ stamp_lt V_m1 V_m2] (with implicit zero padding), whatever
    the chain count. The chain count only sets the vector dimension, and
    no bound ties it to the width: append-only placement cannot re-route
    a chain whose stamps are out, so it can exceed both the poset's
    width and the paper's ⌊N/2⌋ bound (Theorem 8) that the batch
    realizer achieves. On seeded streams of about 500k messages at
    window 1024 it reached 15 on cs:8x248 (width at most 8), 37 on
    gnp:64:0.3 (⌊N/2⌋ = 32), 24–25 on ring:32 (16) and 40–41 on
    grid:8x8 (32).

    {b Bounded frontier.} Per-element state (ancestor bitset rows, the
    incremental Hopcroft–Karp matching — at most one augmenting search
    per insertion, the loop form of {!Matching.augment_from}) lives in a
    recycled window of
    [window] slots. When the window fills, the oldest live prefix is
    retired: its closure rows are dropped and its matched edges frozen.
    Stamps are unaffected; {!width} decays from exact (Dilworth, while
    {!exact}) to an upper bound, because a frozen edge can no longer be
    re-routed.

    {b Insert from predecessor rows.} Every live row holds exactly its
    slot's live ancestors, so the new element's row is the union of its
    predecessors' rows and the predecessors themselves — two rows for a
    message, whose immediate predecessors are the last messages at its
    two endpoints. The caller names each predecessor by its stamp and
    chain ({!pred}), and a per-chain ring of [window] slots indexed by
    rank mod window resolves it to a slot. Only a predecessor that has
    retired costs a pass over every chain: a chain's live elements are a
    contiguous range of ranks ending at its tail (retirement takes the
    oldest first, and a chain's insertion order is its rank order), so
    its live down-set is the union, over chains c, of the live slot of
    rank [p.(c)] and that slot's row. A set of the live slots still free
    on the left side of the matching turns the direct match into one
    word-parallel intersection. The live slots are kept in insertion
    order, so retirement walks them without sorting. Memory is
    O(window²/word + chains · (window + chains)) words: rows, rings and
    tail stamps, independent of the number of elements inserted — see
    {!live_words}. *)

type t

type stamp = int array
(** [stamp.(c)] = number of chain-[c] elements at or below the element.
    Stamps emitted earlier may be shorter than the current {!chains};
    compare with {!stamp_lt}, which zero-pads. *)

type info = {
  chain : int;  (** Chain the element was appended to. *)
  opened : bool;  (** The insertion opened a new chain. *)
  matched : bool;  (** The matching grew (the width did not). *)
  visited : int;  (** Left vertices visited by the repair search. *)
  retired : int;  (** Elements retired to make room. *)
}
(** Per-insertion attribution, for profiling (the [synts trace] phases
    insert / repair / retire / emit). *)

val create : ?window:int -> unit -> t
(** [window] (default 1024, ≥ 2) bounds the live slots retained for the
    incremental matching. Inserting more than [window] live elements
    retires the oldest prefix — stamps stay exact, {!width} becomes an
    upper bound. *)

val pred : t -> stamp -> chain:int -> unit
(** [pred t p ~chain] names a predecessor of the element the next
    {!insert} places: [p] is the stamp this structure emitted for it and
    [chain] the chain it went on ({!last_chain} right after its insert).
    Name a generating set of the element's predecessors (immediate
    predecessors suffice: any set whose down-sets union to the element's
    full strict down-set); naming one twice is harmless. Raises
    [Invalid_argument], forgetting the predecessors named so far, if [p]
    could not have been emitted by this structure or holds no element of
    [chain]. *)

val insert : t -> stamp
(** Insert the next element of the linear extension, below the
    predecessors named by {!pred} since the last insert, and return its
    final stamp. Naming a predecessor ORs its row in, O(window/word)
    words, or O(chains · window/word) once it has retired; the insert
    takes one word-parallel intersection for the direct match, plus,
    when no ancestor is a free matching tail, one augmenting search of
    O(visited rows · window/word) words. It allocates only the returned
    stamp, and the rank ring of a chain it opens; neither naming nor
    retirement allocates. *)

val size : t -> int
(** Elements inserted so far. *)

val chains : t -> int
(** Chains opened so far = dimension of the next stamp. *)

val width : t -> int
(** [size − matching]: the poset's width while {!exact}, an upper bound
    on it after the first retirement. *)

val exact : t -> bool
(** No retirement has occurred yet, so {!width} is exact (equals
    {!Dilworth.width} of the inserted prefix). *)

val chain_length : t -> int -> int
(** Elements placed on a chain so far. *)

val live : t -> int
(** Live (unretired) elements in the window. *)

val retired : t -> int
(** Elements retired so far. *)

val repairs : t -> int
(** Insertions that needed the full augmenting-path search (the patience
    tier found no free ancestor). *)

val live_words : t -> int
(** Estimated heap words held live by the structure —
    O(window²/word_size + chains · (window + chains)): slot arrays,
    ancestor rows, the free-left and scratch sets, one rank ring of
    [window] slots per chain and the tail stamps. Independent of
    {!size}, and never decreasing, so its current value is its peak.
    The streaming pipeline's memory claim is benchmarked against
    this. *)

val last_info : t -> info
(** Attribution of the most recent {!insert} (a fresh record). *)

val last_chain : t -> int
(** [(last_info t).chain] without building the record: the handle
    {!pred} takes for the element just inserted. *)

val stamp_lt : stamp -> stamp -> bool
(** Strict vector order with implicit zero padding of the shorter stamp.
    For elements [x, y] inserted into one structure:
    [x < y ⟺ stamp_lt (stamp x) (stamp y)]. *)
