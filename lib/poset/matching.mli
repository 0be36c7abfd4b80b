(** Maximum bipartite matching (Hopcroft–Karp).

    Dilworth's theorem reduces minimum chain partitions — and hence the
    width bound of the paper's offline algorithm — to maximum matching in
    the bipartite "split" graph of the order relation; this module is that
    solver. Runs in O(E √V). *)

type result = {
  pair_left : int array;
      (** [pair_left.(u)] is the right vertex matched to left [u], or -1. *)
  pair_right : int array;
      (** [pair_right.(v)] is the left vertex matched to right [v], or -1. *)
  size : int;  (** Number of matched pairs. *)
}

val maximum_rows :
  left:int ->
  right:int ->
  iter:(int -> (int -> unit) -> unit) ->
  find:(int -> (int -> bool) -> bool) ->
  result
(** [maximum_rows ~left ~right ~iter ~find] runs Hopcroft–Karp over an
    abstract adjacency: [iter u f] must visit left vertex [u]'s right
    neighbours in increasing order; [find u f] must do the same but stop
    at the first neighbour where [f] returns [true] (the augmenting DFS).
    This lets {!Dilworth} feed comparability bit-rows straight into the
    solver with no materialised edge list. Deterministic: identical to
    {!maximum} on the same graph. *)

val augment_from :
  find:(int -> (int -> int -> bool) -> bool) ->
  pair_left:int array ->
  pair_right:int array ->
  int ->
  bool
(** [augment_from ~find ~pair_left ~pair_right r] runs one Kuhn
    augmenting-path search from right vertex [r] and applies it in place;
    true iff the matching grew. When elements arrive in linear-extension
    order, adding one right vertex grows the maximum matching by at most
    one, so a single search restores maximality — {!Incremental_width}
    calls this once per insertion, and {!Streaming_chains} runs the same
    search in loop form. [find r f] must present [r]'s {e not-yet-visited} left
    neighbours [u] in increasing order, marking each visited before
    calling [f r u], and stop at the first acceptance (the caller owns
    the visited set; it must be fresh per call). Because [f] receives
    the row's right vertex, the search allocates one closure per call
    and none per visited row. A successful search ends at the first free
    left vertex it visits, so exactly one visited vertex went from free
    to matched. Left vertices with a negative non-[-1] [pair_left] entry
    are treated as matched-but-frozen (partner retired) and never
    re-routed. *)

type csr
(** A compressed-sparse-row adjacency: left vertex → ascending right
    neighbours. *)

val csr_of_rows :
  left:int -> right:int -> iter:(int -> (int -> unit) -> unit) -> csr
(** Build a CSR directly from a row iterator (same contract as
    {!maximum_rows}'s [iter]: ascending, duplicate-free) in two passes —
    degrees, then fill — with no intermediate edge list. Raises
    [Invalid_argument] on out-of-range neighbours. *)

val maximum_csr : left:int -> right:int -> csr -> result
(** {!maximum_rows} over a CSR adjacency. Identical to {!maximum} on the
    same graph. *)

val edge_count : csr -> int

val maximum : left:int -> right:int -> (int * int) list -> result
(** [maximum ~left ~right edges] computes a maximum matching of the
    bipartite graph with [left] left vertices, [right] right vertices and
    the given (left, right) edges (internally a counting-sorted CSR fed to
    {!maximum_rows}). Raises [Invalid_argument] on out-of-range endpoints.
    Deterministic. *)

val min_vertex_cover_rows :
  left:int ->
  right:int ->
  iter:(int -> (int -> unit) -> unit) ->
  result ->
  bool array * bool array
(** König's theorem over an abstract adjacency (same [iter] contract as
    {!maximum_rows}): from a maximum matching, a minimum vertex cover
    [(cover_left, cover_right)]. *)

val min_vertex_cover :
  left:int -> right:int -> (int * int) list -> result -> bool array * bool array
(** König's theorem: from a maximum matching, a minimum vertex cover
    [(cover_left, cover_right)] of the same bipartite graph. Its complement
    is a maximum independent set — which {!Dilworth} uses to extract a
    maximum antichain. *)
