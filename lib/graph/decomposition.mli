(** Edge decompositions into stars and triangles (paper Definition 2).

    An edge decomposition of a topology [G = (V, E)] is a partition
    [{E1, …, Ed}] of [E] such that each [(V, Ei)] is a star or a triangle.
    The online timestamping algorithm dedicates one vector component to each
    group, so [d] is exactly the timestamp size; all the constructions the
    paper discusses are here:

    - {!paper}: the approximation algorithm of Figure 7 (ratio ≤ 2,
      Theorem 6; optimal on forests, Theorem 7);
    - {!of_vertex_cover}: one star per cover vertex (Theorem 5);
    - {!sequential}: the trivial ≤ N−2 groups bound of Theorem 5;
    - {!exact}: minimum decomposition by branch and bound (small graphs);
    - {!best}: the smallest of the polynomial constructions. *)

type group =
  | Star of { center : int; leaves : int list }
      (** Edges [center—leaf] for each leaf; [leaves] is sorted, non-empty,
          and never contains [center]. *)
  | Triangle of int * int * int  (** Three vertices [x < y < z], all edges. *)

type t
(** A decomposition, carrying its edge-to-group {!index}. *)

val make : Graph.t -> group list -> (t, string) result
(** Validates that the groups partition the graph's edge set and that each
    group is well-formed; returns a descriptive error otherwise. *)

val make_exn : Graph.t -> group list -> t
(** Like {!make} but raises [Invalid_argument]. *)

val groups : t -> group list
val size : t -> int
(** Number of groups [d] — the timestamp dimension. *)

val graph_vertices : t -> int
(** [N], the vertex count of the decomposed topology. *)

val group_of_edge : t -> int -> int -> int
(** [group_of_edge t u v] is the index [g] with edge [(u, v) ∈ E_g]
    (0-based): a {!lookup} in the decomposition's {!index}. Raises
    [Not_found] when the edge is in no group. *)

type index
(** A channel → group map held in O(N + E) words: each vertex's
    neighbours in ascending order beside their groups, so a lookup is
    one binary search over the sender's neighbours and allocates
    nothing. *)

val index : t -> index
(** The decomposition's channel → group map, built by {!make} from the
    groups' edge lists in O(N + E). *)

val index_of_edges : int -> (int * int * int) list -> index
(** [index_of_edges n edges] maps each channel [(u, v, g)] of [edges],
    in both directions, to [g] — for layouts that are not a
    decomposition, such as a membership epoch's slots. Built in
    O(N + E); raises [Invalid_argument] on a vertex outside [0, n) or
    a self-loop. *)

val lookup : index -> int -> int -> int
(** [lookup i u v] is the group of channel [(u, v)], or [-1] when the
    channel is absent (including out-of-range vertices). *)

val edges_of_group : group -> Graph.edge list
val stars : t -> int
val triangles : t -> int

type step = { phase : int; group : group }
(** One output action of the Figure 7 algorithm, tagged with the step
    (1, 2 or 3) that produced it — used to replay Figure 8. *)

val paper_trace : Graph.t -> step list
(** The full run of the paper's algorithm, in emission order. *)

val paper : Graph.t -> t
(** The decomposition produced by the Figure 7 algorithm. Deterministic:
    ties are broken towards smaller vertex/edge identifiers. *)

val of_vertex_cover : Graph.t -> int list -> (t, string) result
(** One star per cover vertex; each edge joins the star of its smallest
    covering vertex. Fails when the list is not a vertex cover. Empty stars
    are dropped, so the size is ≤ the cover size. *)

val sequential : Graph.t -> t
(** Scan vertices in increasing order emitting the star of each vertex's
    remaining edges; when ≤ 3 vertices with edges remain and they form a
    triangle, emit it as one group. Guarantees ≤ max(1, N−2) groups on any
    graph (Theorem 5's fallback). *)

val exact : ?limit:int -> Graph.t -> t option
(** Minimum-size decomposition by branch and bound on the smallest
    uncovered edge ([limit] bounds explored nodes, default 2_000_000;
    [None] when exceeded). WLOG stars greedily absorb every remaining edge
    at their center (an exchange argument shows this loses nothing). *)

val min_size_lower_bound : Graph.t -> int
(** Any matching is a set of edges that must lie in pairwise-distinct
    groups, so a greedy maximal matching size lower-bounds the optimum. *)

val group_of_edge_set : int -> Graph.edge list -> group option
(** [group_of_edge_set n edges] is the single star or triangle on [n]
    vertices covering exactly [edges], when one exists. An edge set fits
    one group iff it is pairwise-intersecting (a common vertex, or the
    three edges of a triangle) — the compatibility test the incremental
    {!Membership} maintenance uses before absorbing an edge into an
    existing clock component. *)

val best : Graph.t -> t
(** Smallest of {!paper}, greedy/matching vertex-cover stars and
    {!sequential} — the recommended polynomial-time construction. *)

val triangles_first : Graph.t -> t
(** Ablation variant: greedily carve out disjoint triangles, then cover
    the remaining edges with greedy-vertex-cover stars. Good exactly when
    the topology is triangle-rich (its motivating case is the
    disjoint-triangles family where pure stars pay 2×); the benchmark
    suite compares it against {!paper}. *)

val improve : Graph.t -> t -> t
(** Local-search post-pass: repeatedly merge two groups whose combined
    edge set is itself a single star or triangle. Never increases the
    size; recovers, e.g., the triangles a pure-star construction split in
    half. O(d² · m) per round. *)

val pp_group : ?labels:(int * string) list -> Format.formatter -> group -> unit
val pp : ?labels:(int * string) list -> Format.formatter -> t -> unit
