(** Churn-tolerant membership: epochs over an incrementally maintained
    edge decomposition.

    The paper's clocks assume a fixed topology [G] with a fixed edge
    decomposition. A membership instance lifts that to a {e sequence} of
    topologies connected by deltas — processes join and leave, channels
    appear and disappear — while keeping the Figure 5 protocol exact:

    - Every clock component has a {e stable id} for its whole lifetime.
      A component may be {e live} (its channels still increment it) or
      {e frozen} (its channels were redecomposed away; old counts are
      still carried and max-merged, never incremented again).
    - The soundness invariant is on the {e historical union} of edges
      ever assigned to a component: all of them must pairwise share a
      process (a common vertex, or the three edges of one triangle), so
      all messages counted by the component are totally ordered and the
      count characterization [ts(m)[c] = #{c-messages ≼ m}] of Theorem 4
      survives arbitrary delta sequences.
    - Each applied delta opens a new {e epoch} and yields a {!remap}
      describing how epoch-[e] vector slots embed into epoch-[e+1]
      vectors. Without {!compact} the remap is an identity injection
      (old slots keep their index, the width only grows), so translating
      an old-epoch stamp is zero-padding — provably exact. {!compact}
      retires long-frozen slots and renumbers, trading exact
      comparability of pre-floor stamps for bounded width.

    Deltas are repaired {e locally}: an added edge is absorbed into the
    first live component whose historical union stays
    pairwise-intersecting, else it opens a fresh singleton star. Only
    when the live-component count would exceed the
    [min(β(G), N_active − 2)] bound of Theorem 5 does the maintenance
    fall back to a full recompute ({!Decomposition.best} plus an exact
    vertex-cover candidate), matching the recomputed groups back onto
    live ids wherever the union invariant allows. Every epoch is logged
    ({!history}) so the [epoch/*] lint rules can audit the bound and the
    remap chain after the fact. *)

type delta =
  | Join of { proc : int; edges : (int * int) list }
      (** Activate [proc] (growing the vertex set when [proc] is fresh)
          and add [edges], each incident to [proc] with an already
          active peer. A fresh [proc] must be the next unused id,
          {!processes}: ids are never skipped. Rejoining a previously
          left process keeps its identity — vertex slots are never
          reused for a different process, which is what keeps frozen
          components sound. *)
  | Leave of int
      (** Drop every channel of the process and deactivate it. *)
  | Add_edge of int * int
  | Remove_edge of int * int

type remap = {
  from_epoch : int;
  from_dim : int;
  to_dim : int;
  map : int array;
      (** [map.(s)] is the slot of epoch-[from_epoch] component [s] in
          epoch [from_epoch + 1] vectors, or [-1] when {!compact}
          retired it. *)
}

type epoch_info = {
  epoch : int;
  delta : string;  (** the delta that opened the epoch, rendered *)
  live : int;  (** live components *)
  width : int;  (** vector width (live + frozen slots) *)
  active_procs : int;
  bound : int;  (** the [min(β(G), N_active − 2)] clamp, ≥ 1 *)
  repaired : bool;  (** local repair sufficed *)
  recomputed : bool;  (** fell back to a full recompute *)
  compacted : bool;
}

type t

val create : Graph.t -> Decomposition.t -> t
(** Epoch 0: the decomposition's groups become live components
    [0 .. d-1], every process is active. Raises [Invalid_argument] when
    the decomposition does not cover the graph. *)

val of_graph : Graph.t -> t
(** [create g (Decomposition.best g)]. *)

val apply : t -> delta -> (remap, string) result
(** Apply one delta; on success the epoch advances by one and the
    returned remap translates previous-epoch vectors. On [Error] the
    state is unchanged. *)

val delta_to_string : delta -> string
(** [join:P:U-V,U-V] / [leave:P] / [add:U-V] / [drop:U-V]. *)

val delta_of_string : string -> (delta, string) result

val epoch : t -> int
val width : t -> int
(** Current vector width (= number of allocated slots). *)

val processes : t -> int
(** Size of the vertex universe (grows on joins, never shrinks). *)

val active : t -> int list
val is_active : t -> int -> bool
val graph : t -> Graph.t
val live_components : t -> int
val frozen_components : t -> int

val slot_of_edge : t -> int -> int -> int
(** The current vector slot incremented by messages on channel [(u,v)].
    Raises [Not_found] when the channel is not in the current topology. *)

val index : t -> Decomposition.index
(** {!slot_of_edge} for every current channel at once, built in
    O(N + E) — the map an engine laid out for this epoch holds. *)

val component_edges : t -> (int * Graph.edge list) list
(** Live components as [(slot, current edges)], sorted by slot. *)

val remap_to_current : t -> from_epoch:int -> remap
(** The composition of the per-epoch remaps from [from_epoch] to the
    current epoch ([map] is the identity injection when nothing was
    compacted in between). Raises [Invalid_argument] on a future or
    negative epoch. *)

val translate : t -> from_epoch:int -> int array -> int array
(** Rewrite an epoch-[from_epoch] stamp into a current-epoch stamp
    (fresh array): surviving slots move by {!remap_to_current},
    retired slots are dropped, new slots are zero. *)

val compact : t -> retire_before:int -> remap
(** Drop every slot whose component was frozen before epoch
    [retire_before] and renumber the survivors densely. Stamps from
    epochs [≥ retire_before] keep exact comparison outcomes; older
    stamps must be translated {e before} their distinguishing slots are
    retired. Opens a new epoch even when nothing is dropped. *)

val history : t -> epoch_info list
(** One record per epoch (including epoch 0), oldest first — the input
    of the [epoch/*] lint rules. *)

val remaps : t -> remap list
(** The per-epoch remap chain, oldest first; entry [i] maps epoch [i]
    to epoch [i + 1]. *)

val repairs : t -> int
val recomputes : t -> int

val pp : Format.formatter -> t -> unit
