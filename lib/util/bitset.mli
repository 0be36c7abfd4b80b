(** Fixed-capacity bitsets backed by [Bytes]-free int arrays.

    Used heavily for transitive closures (posets over thousands of messages)
    where word-parallel [union]/[subset] make the Warshall closure feasible,
    and as dense vertex/edge sets in graph algorithms. *)

type t
(** A set of integers in [\[0, capacity)]. Mutable. *)

val create : int -> t
(** [create n] is the empty set with capacity [n] ([n >= 0]). *)

val capacity : t -> int
(** Maximum element count the set can hold. *)

val mem : t -> int -> bool
(** Membership test; raises [Invalid_argument] when out of range. *)

val add : t -> int -> unit
(** Insert an element. *)

val remove : t -> int -> unit
(** Delete an element. *)

val cardinal : t -> int
(** Number of elements (popcount). *)

val is_empty : t -> bool

val copy : t -> t
(** Independent copy. *)

val clear : t -> unit
(** Remove all elements. *)

val fill : t -> unit
(** Add every element of [\[0, capacity)]. *)

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] sets [dst := dst ∪ src]. Capacities must match. *)

val inter_into : dst:t -> t -> unit
(** [inter_into ~dst src] sets [dst := dst ∩ src]. Capacities must match. *)

val diff_into : dst:t -> t -> unit
(** [diff_into ~dst src] sets [dst := dst \ src]. Capacities must match. *)

val subset : t -> t -> bool
(** [subset a b] is true iff every element of [a] is in [b]. *)

val equal : t -> t -> bool

val iter : (int -> unit) -> t -> unit
(** Iterate elements in increasing order. *)

val lowest_bit : int -> int
(** [lowest_bit x] is the position (0 to 62) of the lowest set bit of a
    non-zero word, found in constant steps by a de Bruijn multiply;
    bit 62 is the sign bit. Undefined for [0]. {!iter} and the searches
    below use it. *)

val first_inter : t -> t -> int
(** [first_inter a b] is the smallest element of [a ∩ b], or [-1] when
    they are disjoint, without materialising the intersection.
    Capacities must match. *)

val first_diff : from:int -> t -> t -> int
(** [first_diff ~from a b] is the smallest element of [a \ b] that is at
    least [from] ([from >= 0]), or [-1] when there is none; bits are
    skipped a word at a time. The streaming matching kernel walks one
    ancestor row minus its visited set with it, calling again from one
    past the last answer after [b] has grown. Capacities must match. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over elements in increasing order. *)

val elements : t -> int list
(** Elements in increasing order. *)

val of_list : int -> int list -> t
(** [of_list n l] is the set with capacity [n] holding the elements of
    [l]. *)

val choose_opt : t -> int option
(** Smallest element, if any. *)

val pp : Format.formatter -> t -> unit
(** Prints as [{0, 3, 7}]. *)
