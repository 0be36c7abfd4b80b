(** Flat slab of fixed-width timestamps.

    A store holds [rows] timestamps of [dim] components each in one
    contiguous [int array]; row [r] occupies words [r*dim .. r*dim+dim-1].
    The stamping kernel {!Sync_clock} appends one row per message into a
    store instead of allocating a fresh vector per message, so a whole
    trace costs one slab (amortised by doubling) rather than M short-lived
    arrays; every Fig. 5, Fidge–Mattern, Singhal–Kshemkalyani and
    plausible sweep runs on it. Rows are addressed by index; [get] copies
    a row out as an ordinary {!Vector.t} when callers need a standalone
    value.

    Every component stays between 0 and [max_int]: the writers refuse
    a negative value or an increment past [max_int]. Components are
    message counts, and the bound is what lets {!push_merge} take its
    max without a branch. *)

type t

val create : ?capacity:int -> int -> t
(** [create ?capacity dim] makes an empty store of [dim]-component rows.
    [capacity] (default 64) is the initial row capacity; the slab doubles
    as needed. [dim = 0] is allowed (degenerate decompositions produce
    zero-width stamps); negative [dim] raises [Invalid_argument]. *)

val dim : t -> int
val rows : t -> int

val clear : t -> unit
(** Forget all rows (capacity is kept). *)

val truncate : t -> int -> unit
(** Keep only the first [k] rows ({!Sync_clock} settles streaming clocks
    into the front rows and drops the rest). *)

(** {1 Appending} — each returns the new row's index. *)

val push_zero : t -> int
(** Append an all-zero row. *)

val push : t -> Vector.t -> int
(** Append a copy of a vector. Raises [Invalid_argument] on size
    mismatch or a negative component. *)

val push_merge : t -> a:int -> b:int -> int
(** [push_merge t ~a ~b] appends the componentwise maximum of rows [a]
    and [b] — one fused, branch-free pass over the slab, no
    intermediate vector. *)

(** {1 In-place row updates} *)

val row_incr : t -> int -> int -> unit
(** [row_incr t r k] increments component [k] of row [r]. Raises
    [Invalid_argument] when the component is already [max_int]. *)

val row_set : t -> int -> int -> int -> unit
(** [row_set t r k v] writes component [k] of row [r]. Raises
    [Invalid_argument] when [v] is negative. *)

val blit_rows : t -> src:int -> dst:int -> unit
(** Overwrite row [dst] with row [src] ([src = dst] leaves it as it
    is). *)

(** {1 Reading} *)

val get : t -> int -> Vector.t
(** Copy row [r] out as a fresh vector. *)

val data : t -> int array
(** The slab itself: row [r] is words [r * dim t .. r * dim t + dim t - 1].
    Valid until the next push, which may move the slab. Only the kernel
    ({!Sync_clock.stamp_home}) writes through it, keeping every
    component in [0, max_int]; everyone else only reads it. *)

val diff_count : t -> int -> int -> int
(** Number of components on which the two rows differ (the
    Singhal–Kshemkalyani "entries that changed since last send"). *)
