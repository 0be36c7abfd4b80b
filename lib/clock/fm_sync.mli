(** Fidge–Mattern message timestamps for synchronous computations — the
    N-component baseline the paper improves on.

    One component per process. For a message between [Pi] and [Pj], the two
    processes exchange vectors (the message and its acknowledgement), take
    the componentwise maximum and each increments its own component; the
    resulting common vector is the message's timestamp. This encodes
    [(M, ↦)] exactly, at O(N) space and piggyback cost per message. *)

val timestamp_trace : Synts_sync.Trace.t -> Vector.t array
(** One N-sized vector per message id. *)

val timestamp_store :
  ?store:Stamp_store.t ->
  ?rows:int array ->
  Synts_sync.Trace.t ->
  Stamp_store.t * int array
(** Zero-allocation form: stamps land in a {!Stamp_store} slab through
    the {!Sync_clock} kernel (bumps [a = src], [b = dst]); the returned
    array maps message id to slab row. [?store]/[?rows] allow buffer
    reuse across traces. *)

val timestamp_trace_reference : Synts_sync.Trace.t -> Vector.t array
(** The pre-slab seed implementation (equivalence oracle for tests). *)

val precedes : Vector.t -> Vector.t -> bool
(** [Vector.lt]. *)

val entries_per_message : n:int -> int
(** Piggyback cost in vector entries for one message + acknowledgement:
    [2 * n]. *)
