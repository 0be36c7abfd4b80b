(** Singhal–Kshemkalyani differential vector transmission.

    Processes still keep full Fidge–Mattern vectors but piggyback only the
    [(index, value)] pairs that changed since the last exchange with the
    same peer. Produces exactly the {!Fm_sync} timestamps; what differs is
    the wire cost, which {!simulate} measures so the benchmark suite can
    compare it with the paper's O(d) piggybacking. *)

type stats = {
  messages : int;  (** Program messages (each also carries one ack). *)
  entries_sent : int;
      (** Total [(index, value)] pairs carried by all messages and acks. *)
  full_entries : int;
      (** What plain FM would have carried: [2 * N * messages]. *)
}

val simulate : Synts_sync.Trace.t -> Vector.t array * stats
(** Timestamps (identical to [Fm_sync.timestamp_trace]) plus wire cost.
    Stamps on the {!Sync_clock} kernel with the Fidge–Mattern bumps; the
    last payload per channel is a row index into its slab, so the sweep
    copies no vector per message. *)

val simulate_reference : Synts_sync.Trace.t -> Vector.t array * stats
(** The pre-slab seed implementation (equivalence oracle for tests). *)

val average_entries_per_message : stats -> float
(** [entries_sent / messages] — counting each entry as two words (index
    and value) is left to the caller. *)
