(** Synchronous messaging over an asynchronous network — the protocol
    layer the paper presupposes.

    Synchronous sends are implemented the standard way (Murty & Garg,
    paper ref. [16]): the sender transmits a REQ packet and {e blocks};
    the receiver, once it reaches a matching receive, consumes the REQ and
    replies with an ACK, unblocking the sender. The paper's Figure 5
    piggybacks its vectors on exactly these two packets: the REQ carries
    the sender's vector, the ACK the receiver's pre-merge vector, and both
    sides then agree on the message's timestamp.

    Running a set of {!Script} processes yields the {e induced}
    synchronous computation: messages ordered by their rendezvous instants
    (the moment the receiver consumes the REQ). The sender is blocked
    around that instant, so per-process event orders are consistent and
    the induced computation is always synchronizable — property-tested.

    Deadlock note: scripts projected from a valid synchronous trace with
    [Recv_from] pairing never deadlock (the original linearization
    schedules them); with [Recv_any] matching is first-come-first-served
    and remains deadlock-free for projected scripts, but hand-written
    scripts can of course deadlock — the outcome reports who got stuck and
    the induced prefix is still a valid computation.

    {2 Fault injection}

    Passing [?faults] (a {!Synts_fault.Injector.t}) subjects the run to
    a declarative fault plan: crash-stop and crash-recover of processes,
    partition windows, packet duplication, bit-flip corruption and delay
    spikes. The protocol degrades gracefully rather than hanging or
    losing exactness:

    - Timestamps travel wire-encoded with a checksum frame; a corrupted
      packet is rejected on receipt and behaves like a loss —
      retransmission (with exponential backoff) and the dedup table
      recover the rendezvous.
    - A sender that exhausts [max_retransmits] {e aborts} the send and
      fail-stops its script; it is reported in [gave_up], never silently
      among the deadlocked.
    - A crash erases a process's volatile state (packet inbox, live
      vector); its durable state — script position, sequence counter,
      dedup table, and a checkpoint of the Figure 5 vector refreshed
      after every clock update — survives. On recovery the vector is
      restored and any in-flight send is retransmitted, so the recovered
      process resumes with {e exact} timestamps (property tested: every
      delivered message's vector equals the offline oracle's under any
      generated plan). *)

type outcome = {
  trace : Synts_sync.Trace.t;
      (** The induced synchronous computation (rendezvous order), including
          the prefix executed before any deadlock, crash or abort. *)
  timestamps : Synts_clock.Vector.t array option;
      (** Per message of [trace], when a decomposition was supplied. *)
  deadlocked : int list;
      (** Live processes whose script did not complete (excludes
          [gave_up] and [crashed]). *)
  gave_up : int list;
      (** Senders that exhausted [max_retransmits] and aborted. *)
  crashed : int list;  (** Processes down at the end of the run. *)
  recovered : int list;  (** Processes that crashed and came back. *)
  packets : int;  (** Packets transmitted (2 per message when lossless). *)
  lost : int;  (** Packets dropped (random loss + partition windows). *)
  duplicated : int;  (** Packets delivered twice by fault injection. *)
  corrupted : int;  (** Packets bit-flipped by fault injection. *)
  makespan : float;  (** Simulated completion time. *)
}

val run :
  ?seed:int ->
  ?min_delay:float ->
  ?max_delay:float ->
  ?fifo:bool ->
  ?loss:float ->
  ?retransmit:float ->
  ?max_retransmits:int ->
  ?faults:Synts_fault.Injector.t ->
  ?checksum:bool ->
  ?decomposition:Synts_graph.Decomposition.t ->
  ?sink:Synts_ingest.Ingest.sink ->
  Script.t array ->
  outcome
(** Execute the scripts (index = process id) over the simulated network.
    Deterministic from [seed] (and the injector's own seed when faults
    are supplied).

    [sink] shadows the run through the unified
    {!Synts_ingest.Ingest.S} interface: each rendezvous instant is
    forwarded as [Message {src; dst}] and each internal step as
    [Internal {proc}], in induced-computation order, so a session or the
    [synts serve] engine can independently stamp the same computation
    the protocol layer executes.

    With [loss > 0] (default 0; [1.0] allowed — everything drops), each
    packet independently drops with that probability; senders then
    retransmit unacknowledged REQs, starting [retransmit] time units out
    (default 40) and doubling the interval on every attempt (capped),
    up to [max_retransmits] attempts (default 60) before giving up.
    Receivers deduplicate by per-sender sequence number, replaying the
    stored ACK for already-consumed requests — so each rendezvous still
    happens exactly once and timestamps stay exact (property tested).

    [faults] attaches a fault plan (validated against the process count
    — raises [Invalid_argument] on a bad plan); [checksum] (default
    true) frames wire-encoded vectors with a {!Synts_clock.Wire.checksum}
    so corrupted payloads are rejected instead of silently skewing
    timestamps — turning it off under a corrupting plan is how the
    degradation is demonstrated. *)
