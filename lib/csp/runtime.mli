(** A CSP-style synchronous message-passing runtime on OCaml effects.

    The paper targets programs written against synchronous communication —
    CSP, Ada rendezvous, synchronous RPC. This runtime provides exactly
    that substrate: processes are cooperative fibers (one-shot
    continuations via effect handlers), [send] blocks until the matching
    [recv] (rendezvous), scheduling is deterministic from a seed, and every
    rendezvous is recorded so a finished run yields the synchronous
    {!Synts_sync.Trace.t} it denotes.

    When an edge decomposition is supplied, the runtime runs the paper's
    Figure 5 protocol as middleware: each rendezvous piggybacks the
    sender's vector, acknowledges with the receiver's, and hands both
    parties the message's timestamp.

    The runtime is a functor over the payload type, since OCaml effect
    declarations are monomorphic. *)

module Make (M : sig
  type msg
end) : sig
  type api = {
    self : int;  (** This process's id. *)
    send : int -> M.msg -> Synts_clock.Vector.t option;
        (** [send dst m] blocks until [dst] receives; returns the message's
            timestamp when timestamping is on. *)
    recv : unit -> int * M.msg * Synts_clock.Vector.t option;
        (** Receive from any process (blocking). *)
    recv_from : int -> M.msg * Synts_clock.Vector.t option;
        (** Receive from one specific process (blocking). *)
    yield : unit -> unit;  (** Let another fiber run. *)
    internal : unit -> unit;  (** Record an internal event in the trace. *)
  }

  type outcome = {
    trace : Synts_sync.Trace.t;
        (** The synchronous computation that was executed. *)
    timestamps : Synts_clock.Vector.t array option;
        (** Per message id, when a decomposition was supplied. *)
    deadlocked : int list;
        (** Pids blocked forever (empty = every fiber terminated).
            Includes fibers left waiting on a crashed peer. *)
    crashed : int list;  (** Fibers fail-stopped by the fault plan. *)
    failures : (int * exn) list;  (** Fibers that raised. *)
  }

  exception Step_limit_exceeded

  val run :
    ?seed:int ->
    ?decomposition:Synts_graph.Decomposition.t ->
    ?on_stamp:(src:int -> dst:int -> Synts_clock.Vector.t -> unit) ->
    ?sink:Synts_ingest.Ingest.sink ->
    ?max_steps:int ->
    ?faults:Synts_fault.Plan.t ->
    n:int ->
    (api -> unit) array ->
    outcome
  (** [run ~n programs] executes [programs.(p)] as process [p]
      ([Array.length programs = n]). Scheduling and rendezvous matching
      are pseudo-random but fully determined by [seed] (default 0).
      [max_steps] (scheduler dispatches) guards against divergence; raises
      {!Step_limit_exceeded} beyond it. [on_stamp] observes every
      message's timestamp as its rendezvous completes (only called when
      timestamping is on) — the hook point for running the runtime under a
      sanitizer such as [Synts_lint.Lint.Sanitizer], which needs the
      runtime's own stamps rather than an independent re-stamping.

      [sink] is the {!Synts_ingest.Ingest.S} convergence path: every
      rendezvous is forwarded as [Message {src; dst}] and every internal
      event as [Internal {proc}], in scheduler order, so any ingest
      implementation — a {!Synts_session.Session}, the [synts serve]
      engine, or a remote server client — can shadow the run and stamp
      the same computation.

      [faults] (default empty; validated against [n]) applies the crash
      clauses of a fault plan, with crash times read as scheduler
      dispatch counts: the fiber is fail-stopped, reported in [crashed],
      and peers blocked on it surface in [deadlocked]. Fibers hold
      one-shot continuations — there is no process image to restore — so
      [Crash_recover] degrades to crash-stop here; network-level clauses
      (loss, duplication, corruption, partitions, spikes) do not apply
      to an in-memory rendezvous and are ignored. Full crash-{e recover}
      semantics live in {!Synts_net.Rendezvous}. *)

  val explore :
    ?decomposition:Synts_graph.Decomposition.t ->
    ?max_steps:int ->
    n:int ->
    seeds:int list ->
    (api -> unit) array ->
    (int * outcome) list
  (** Run the same programs under many seeded schedules and return one
      [(seed, outcome)] per {e distinct} trace (first seed wins) — a
      lightweight schedule-space search, e.g. for hunting rendezvous
      deadlocks. Programs must be rerunnable (no shared mutable state
      across runs). *)

  exception Replay_divergence of string
  (** The program did something other than what the trace prescribes. *)

  val replay :
    ?decomposition:Synts_graph.Decomposition.t ->
    ?on_stamp:(src:int -> dst:int -> Synts_clock.Vector.t -> unit) ->
    ?sink:Synts_ingest.Ingest.sink ->
    trace:Synts_sync.Trace.t ->
    (api -> unit) array ->
    outcome
  (** Deterministic replay: re-execute the programs forcing every
      rendezvous, internal event and matching decision to follow [trace]
      (recorded by an earlier {!run}). Yields are transparent. Raises
      {!Replay_divergence} when a program's next action contradicts the
      trace — which also makes replay a conformance check between a
      program and a log. Fibers with actions remaining after the trace is
      exhausted are reported in [deadlocked]. *)

  (** Reusable program fragments for the communication shapes the paper
      discusses (synchronous RPC, pipelines, broadcast trees). *)
  module Pattern : sig
    val rpc_server :
      requests:int -> handler:(int -> M.msg -> M.msg) -> api -> unit
    (** Serve exactly [requests] calls: receive from anyone, apply
        [handler client payload], reply synchronously. *)

    val rpc_call :
      api -> server:int -> M.msg -> M.msg * Synts_clock.Vector.t option
    (** One synchronous call: send, then block for the reply; returns the
        reply and the reply message's timestamp. *)

    val relay :
      next:int -> items:int -> transform:(M.msg -> M.msg) -> api -> unit
    (** Pipeline stage: forward [items] transformed messages downstream. *)

    val broadcast : api -> int list -> M.msg -> unit
    (** Send the same payload to each listed process, in order (each send
        is a separate rendezvous). *)

    val gather : api -> int -> (int * M.msg) list
    (** Receive [k] messages from anyone; returns (sender, payload) in
        arrival order. *)
  end
end
