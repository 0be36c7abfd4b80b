(* The three workloads and the seeded request stream each one drives.

   The whole stream is drawn from the seed before the daemon starts:
   events are stored as compact codes, and the client only packs them
   into request values as it sends them. *)

module Graph = Synts_graph.Graph
module Topology = Synts_graph.Topology
module Decomposition = Synts_graph.Decomposition
module Membership = Synts_graph.Membership
module Ingest = Synts_ingest.Ingest
module Rng = Synts_util.Rng

type t = {
  name : string;
  spec : string;  (** Topology spec handed to [synts serve]. *)
  offline : bool;  (** [synts serve --offline]. *)
  batch : int;  (** Events per [Observe]. *)
  inflight : int;  (** Requests kept in flight on the one connection. *)
  drain_every : int;  (** A [Drain] after this many [Observe]s. *)
  churn_every : int;  (** A membership delta after this many [Observe]s; 0 = none. *)
  peak_events_per_s : int;
      (** Generous ceiling on throughput, used only to size the stream. *)
}

let internal_share = 0.1

let all =
  [
    { name = "rpc-cs"; spec = "cs:8x248"; offline = false; batch = 1;
      inflight = 1; drain_every = 64; churn_every = 32768;
      peak_events_per_s = 320_000 };
    { name = "bulk-gnp"; spec = "gnp:64:0.3"; offline = false; batch = 64;
      inflight = 16; drain_every = 16; churn_every = 0;
      peak_events_per_s = 900_000 };
    { name = "offline-cs"; spec = "cs:8x248"; offline = true; batch = 32;
      inflight = 1; drain_every = 64; churn_every = 0;
      peak_events_per_s = 200_000 };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The graph and decomposition [synts serve --seed SEED SPEC] builds:
   the same generator, seeded the same way, then [Decomposition.best]. *)
let topology w ~seed =
  match Topology.spec_of_string w.spec with
  | Error e -> invalid_arg e
  | Ok spec -> Topology.build ~rng:(Rng.create seed) spec

(* {1 The request stream} *)

type op =
  | Observe of int  (** The [i]-th observe: events [i * batch ..]. *)
  | Drain
  | Churn of int  (** Apply delta [k]. *)

(* Event codes: [2 * channel + direction] for a message, [-1 - proc] for
   an internal event. *)
type stream = {
  workload : t;
  n : int;  (** Processes at epoch 0. *)
  codes : (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t;
  messages : Ingest.event array;  (** Shared event values, by code. *)
  internals : Ingest.event array;
  observes : int;  (** Observes the stream holds. *)
  deltas : Membership.delta array;  (** [Churn k] applies [deltas.(k)]. *)
}

let channels d =
  Array.of_list
    (List.concat_map Decomposition.edges_of_group (Decomposition.groups d))

(* Fresh clients join on one of the best-connected processes (the
   servers of a client-server topology) and leave again one delta
   later; the process ids of leavers are never reused. *)
let churn_deltas rng g count =
  let n = Graph.n g in
  let hubs =
    let top = Graph.max_degree g in
    Array.of_list (List.filter (fun v -> Graph.degree g v = top) (Graph.vertices g))
  in
  Array.init count (fun k ->
      let fresh = n + (k / 2) in
      if k mod 2 = 0 then
        Membership.Join { proc = fresh; edges = [ (Rng.pick_array rng hubs, fresh) ] }
      else Membership.Leave fresh)

let make w ~seed ~seconds ~warmup d =
  let g_n = Decomposition.graph_vertices d in
  let channels = channels d in
  if Array.length channels = 0 then invalid_arg "workload has no channels";
  let capacity =
    let events = int_of_float (float w.peak_events_per_s *. (seconds +. warmup)) in
    max w.batch (events / w.batch * w.batch)
  in
  let rng = Rng.create ((seed * 0x2545F491) + 17) in
  let codes = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout capacity in
  for i = 0 to capacity - 1 do
    let code =
      if Rng.chance rng internal_share then -1 - Rng.int rng g_n
      else (2 * Rng.int rng (Array.length channels)) + if Rng.bool rng then 1 else 0
    in
    Bigarray.Array1.unsafe_set codes i (Int32.of_int code)
  done;
  let observes = capacity / w.batch in
  let churns = if w.churn_every > 0 then observes / w.churn_every else 0 in
  let messages =
    Array.init (2 * Array.length channels) (fun c ->
        let u, v = channels.(c / 2) in
        if c mod 2 = 0 then Ingest.Message { src = u; dst = v }
        else Ingest.Message { src = v; dst = u })
  in
  {
    workload = w;
    n = g_n;
    codes;
    messages;
    internals = Array.init g_n (fun p -> Ingest.Internal { proc = p });
    observes;
    deltas = churn_deltas rng (Synts_graph.Graph.of_edges g_n (Array.to_list channels)) churns;
  }

let event s i =
  let code = Int32.to_int (Bigarray.Array1.unsafe_get s.codes i) in
  if code >= 0 then Array.unsafe_get s.messages code
  else Array.unsafe_get s.internals (-1 - code)

(* The events of observe [i]. *)
let events s i =
  let b = s.workload.batch in
  Array.init b (fun j -> event s ((i * b) + j))

(* The stream's requests in send order: observe [i], then a [Drain] when
   [i + 1] is a multiple of [drain_every], then a delta when it is a
   multiple of [churn_every]. Walked once by the client and again, from
   the start, by the checker and the twin. *)
type cursor = { stream : stream; mutable next_observe : int; mutable queued : op list }

let cursor stream = { stream; next_observe = 0; queued = [] }

let next c =
  match c.queued with
  | op :: rest ->
      c.queued <- rest;
      Some op
  | [] ->
      let w = c.stream.workload in
      let i = c.next_observe in
      if i >= c.stream.observes then None
      else begin
        c.next_observe <- i + 1;
        let done_ = i + 1 in
        let churn =
          if w.churn_every > 0 && done_ mod w.churn_every = 0 then
            [ Churn ((done_ / w.churn_every) - 1) ]
          else []
        in
        c.queued <- (if done_ mod w.drain_every = 0 then Drain :: churn else churn);
        Some (Observe i)
      end

(* The protocol request for [op]; observe [i] carries sequence number
   [i], as observes are the only sequenced requests on the connection. *)
let request s = function
  | Observe i -> Synts_server.Protocol.Observe { seq = i; events = events s i }
  | Drain -> Synts_server.Protocol.Drain
  | Churn k -> Synts_server.Protocol.Churn (Membership.delta_to_string s.deltas.(k))
