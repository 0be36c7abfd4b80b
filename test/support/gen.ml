(* QCheck generators shared by the test suites. *)

module Rng = Synts_util.Rng
module Graph = Synts_graph.Graph
module Topology = Synts_graph.Topology
module Trace = Synts_sync.Trace
module Workload = Synts_workload.Workload
module Ingest = Synts_ingest.Ingest
module Protocol = Synts_server.Protocol

(* A deterministic Rng seeded from QCheck's random state, so shrinking and
   reproduction work through a single integer. *)
let rng_seed = QCheck2.Gen.int_bound 1_000_000

let topology_spec : Topology.spec QCheck2.Gen.t =
  let open QCheck2.Gen in
  oneof
    [
      map (fun n -> Topology.Star (n + 2)) (int_bound 10);
      return Topology.Triangle;
      map (fun n -> Topology.Complete (n + 3)) (int_bound 5);
      map (fun n -> Topology.Path (n + 2)) (int_bound 10);
      map (fun n -> Topology.Ring (n + 3)) (int_bound 8);
      map2
        (fun s c -> Topology.Client_server (s + 1, c + 1))
        (int_bound 3) (int_bound 8);
      map (fun t -> Topology.Disjoint_triangles (t + 1)) (int_bound 3);
      map (fun n -> Topology.Random_tree (n + 2)) (int_bound 12);
      map2
        (fun n p -> Topology.Random_connected (n + 3, 0.1 +. p))
        (int_bound 8)
        (float_bound_inclusive 0.5);
      return Topology.Fig4;
      return Topology.Fig2b;
    ]

let graph_of_spec seed spec = Topology.build ~rng:(Rng.create seed) spec

(* A random synchronous computation: topology + message count + seed. *)
type computation = {
  spec : Topology.spec;
  seed : int;
  messages : int;
  internal_prob : float;
}

let computation : computation QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* spec = topology_spec in
  let* seed = rng_seed in
  let* messages = int_range 0 80 in
  let* internal_prob = float_bound_inclusive 0.4 in
  return { spec; seed; messages; internal_prob }

let computation_print c =
  Printf.sprintf "{topology=%s; seed=%d; messages=%d; internal=%.2f}"
    (Topology.spec_to_string c.spec)
    c.seed c.messages c.internal_prob

let build_computation c =
  let g = graph_of_spec c.seed c.spec in
  let trace =
    Workload.random (Rng.create (c.seed + 1)) ~topology:g ~messages:c.messages
      ~internal_prob:c.internal_prob ()
  in
  (g, trace)

(* Small sparse-ish random graphs for exact-solver comparisons. *)
let small_graph : (int * (int * int) list) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 2 9 in
  let* seed = rng_seed in
  let rng = Rng.create seed in
  let* p = float_range 0.15 0.7 in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Rng.chance rng p then edges := (i, j) :: !edges
    done
  done;
  return (n, !edges)

let small_graph_print (n, edges) =
  Printf.sprintf "n=%d edges=[%s]" n
    (String.concat "; "
       (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) edges))

(* Random posets for realizer / width properties. *)
let poset : Synts_poset.Poset.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 0 40 in
  let* seed = rng_seed in
  let* p = float_bound_inclusive 0.5 in
  return (Synts_poset.Poset.random (Rng.create seed) n p)

let tiny_poset : Synts_poset.Poset.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 1 6 in
  let* seed = rng_seed in
  let* p = float_bound_inclusive 0.6 in
  return (Synts_poset.Poset.random (Rng.create seed) n p)

(* ---------- serve data-plane messages ---------- *)

(* Components up to 2^61 - 1 reach the delta coder's range limits
   (any two differ by less than 2^61) without leaving it. *)
let stamp_vector =
  QCheck2.Gen.(
    array_size (int_bound 6)
      (oneof [ int_bound 1000; int_bound ((1 lsl 61) - 1) ]))

let serve_event =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun src dst -> Ingest.Message { src; dst }) (int_bound 40)
          (int_bound 40);
        map (fun proc -> Ingest.Internal { proc }) (int_bound 40);
      ])

let serve_request =
  QCheck2.Gen.(
    oneof
      [
        return Protocol.Hello;
        map2
          (fun seq events -> Protocol.Observe { seq; events })
          (int_bound 10000)
          (array_size (int_bound 20) serve_event);
        return Protocol.Drain;
        return Protocol.Finish;
        return Protocol.Verify;
        return Protocol.Stats;
        map (fun s -> Protocol.Churn s) (string_size (int_bound 30));
        return Protocol.Shutdown;
      ])

let serve_stamp =
  QCheck2.Gen.(
    let* proc = int_bound 40 in
    let* prev = stamp_vector in
    let* succ = option stamp_vector in
    let* counter = int_bound 100 in
    return { Synts_core.Internal_events.proc; prev; succ; counter })

let serve_response =
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun (processes, dimension) epoch ->
            Protocol.Welcome { processes; dimension; epoch })
          (pair (int_bound 100) (int_bound 100))
          (int_bound 50);
        map
          (fun outcomes -> Protocol.Outcomes outcomes)
          (array_size (int_bound 20)
             (oneof
                [
                  map (fun v -> Ingest.Stamped v) stamp_vector;
                  map (fun t -> Ingest.Deferred t) (int_bound 10000);
                ]));
        map
          (fun rs -> Protocol.Resolved rs)
          (list_size (int_bound 10) (pair (int_bound 10000) serve_stamp));
        map2
          (fun ok checked -> Protocol.Verified { ok; checked })
          bool (int_bound 10000);
        map2
          (fun (clients, batches, messages, internal) (dropped, pending) ->
            Protocol.Stats_r
              { clients; batches; messages; internal; dropped; pending })
          (quad (int_bound 100) (int_bound 1000) (int_bound 1000)
             (int_bound 1000))
          (pair (int_bound 1000) (int_bound 1000));
        map
          (fun (epoch, processes, dimension) ->
            Protocol.Epoch_r { epoch; processes; dimension })
          (triple (int_bound 50) (int_bound 100) (int_bound 100));
        map (fun e -> Protocol.Error_r e) (string_size (int_bound 40));
        return Protocol.Bye;
      ])

(* ---------- hostile decoder input ---------- *)

(* Arbitrary bytes, or one valid encoding with a single byte replaced or
   cut short — the inputs that reach a decoder's bounds checks. *)
let hostile (valid : string QCheck2.Gen.t) : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  oneof
    [
      string_size (int_bound 48);
      (let* s = valid and* i = nat and* c = char in
       if s = "" then return s
       else begin
         let b = Bytes.of_string s in
         Bytes.set b (i mod String.length s) c;
         return (Bytes.to_string b)
       end);
      (let* s = valid and* i = nat in
       return (String.sub s 0 (i mod (String.length s + 1))));
    ]

(* One LEB128 varint, for hand-built hostile messages. *)
let varint v =
  let w = Synts_clock.Wire.writer 9 in
  Synts_clock.Wire.put_varint w v;
  Synts_clock.Wire.contents w

let hex s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

(* A total decoder never raises, and whatever it accepts re-encodes to
   exactly the input: [encodes s x] says whether [x] encodes to [s]. *)
let total_decoder decode encodes s =
  match decode s with
  | Ok x -> encodes s x
  | Error _ -> true
  | exception e ->
      QCheck2.Test.fail_reportf "decoder raised %s" (Printexc.to_string e)
