module Graph = Synts_graph.Graph
module Topology = Synts_graph.Topology
module Decomposition = Synts_graph.Decomposition
module Vertex_cover = Synts_graph.Vertex_cover
module Trace = Synts_sync.Trace
module Examples = Synts_sync.Examples
module Message_poset = Synts_sync.Message_poset
module Poset = Synts_poset.Poset
module Dilworth = Synts_poset.Dilworth
module Vector = Synts_clock.Vector
module Edge_clock = Synts_core.Edge_clock
module Online = Synts_core.Online
module Offline = Synts_core.Offline
module Internal_events = Synts_core.Internal_events
module Validate = Synts_check.Validate
module Oracle = Synts_check.Oracle
module Workload = Synts_workload.Workload
module Rng = Synts_util.Rng
module Gen = Synts_test_support.Gen

let qtest ?(count = 150) name gen print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen f)

let decomposition_of c trace =
  let g, _ = Gen.build_computation c in
  (* The workload only uses topology edges, so the decomposition of the
     full topology covers the trace. *)
  ignore trace;
  Decomposition.best g

(* ---------- Edge_clock protocol ---------- *)

let test_edge_clock_fig5 () =
  (* Hand-run the paper's Figure 5 on a triangle. *)
  let d = Decomposition.paper (Topology.triangle ()) in
  Alcotest.(check int) "triangle is one group" 1 (Decomposition.size d);
  let p0 = Edge_clock.create d ~pid:0 and p1 = Edge_clock.create d ~pid:1 in
  let payload = Edge_clock.on_send p0 ~dst:1 in
  Alcotest.(check string) "payload is initial vector" "(0)"
    (Vector.to_string payload);
  let `Ack ack, ts1 = Edge_clock.receive p1 ~src:0 payload in
  Alcotest.(check string) "ack carries pre-merge vector" "(0)"
    (Vector.to_string ack);
  let ts0 = Edge_clock.on_ack p0 ~dst:1 ack in
  Alcotest.(check bool) "same timestamp" true (Vector.equal ts0 ts1);
  Alcotest.(check string) "timestamp (1)" "(1)" (Vector.to_string ts1);
  Alcotest.(check int) "dimension" 1 (Edge_clock.dimension p0)

let test_edge_clock_rejects_foreign_channel () =
  let d = Decomposition.paper (Topology.star 4) in
  let p1 = Edge_clock.create d ~pid:1 in
  (* Star rooted at 0: the channel (1, 2) does not exist. *)
  match Edge_clock.on_send p1 ~dst:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "foreign channel accepted"

let test_edge_clock_bad_pid () =
  let d = Decomposition.paper (Topology.star 4) in
  match Edge_clock.create d ~pid:7 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range pid accepted"

(* ---------- Figure 6 ---------- *)

let test_fig6_timestamps () =
  let trace = Examples.fig6 () in
  let d = Examples.fig6_decomposition () in
  let ts = Online.timestamp_trace d trace in
  List.iter
    (fun (id, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "m%d" (id + 1))
        (Vector.to_string expected)
        (Vector.to_string ts.(id)))
    Examples.fig6_expected;
  (* The narrated case: P2->P3 is stamped (1,1,1). *)
  Alcotest.(check string) "paper narration" "(1,1,1)"
    (Vector.to_string ts.(2))

(* ---------- Theorem 4: online exactness ---------- *)

let test_theorem4 =
  qtest ~count:250 "Theorem 4: online timestamps encode the poset exactly"
    Gen.computation Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      let d = decomposition_of c trace in
      Validate.ok
        (Validate.message_timestamps trace (Online.timestamp_trace d trace)))

let test_protocol_agrees =
  qtest "packet-level protocol equals whole-trace sweep" Gen.computation
    Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      let d = decomposition_of c trace in
      Array.for_all2 Vector.equal
        (Online.timestamp_trace d trace)
        (Online.timestamp_trace_protocol d trace))

let test_stamper_agrees =
  qtest "streaming stamper equals whole-trace sweep" Gen.computation
    Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      let d = decomposition_of c trace in
      let stamp = Online.stamper d in
      let expected = Online.timestamp_trace_reference d trace in
      Array.for_all
        (fun (m : Trace.message) ->
          Vector.equal
            (stamp ~src:m.Trace.src ~dst:m.Trace.dst)
            expected.(m.Trace.id))
        (Trace.messages trace))

let test_online_any_decomposition =
  (* Theorem 4 holds for any valid decomposition, not just the best one. *)
  qtest ~count:100 "exactness with the sequential decomposition"
    Gen.computation Gen.computation_print (fun c ->
      let g, trace = Gen.build_computation c in
      let d = Decomposition.sequential g in
      Validate.ok
        (Validate.message_timestamps trace (Online.timestamp_trace d trace)))

let test_online_vector_size =
  qtest "vector size equals decomposition size" Gen.computation
    Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      let d = decomposition_of c trace in
      let ts = Online.timestamp_trace d trace in
      Array.for_all (fun v -> Vector.size v = Decomposition.size d) ts)

let test_online_rejects_uncovered_channel () =
  (* Decomposition of a star does not cover the edge (1,2) used by a
     triangle trace. *)
  let d = Decomposition.paper (Topology.star 3) in
  let trace = Trace.of_steps_exn ~n:3 [ Send (1, 2) ] in
  match Online.timestamp_trace d trace with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "uncovered channel accepted"

(* ---------- Theorem 8 / Figure 9: offline ---------- *)

let test_theorem8_width_bound =
  qtest ~count:250 "Theorem 8: width <= floor(N/2)" Gen.computation
    Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      let w = Dilworth.width (Message_poset.of_trace trace) in
      w <= Offline.width_bound ~n:(Trace.n trace))

let test_offline_exact =
  qtest ~count:250 "Figure 9: offline timestamps encode the poset exactly"
    Gen.computation Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      Validate.ok
        (Validate.message_timestamps trace (Offline.timestamp_trace trace)))

let test_offline_size =
  qtest "offline vectors have width-many components" Gen.computation
    Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      let ts = Offline.timestamp_trace trace in
      let expected = Offline.dimension_used trace in
      expected <= max 1 (Offline.width_bound ~n:(Trace.n trace))
      && Array.for_all (fun v -> Vector.size v = expected) ts)

let test_offline_fig6 () =
  (* The paper notes 2-dimensional vectors suffice for the Figure 6 run. *)
  let trace = Examples.fig6 () in
  Alcotest.(check int) "dimension used" 2 (Offline.dimension_used trace)

(* ---------- streaming offline pipeline ---------- *)

(* The streaming pipeline's contract: same ↦ / concurrent verdict as the
   batch Figure 9 path on every message pair, on any trace. *)
let stream_order_equivalent ?window trace =
  let batch = Offline.timestamp_trace trace in
  let streamed = Offline.stream_trace ?window trace in
  let k = Array.length batch in
  Array.length streamed = k
  &&
  let ok = ref true in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      if
        i <> j
        && Offline.precedes streamed.(i) streamed.(j)
           <> Offline.precedes batch.(i) batch.(j)
      then ok := false
    done
  done;
  !ok

let test_stream_order_equivalent =
  qtest ~count:200 "streamed stamps are order-equivalent to batch"
    Gen.computation Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      stream_order_equivalent trace)

let test_stream_order_equivalent_small_window =
  qtest ~count:200 "order-equivalence survives window retirement"
    Gen.computation Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      stream_order_equivalent ~window:4 trace)

let test_stream_exact =
  qtest ~count:200 "streamed stamps encode the poset exactly"
    Gen.computation Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      Validate.ok (Validate.message_timestamps trace (Offline.stream_trace trace)))

let test_stream_accounting =
  qtest ~count:100 "stream statistics: width bound, message count, memory"
    Gen.computation Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      let s = Offline.Stream.create ~n:(Trace.n trace) () in
      Array.iter
        (fun (m : Trace.message) ->
          ignore (Offline.Stream.observe s ~src:m.Trace.src ~dst:m.Trace.dst))
        (Trace.messages trace);
      let w = Dilworth.width (Message_poset.of_trace trace) in
      Offline.Stream.messages s = Trace.message_count trace
      && Offline.Stream.dimension s >= max 1 w
      && (not (Offline.Stream.exact_width s) || Offline.Stream.width s = w)
      && Offline.Stream.peak_live_words s >= Offline.Stream.live_words s - 1)

(* ---------- Theorem 5 end-to-end ---------- *)

let test_theorem5_end_to_end =
  (* End-to-end form of Theorem 5: using the optimal-cover decomposition
     (or the sequential fallback, whichever is smaller), the timestamps a
     computation actually receives have <= min(beta, N-2) components and
     still encode the poset. *)
  qtest ~count:100 "timestamp size <= min(beta, N-2) and exactness holds"
    Gen.small_graph Gen.small_graph_print (fun (n, edges) ->
      let g = Graph.of_edges n edges in
      if Graph.m g = 0 then true
      else
        match Vertex_cover.exact g with
        | None -> QCheck2.assume_fail ()
        | Some cover -> (
            match Decomposition.of_vertex_cover g cover with
            | Error _ -> false
            | Ok stars ->
                let seq = Decomposition.sequential g in
                let d =
                  if Decomposition.size stars <= Decomposition.size seq then
                    stars
                  else seq
                in
                let trace =
                  Workload.random (Rng.create 42) ~topology:g ~messages:40 ()
                in
                Decomposition.size d <= max 1 (min (List.length cover) (n - 2))
                && Validate.ok
                     (Validate.message_timestamps trace
                        (Online.timestamp_trace d trace))))

(* ---------- Theorem 9: internal events ---------- *)

let test_theorem9 =
  qtest ~count:250 "Theorem 9: internal-event stamps capture happened-before"
    Gen.computation Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      let d = decomposition_of c trace in
      Validate.ok
        (Validate.internal_stamps trace (Internal_events.of_trace d trace)))

let test_theorem9_offline_vectors =
  qtest ~count:120 "Theorem 9 also holds over offline message timestamps"
    Gen.computation Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      let ts = Offline.timestamp_trace trace in
      Validate.ok
        (Validate.internal_stamps trace (Internal_events.of_trace_with ts trace)))

let test_internal_counter () =
  (* Three internal events with no separating message: ordered by counter. *)
  let trace = Trace.of_steps_exn ~n:2 [ Local 0; Local 0; Local 0 ] in
  let d = Decomposition.paper (Topology.star 2) in
  let st = Internal_events.of_trace d trace in
  Alcotest.(check bool) "e0 -> e1" true
    (Internal_events.happened_before st.(0) st.(1));
  Alcotest.(check bool) "e0 -> e2" true
    (Internal_events.happened_before st.(0) st.(2));
  Alcotest.(check bool) "not e2 -> e0" false
    (Internal_events.happened_before st.(2) st.(0))

let test_internal_cross_process_tie () =
  (* The corner case motivating the same-process guard: two messages both
     between P0 and P1, with internal events between them on both sides.
     prev/succ coincide, yet the events are concurrent. *)
  let trace =
    Trace.of_steps_exn ~n:2 [ Send (0, 1); Local 0; Local 1; Send (1, 0) ]
  in
  let d = Decomposition.paper (Topology.star 2) in
  let st = Internal_events.of_trace d trace in
  Alcotest.(check bool) "same surroundings" true
    (Vector.equal st.(0).Internal_events.prev st.(1).Internal_events.prev);
  Alcotest.(check bool) "concurrent despite counters" true
    (Internal_events.concurrent st.(0) st.(1))

let test_internal_infinity () =
  (* An event with no later message happens-before nothing remote. *)
  let trace = Trace.of_steps_exn ~n:2 [ Send (0, 1); Local 0; Local 1 ] in
  let d = Decomposition.paper (Topology.star 2) in
  let st = Internal_events.of_trace d trace in
  Alcotest.(check bool) "succ is infinity" true (st.(0).Internal_events.succ = None);
  Alcotest.(check bool) "e0 (P0) || e1 (P1)" true
    (Internal_events.concurrent st.(0) st.(1))

(* ---------- Groups are chains: the bridge between the two algorithms ---------- *)

let test_groups_form_chain_partition =
  (* Messages of one edge group pairwise share a process (a star's edges
     share the center; a triangle's edges pairwise share endpoints), so
     each group's messages form a chain in (M, ↦). The d groups therefore
     give a chain partition of the poset — which is exactly why
     width ≤ d and the offline algorithm never needs more components than
     the online one. *)
  qtest ~count:200 "each edge group's messages form a chain; width <= d"
    Gen.computation Gen.computation_print (fun c ->
      let g, trace = Gen.build_computation c in
      let d = Decomposition.best g in
      let poset = Message_poset.of_trace trace in
      let by_group = Hashtbl.create 16 in
      Array.iter
        (fun (m : Trace.message) ->
          let grp = Decomposition.group_of_edge d m.Trace.src m.Trace.dst in
          Hashtbl.replace by_group grp
            (m.Trace.id :: Option.value ~default:[] (Hashtbl.find_opt by_group grp)))
        (Trace.messages trace);
      let chains_ok =
        Hashtbl.fold
          (fun _ ids acc -> acc && Dilworth.is_chain poset ids)
          by_group true
      in
      chains_ok
      && (Trace.message_count trace = 0
         || Dilworth.width poset <= Decomposition.size d))

(* ---------- Prefix stability (online = incremental) ---------- *)

let test_online_prefix_stable =
  (* The online algorithm's defining practical property: timestamps never
     change once assigned — stamping any prefix yields a prefix of the
     full run's stamps. *)
  qtest ~count:150 "online stamps are prefix-stable"
    QCheck2.Gen.(pair Gen.computation (int_bound 1000))
    (fun (c, k) -> Printf.sprintf "%s cut=%d" (Gen.computation_print c) k)
    (fun (c, k) ->
      let _, trace = Gen.build_computation c in
      let d = decomposition_of c trace in
      let steps = Trace.steps trace in
      let cut = if steps = [] then 0 else k mod (List.length steps + 1) in
      let prefix =
        Trace.of_steps_exn ~n:(Trace.n trace)
          (List.filteri (fun i _ -> i < cut) steps)
      in
      let full = Online.timestamp_trace d trace in
      let pre = Online.timestamp_trace d prefix in
      Array.for_all2 Vector.equal pre
        (Array.sub full 0 (Array.length pre)))

(* ---------- Event_order: hb between ALL events ---------- *)

module Event_order = Synts_core.Event_order
module Happened_before = Synts_sync.Happened_before

let test_event_order_matches_oracle =
  qtest ~count:200 "event-level hb matches the full-node oracle"
    Gen.computation Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      let d = decomposition_of c trace in
      let eo = Event_order.of_trace d trace in
      let hb = Happened_before.of_trace trace in
      let mcount = Trace.message_count trace in
      let icount = Trace.internal_count trace in
      let node = function
        | Event_order.Message m -> Happened_before.node_of_message trace m
        | Event_order.Internal e -> Happened_before.node_of_internal trace e
      in
      let events =
        List.init mcount (fun m -> Event_order.Message m)
        @ List.init icount (fun e -> Event_order.Internal e)
      in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              a = b
              || Event_order.happened_before eo a b
                 = Poset.lt hb (node a) (node b))
            events)
        events)

let test_event_order_mixed_cases () =
  (* P0: e0, m0(P0->P1); P1: m0, e1, m1(P1->P0). *)
  let trace =
    Trace.of_steps_exn ~n:2 [ Local 0; Send (0, 1); Local 1; Send (1, 0) ]
  in
  let d = Decomposition.best (Trace.topology trace) in
  let eo = Event_order.of_trace d trace in
  let open Event_order in
  Alcotest.(check bool) "e0 -> m0" true
    (happened_before eo (Internal 0) (Message 0));
  Alcotest.(check bool) "m0 -> e1" true
    (happened_before eo (Message 0) (Internal 1));
  Alcotest.(check bool) "e0 -> e1" true
    (happened_before eo (Internal 0) (Internal 1));
  Alcotest.(check bool) "m0 -> m1" true
    (happened_before eo (Message 0) (Message 1));
  Alcotest.(check bool) "not m1 -> e0" false
    (happened_before eo (Message 1) (Internal 0));
  Alcotest.(check bool) "e1 -> m1" true
    (happened_before eo (Internal 1) (Message 1))

(* ---------- Online vs offline vs FM cross-check ---------- *)

let test_three_schemes_agree =
  qtest ~count:120 "online, offline and FM agree pairwise on order"
    Gen.computation Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      let d = decomposition_of c trace in
      let on = Online.timestamp_trace d trace in
      let off = Offline.timestamp_trace trace in
      let fm = Synts_clock.Fm_sync.timestamp_trace trace in
      let k = Trace.message_count trace in
      let ok = ref true in
      for i = 0 to k - 1 do
        for j = 0 to k - 1 do
          if i <> j then begin
            let a = Vector.lt on.(i) on.(j) in
            let b = Vector.lt off.(i) off.(j) in
            let c' = Vector.lt fm.(i) fm.(j) in
            if a <> b || b <> c' then ok := false
          end
        done
      done;
      !ok)

let () =
  Alcotest.run "core"
    [
      ( "edge-clock",
        [
          Alcotest.test_case "figure 5 hand-run" `Quick test_edge_clock_fig5;
          Alcotest.test_case "foreign channel" `Quick
            test_edge_clock_rejects_foreign_channel;
          Alcotest.test_case "bad pid" `Quick test_edge_clock_bad_pid;
        ] );
      ( "figure6",
        [ Alcotest.test_case "worked example" `Quick test_fig6_timestamps ] );
      ( "theorem4-online",
        [
          Alcotest.test_case "uncovered channel" `Quick
            test_online_rejects_uncovered_channel;
          test_theorem4;
          test_protocol_agrees;
          test_stamper_agrees;
          test_online_any_decomposition;
          test_online_vector_size;
          test_online_prefix_stable;
        ] );
      ( "theorem8-offline",
        [
          Alcotest.test_case "figure 6 dimension" `Quick test_offline_fig6;
          test_theorem8_width_bound;
          test_offline_exact;
          test_offline_size;
        ] );
      ( "offline-stream",
        [
          test_stream_order_equivalent;
          test_stream_order_equivalent_small_window;
          test_stream_exact;
          test_stream_accounting;
        ] );
      ( "theorem5", [ test_theorem5_end_to_end ] );
      ( "theorem9-internal",
        [
          Alcotest.test_case "counter ordering" `Quick test_internal_counter;
          Alcotest.test_case "cross-process tie" `Quick
            test_internal_cross_process_tie;
          Alcotest.test_case "infinity succ" `Quick test_internal_infinity;
          test_theorem9;
          test_theorem9_offline_vectors;
        ] );
      ( "cross-scheme",
        [ test_three_schemes_agree; test_groups_form_chain_partition ] );
      ( "event-order",
        [
          Alcotest.test_case "mixed cases" `Quick test_event_order_mixed_cases;
          test_event_order_matches_oracle;
        ] );
    ]
