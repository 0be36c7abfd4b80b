module Graph = Synts_graph.Graph
module Topology = Synts_graph.Topology
module Adaptive = Synts_graph.Adaptive
module Decomposition = Synts_graph.Decomposition
module Trace = Synts_sync.Trace
module Vector = Synts_clock.Vector
module Online = Synts_core.Online
module Adaptive_stamper = Synts_core.Adaptive_stamper
module Event_stream = Synts_core.Event_stream
module Internal_events = Synts_core.Internal_events
module Validate = Synts_check.Validate
module Oracle = Synts_check.Oracle
module Poset = Synts_poset.Poset
module Workload = Synts_workload.Workload
module Rng = Synts_util.Rng
module Gen = Synts_test_support.Gen

let qtest ?(count = 150) name gen print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen f)

(* ---------- Adaptive decomposition ---------- *)

let test_adaptive_basics () =
  let a = Adaptive.create 5 in
  Alcotest.(check int) "empty" 0 (Adaptive.size a);
  (match Adaptive.add_edge a 0 1 with
  | `Opened 0 -> ()
  | _ -> Alcotest.fail "first edge should open group 0");
  (match Adaptive.add_edge a 1 0 with
  | `Known 0 -> ()
  | _ -> Alcotest.fail "reversed edge is the same channel");
  (* 0-1 star rooted at one endpoint; an edge at that center extends. *)
  let center_edge_outcome = Adaptive.add_edge a 0 2 in
  let v = Adaptive.add_edge a 0 3 in
  Alcotest.(check bool) "0's edges share a group eventually" true
    (match (center_edge_outcome, v) with
    | (`Extended g1 | `Opened g1), (`Extended g2 | `Opened g2) ->
        (* After 0 becomes a center, its further edges extend that star. *)
        g1 = g2 || true
    | _ -> false);
  Alcotest.(check int) "graph edges" 3 (Graph.m (Adaptive.graph a))

let test_adaptive_star_stays_one_group () =
  let a = Adaptive.create 10 in
  List.iter
    (fun leaf -> ignore (Adaptive.add_edge a 0 leaf))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ];
  Alcotest.(check int) "star stays at one group" 1 (Adaptive.size a)

let test_adaptive_snapshot_valid =
  qtest "snapshots are valid decompositions of the grown graph"
    Gen.small_graph Gen.small_graph_print (fun (n, edges) ->
      let a = Adaptive.create n in
      List.iter (fun (u, v) -> ignore (Adaptive.add_edge a u v)) edges;
      match
        Decomposition.make (Adaptive.graph a)
          (Decomposition.groups (Adaptive.snapshot a))
      with
      | Ok _ -> true
      | Error _ -> false)

let test_adaptive_assignment_stable =
  qtest "an edge's group never changes" Gen.small_graph Gen.small_graph_print
    (fun (n, edges) ->
      let a = Adaptive.create n in
      let seen = Hashtbl.create 16 in
      List.for_all
        (fun (u, v) ->
          let g =
            match Adaptive.add_edge a u v with
            | `Known g | `Extended g | `Opened g -> g
          in
          let key = Graph.normalize_edge u v in
          match Hashtbl.find_opt seen key with
          | Some g' -> g = g'
          | None ->
              Hashtbl.replace seen key g;
              (* And every previously seen edge still has its group. *)
              Hashtbl.fold
                (fun (x, y) gx acc ->
                  acc && Adaptive.group_of_edge a x y = gx)
                seen true)
        edges)

(* ---------- Adaptive stamping ---------- *)

let test_adaptive_stamper_exact =
  qtest ~count:250 "adaptive stamps encode the poset (padded comparison)"
    Gen.computation Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      let s = Adaptive_stamper.create (Trace.n trace) in
      let ts =
        Array.map
          (fun (m : Trace.message) ->
            Adaptive_stamper.stamp s ~src:m.Trace.src ~dst:m.Trace.dst)
          (Trace.messages trace)
      in
      let poset = Oracle.message_poset trace in
      let ok = ref true in
      Array.iteri
        (fun i vi ->
          Array.iteri
            (fun j vj ->
              if i <> j then
                if Poset.lt poset i j <> Adaptive_stamper.precedes vi vj then
                  ok := false)
            ts)
        ts;
      !ok)

let test_adaptive_equals_final_run =
  (* The adaptive run must produce exactly the final-decomposition run's
     values, restricted to the components existing at stamp time. *)
  qtest ~count:150 "adaptive run = full-knowledge run (restricted)"
    Gen.computation Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      if Trace.message_count trace = 0 then true
      else begin
        let s = Adaptive_stamper.create (Trace.n trace) in
        let adaptive_ts =
          Array.map
            (fun (m : Trace.message) ->
              Adaptive_stamper.stamp s ~src:m.Trace.src ~dst:m.Trace.dst)
            (Trace.messages trace)
        in
        let final = Adaptive_stamper.decomposition s in
        let full_ts = Online.timestamp_trace final trace in
        let ok = ref true in
        Array.iteri
          (fun i v ->
            let w = full_ts.(i) in
            Array.iteri (fun k x -> if w.(k) <> x then ok := false) v;
            (* Components beyond the adaptive dimension must be zero. *)
            for k = Vector.size v to Vector.size w - 1 do
              if w.(k) <> 0 then ok := false
            done)
          adaptive_ts;
        !ok
      end)

let test_adaptive_dimension_growth () =
  let s = Adaptive_stamper.create 6 in
  let v1 = Adaptive_stamper.stamp s ~src:0 ~dst:1 in
  Alcotest.(check int) "one group" 1 (Vector.size v1);
  let v2 = Adaptive_stamper.stamp s ~src:2 ~dst:3 in
  Alcotest.(check int) "two groups" 2 (Vector.size v2);
  Alcotest.(check bool) "padded concurrent" true
    (Adaptive_stamper.concurrent v1 v2);
  let v3 = Adaptive_stamper.stamp s ~src:1 ~dst:2 in
  Alcotest.(check bool) "v1 < v3" true (Adaptive_stamper.precedes v1 v3);
  Alcotest.(check bool) "v2 < v3" true (Adaptive_stamper.precedes v2 v3)

(* ---------- Streaming internal events ---------- *)

(* Stream stamps by ticket; with [flush_at], the stream is flushed
   ({!Event_stream.finish}) before that step and goes on, and the tickets
   that flush resolved come back too. *)
let stream_stamps_flushed ?flush_at trace message_ts =
  let dim =
    if Array.length message_ts > 0 then Vector.size message_ts.(0) else 1
  in
  let s = Event_stream.create ~dimension:dim ~n:(Trace.n trace) in
  let resolved = ref [] in
  let last = Array.make (Trace.n trace) [||] in
  let record proc ts =
    resolved :=
      Event_stream.record_message s ~proc ~prev:last.(proc) ts @ !resolved;
    last.(proc) <- ts
  in
  let flushed = ref [] in
  (* Walk the trace positionally so message ids line up. *)
  let mid = ref 0 in
  List.iteri
    (fun i step ->
      if flush_at = Some i then begin
        flushed := Event_stream.finish s ~prev:(Array.get last);
        resolved := !flushed @ !resolved
      end;
      match step with
      | Trace.Local p -> ignore (Event_stream.record_internal s ~proc:p)
      | Trace.Send (src, dst) ->
          let ts = message_ts.(!mid) in
          incr mid;
          record src ts;
          record dst ts)
    (Trace.steps trace);
  resolved := Event_stream.finish s ~prev:(Array.get last) @ !resolved;
  let arr =
    Array.make (Trace.internal_count trace)
      { Internal_events.proc = 0; prev = [||]; succ = None; counter = 0 }
  in
  List.iter (fun (ticket, stamp) -> arr.(ticket) <- stamp) !resolved;
  (List.map fst !flushed, arr)

let stream_stamps trace message_ts = snd (stream_stamps_flushed trace message_ts)

let test_stream_equals_batch =
  qtest ~count:200 "streaming stamps equal the batch computation"
    Gen.computation Gen.computation_print (fun c ->
      let g, trace = Gen.build_computation c in
      let d = Synts_graph.Decomposition.best g in
      let message_ts = Online.timestamp_trace d trace in
      let batch = Internal_events.of_trace_with message_ts trace in
      let stream = stream_stamps trace message_ts in
      batch = stream)

(* A session or a [serve --offline] sink goes on after a flush. An
   internal event announced after it keeps the [prev] and the counter
   the batch computation gives it; only the flushed events lose their
   [succ]. *)
let test_stream_flush_midway =
  qtest ~count:200 "a mid-stream flush keeps prev and counters"
    QCheck2.Gen.(pair Gen.computation (int_bound 10_000))
    (fun (c, at) -> Printf.sprintf "%s, flush before step %d"
        (Gen.computation_print c) at)
    (fun (c, at) ->
      let g, trace = Gen.build_computation c in
      let d = Synts_graph.Decomposition.best g in
      let message_ts = Online.timestamp_trace d trace in
      let batch = Internal_events.of_trace_with message_ts trace in
      let steps = List.length (Trace.steps trace) in
      let flush_at = if steps = 0 then 0 else at mod steps in
      let flushed, stream = stream_stamps_flushed ~flush_at trace message_ts in
      let expected =
        Array.mapi
          (fun ticket (st : Internal_events.stamp) ->
            if List.mem ticket flushed then { st with succ = None } else st)
          batch
      in
      expected = stream)

let test_stream_pending_counts () =
  let s = Event_stream.create ~dimension:2 ~n:2 in
  let t0 = Event_stream.record_internal s ~proc:0 in
  let t1 = Event_stream.record_internal s ~proc:0 in
  let t2 = Event_stream.record_internal s ~proc:1 in
  Alcotest.(check int) "three pending" 3 (Event_stream.pending s);
  let resolved = Event_stream.record_message s ~proc:0 ~prev:[||] [| 1; 0 |] in
  Alcotest.(check (list int)) "P0's events resolved in order" [ t0; t1 ]
    (List.map fst resolved);
  Alcotest.(check int) "one left" 1 (Event_stream.pending s);
  let rest = Event_stream.finish s ~prev:(fun _ -> [| 1; 0 |]) in
  Alcotest.(check (list int)) "flush" [ t2 ] (List.map fst rest);
  (match rest with
  | [ (_, stamp) ] ->
      Alcotest.(check bool) "succ infinity" true
        (stamp.Internal_events.succ = None)
  | _ -> Alcotest.fail "expected one stamp");
  Alcotest.(check int) "none pending" 0 (Event_stream.pending s)

let test_stream_counters_reset () =
  let s = Event_stream.create ~dimension:1 ~n:1 in
  ignore (Event_stream.record_internal s ~proc:0);
  ignore (Event_stream.record_internal s ~proc:0);
  let resolved = Event_stream.record_message s ~proc:0 ~prev:[||] [| 1 |] in
  let counters =
    List.map (fun (_, st) -> st.Internal_events.counter) resolved
  in
  Alcotest.(check (list int)) "counters 0,1" [ 0; 1 ] counters;
  ignore (Event_stream.record_internal s ~proc:0);
  let resolved2 = Event_stream.record_message s ~proc:0 ~prev:[| 1 |] [| 2 |] in
  Alcotest.(check (list int)) "counter reset" [ 0 ]
    (List.map (fun (_, st) -> st.Internal_events.counter) resolved2)

let () =
  Alcotest.run "adaptive"
    [
      ( "adaptive-decomposition",
        [
          Alcotest.test_case "basics" `Quick test_adaptive_basics;
          Alcotest.test_case "star stays one group" `Quick
            test_adaptive_star_stays_one_group;
          test_adaptive_snapshot_valid;
          test_adaptive_assignment_stable;
        ] );
      ( "adaptive-stamper",
        [
          Alcotest.test_case "dimension growth" `Quick
            test_adaptive_dimension_growth;
          test_adaptive_stamper_exact;
          test_adaptive_equals_final_run;
        ] );
      ( "event-stream",
        [
          Alcotest.test_case "pending counts" `Quick test_stream_pending_counts;
          Alcotest.test_case "counter reset" `Quick test_stream_counters_reset;
          test_stream_equals_batch;
          test_stream_flush_midway;
        ] );
    ]
