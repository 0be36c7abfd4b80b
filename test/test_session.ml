module Graph = Synts_graph.Graph
module Topology = Synts_graph.Topology
module Decomposition = Synts_graph.Decomposition
module Trace = Synts_sync.Trace
module Poset = Synts_poset.Poset
module Vector = Synts_clock.Vector
module Online = Synts_core.Online
module Internal_events = Synts_core.Internal_events
module Session = Synts_session.Session
module Oracle = Synts_check.Oracle
module Workload = Synts_workload.Workload
module Rng = Synts_util.Rng
module Gen = Synts_test_support.Gen

let qtest ?(count = 150) name gen print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen f)

(* Observations go through the unified Ingest entry point; these helpers
   unwrap the outcome kind each event type guarantees. *)
let message session ~src ~dst =
  match Session.observe session (Session.Message { src; dst }) with
  | Session.Stamped v -> v
  | Session.Deferred _ -> assert false

let internal session ~proc =
  match Session.observe session (Session.Internal { proc }) with
  | Session.Deferred ticket -> ticket
  | Session.Stamped _ -> assert false

(* Feed a whole trace through a session, returning message stamps (by
   message id) and all internal-event stamps (by internal id). *)
let feed session trace =
  let k = Trace.message_count trace in
  let msg_stamps = Array.make k [||] in
  let int_stamps =
    Array.make (Trace.internal_count trace)
      { Internal_events.proc = 0; prev = [||]; succ = None; counter = 0 }
  in
  let tickets = Hashtbl.create 16 in
  let mid = ref 0 and iid = ref 0 in
  let absorb resolved =
    List.iter
      (fun (ticket, stamp) ->
        int_stamps.(Hashtbl.find tickets ticket) <- stamp)
      resolved
  in
  List.iter
    (fun step ->
      match step with
      | Trace.Send (src, dst) ->
          msg_stamps.(!mid) <- message session ~src ~dst;
          incr mid;
          absorb (Session.drain_events session)
      | Trace.Local p ->
          let ticket = internal session ~proc:p in
          Hashtbl.replace tickets ticket !iid;
          incr iid)
    (Trace.steps trace);
  absorb (Session.finish_events session);
  (msg_stamps, int_stamps)

let session_of_mode adaptive c =
  let g, trace = Gen.build_computation c in
  let session =
    if adaptive then Session.adaptive ~n:(Trace.n trace) ()
    else Session.of_topology g
  in
  (session, trace)

let mode_gen = QCheck2.Gen.(pair Gen.computation bool)

let mode_print (c, adaptive) =
  Printf.sprintf "%s adaptive=%b" (Gen.computation_print c) adaptive

let test_session_exact =
  qtest ~count:200 "session stamps encode the poset (both modes)" mode_gen
    mode_print (fun (c, adaptive) ->
      let session, trace = session_of_mode adaptive c in
      let msg_stamps, _ = feed session trace in
      let poset = Oracle.message_poset trace in
      let ok = ref true in
      Array.iteri
        (fun i vi ->
          Array.iteri
            (fun j vj ->
              if i <> j && Poset.lt poset i j <> Session.precedes session vi vj
              then ok := false)
            msg_stamps)
        msg_stamps;
      !ok && Session.messages_observed session = Trace.message_count trace)

let test_session_static_matches_online =
  qtest ~count:150 "static session = whole-trace online algorithm"
    Gen.computation Gen.computation_print (fun c ->
      let g, trace = Gen.build_computation c in
      let session = Session.of_topology g in
      let msg_stamps, _ = feed session trace in
      let expected =
        Online.timestamp_trace (Decomposition.best g) trace
      in
      Array.for_all2 Vector.equal msg_stamps expected)

let test_session_frontier =
  qtest ~count:150 "session frontier = poset maxima" mode_gen mode_print
    (fun (c, adaptive) ->
      let session, trace = session_of_mode adaptive c in
      let _ = feed session trace in
      Trace.message_count trace = 0
      || List.sort compare (List.map fst (Session.frontier session))
         = Poset.maximal_elements (Oracle.message_poset trace))

let test_session_internal_events =
  qtest ~count:200 "session internal stamps capture happened-before"
    mode_gen mode_print (fun (c, adaptive) ->
      let session, trace = session_of_mode adaptive c in
      let _, int_stamps = feed session trace in
      let hb = Oracle.happened_before_internal trace in
      let k = Array.length int_stamps in
      let ok = ref true in
      for i = 0 to k - 1 do
        for j = 0 to k - 1 do
          if
            i <> j
            && Session.happened_before session int_stamps.(i) int_stamps.(j)
               <> hb i j
          then ok := false
        done
      done;
      !ok)

let test_session_width =
  qtest ~count:150 "session width = batch Dilworth width" mode_gen mode_print
    (fun (c, adaptive) ->
      let session, trace = session_of_mode adaptive c in
      let _ = feed session trace in
      Session.width session
      = Synts_poset.Dilworth.width (Oracle.message_poset trace))

let test_session_width_leq_dimension =
  qtest ~count:100 "width <= dimension (static mode)" Gen.computation
    Gen.computation_print (fun c ->
      let g, trace = Gen.build_computation c in
      let session = Session.of_topology g in
      let _ = feed session trace in
      Trace.message_count trace = 0
      || Session.width session <= Session.dimension session)

let test_session_stats () =
  let session = Session.of_topology (Topology.star 4) in
  (* Star topology: every pair ordered. *)
  ignore (message session ~src:0 ~dst:1);
  ignore (message session ~src:2 ~dst:0);
  ignore (message session ~src:0 ~dst:3);
  Alcotest.(check (float 0.0)) "no concurrency on a hub" 0.0
    (Session.concurrency_ratio session);
  Alcotest.(check int) "chain of 3" 3 (Session.longest_chain session);
  Alcotest.(check int) "dimension 1" 1 (Session.dimension session)

let test_session_adaptive_dimension_grows () =
  let session = Session.adaptive ~n:6 () in
  ignore (message session ~src:0 ~dst:1);
  Alcotest.(check int) "one group" 1 (Session.dimension session);
  let v1 = message session ~src:2 ~dst:3 in
  Alcotest.(check int) "two groups" 2 (Session.dimension session);
  let v2 = message session ~src:4 ~dst:5 in
  Alcotest.(check bool) "padded concurrent" true
    (Session.concurrent session v1 v2);
  Alcotest.(check int) "snapshot size" 3
    (Decomposition.size (Session.decomposition session))

let test_session_rejects_unknown_channel () =
  let session = Session.of_topology (Topology.star 3) in
  match message session ~src:1 ~dst:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "channel outside the topology accepted"

(* A batch with one bad event raises and changes nothing, for every
   session kind, as in the engine and the offline sink: the session then
   stamps exactly like a fresh one. *)
let test_session_rejected_batch_changes_nothing () =
  let kinds =
    [
      ( "static",
        (fun () ->
          Session.of_decomposition (Decomposition.best (Topology.star 4))),
        Session.Message { src = 1; dst = 2 } );
      ( "adaptive",
        (fun () -> Session.adaptive ~n:4 ()),
        Session.Message { src = 1; dst = 7 } );
      ( "offline-stream",
        (fun () -> Session.offline_stream ~n:4 ()),
        Session.Message { src = 1; dst = 7 } );
    ]
  in
  List.iter
    (fun (kind, make, bad_message) ->
      List.iter
        (fun batch ->
          let session = make () and fresh = make () in
          (match Session.observe_batch session batch with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "%s: a batch with a bad event was accepted" kind);
          Alcotest.(check int)
            (kind ^ ": no message observed")
            0
            (Session.messages_observed session);
          Alcotest.(check string)
            (kind ^ ": next stamp as on a fresh session")
            (Vector.to_string (message fresh ~src:0 ~dst:1))
            (Vector.to_string (message session ~src:0 ~dst:1));
          Alcotest.(check int)
            (kind ^ ": no internal event recorded")
            (List.length (Session.finish_events fresh))
            (List.length (Session.finish_events session)))
        [
          [| Session.Message { src = 0; dst = 1 }; bad_message |];
          [| Session.Internal { proc = 0 }; Session.Internal { proc = 9 } |];
        ])
    kinds

(* ---------- streaming-offline sessions ---------- *)

let test_session_offline_stream_exact =
  qtest ~count:200 "offline-stream session stamps encode the poset"
    Gen.computation Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      let session = Session.offline_stream ~n:(Trace.n trace) () in
      let msg_stamps, _ = feed session trace in
      let poset = Oracle.message_poset trace in
      let ok = ref true in
      Array.iteri
        (fun i vi ->
          Array.iteri
            (fun j vj ->
              if i <> j && Poset.lt poset i j <> Session.precedes session vi vj
              then ok := false)
            msg_stamps)
        msg_stamps;
      !ok
      && Session.messages_observed session = Trace.message_count trace
      && Session.width session <= Session.dimension session)

let test_offline_stream_no_decomposition () =
  let session = Session.offline_stream ~n:4 () in
  ignore (message session ~src:0 ~dst:1);
  ignore (message session ~src:2 ~dst:3);
  Alcotest.(check int) "two chains" 2 (Session.dimension session);
  match Session.decomposition session with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "offline-stream session produced a decomposition"

(* The packed Offline_sink drives like any other Ingest.S conformer:
   message stamps order-equivalent to batch offline, internal events
   resolved through the shared event stream. *)
let test_offline_sink_conformance =
  qtest ~count:150 "Offline_sink conforms to Ingest.S" Gen.computation
    Gen.computation_print (fun c ->
      let module Ingest = Synts_ingest.Ingest in
      let module Offline_sink = Synts_ingest.Offline_sink in
      let module Offline = Synts_core.Offline in
      let _, trace = Gen.build_computation c in
      let t = Offline_sink.create ~n:(Trace.n trace) () in
      let sink = Offline_sink.ingest t in
      let outcomes = Ingest.feed_trace sink trace in
      let streamed = Ingest.message_stamps outcomes in
      let resolved = Ingest.finish sink in
      let batch = Offline.timestamp_trace trace in
      let k = Array.length batch in
      let ok = ref (Array.length streamed = k) in
      for i = 0 to k - 1 do
        for j = 0 to k - 1 do
          if
            !ok && i <> j
            && Offline.precedes streamed.(i) streamed.(j)
               <> Offline.precedes batch.(i) batch.(j)
          then ok := false
        done
      done;
      !ok
      && List.length resolved = Trace.internal_count trace
      && Ingest.processes sink = Trace.n trace
      && Ingest.dimension sink = Offline.Stream.dimension (Offline_sink.stream t))

let () =
  Alcotest.run "session"
    [
      ( "session",
        [
          Alcotest.test_case "stats on a hub" `Quick test_session_stats;
          Alcotest.test_case "adaptive growth" `Quick
            test_session_adaptive_dimension_grows;
          Alcotest.test_case "unknown channel" `Quick
            test_session_rejects_unknown_channel;
          Alcotest.test_case "rejected batch changes nothing" `Quick
            test_session_rejected_batch_changes_nothing;
          test_session_exact;
          test_session_static_matches_online;
          test_session_frontier;
          test_session_internal_events;
          test_session_width;
          test_session_width_leq_dimension;
        ] );
      ( "offline-stream",
        [
          Alcotest.test_case "no decomposition" `Quick
            test_offline_stream_no_decomposition;
          test_session_offline_stream_exact;
          test_offline_sink_conformance;
        ] );
    ]
