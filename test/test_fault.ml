module Trace = Synts_sync.Trace
module Graph = Synts_graph.Graph
module Decomposition = Synts_graph.Decomposition
module Vector = Synts_clock.Vector
module Wire = Synts_clock.Wire
module Edge_clock = Synts_core.Edge_clock
module Online = Synts_core.Online
module Script = Synts_net.Script
module Rendezvous = Synts_net.Rendezvous
module Validate = Synts_check.Validate
module Workload = Synts_workload.Workload
module Rng = Synts_util.Rng
module Plan = Synts_fault.Plan
module Injector = Synts_fault.Injector
module Telemetry = Synts_telemetry.Telemetry
module Finding = Synts_lint.Finding
module Lint = Synts_lint.Lint
module Gen = Synts_test_support.Gen

let qtest ?(count = 150) name gen print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen f)

(* ---------- Plan grammar ---------- *)

(* Probabilities and times drawn on coarse grids so [to_string]'s %g
   formatting round-trips exactly. *)
let plan_gen ~n =
  QCheck2.Gen.(
    let prob = map (fun k -> float_of_int k /. 100.) (int_range 1 99) in
    let time = map float_of_int (int_range 0 300) in
    let dur = map float_of_int (int_range 1 120) in
    let proc = int_range 0 (n - 1) in
    let opt g = oneof [ return None; map Option.some g ] in
    let* crash =
      opt
        (let* p = proc in
         let* at = time in
         let* after = opt dur in
         return
           (match after with
           | None -> Plan.Crash_stop { proc = p; at }
           | Some d -> Plan.Crash_recover { proc = p; at; after = d }))
    in
    let* part =
      opt
        (let* p = proc in
         let* from_ = time in
         let* len = dur in
         return (Plan.Partition { island = [ p ]; from_; until_ = from_ +. len }))
    in
    let* dup = opt (map (fun p -> Plan.Duplicate { prob = p }) prob) in
    let* corrupt = opt (map (fun p -> Plan.Corrupt { prob = p }) prob) in
    let* spike =
      opt
        (let* p = prob in
         let* f = map float_of_int (int_range 2 9) in
         return (Plan.Delay_spike { prob = p; factor = f }))
    in
    return (List.filter_map Fun.id [ crash; part; dup; corrupt; spike ]))

let test_plan_roundtrip =
  qtest ~count:200 "plan grammar: to_string / of_string round-trip"
    (plan_gen ~n:8) Plan.to_string (fun plan ->
      Plan.of_string (Plan.to_string plan) = Ok plan)

let test_plan_parse () =
  let ok s p = Alcotest.(check bool) s true (Plan.of_string s = Ok p) in
  ok "crash:2@25" [ Plan.Crash_stop { proc = 2; at = 25.0 } ];
  ok "recover:1@10+40" [ Plan.Crash_recover { proc = 1; at = 10.0; after = 40.0 } ];
  ok "partition:0,3@5-60"
    [ Plan.Partition { island = [ 0; 3 ]; from_ = 5.0; until_ = 60.0 } ];
  ok "dup:0.25" [ Plan.Duplicate { prob = 0.25 } ];
  ok "corrupt:0.1" [ Plan.Corrupt { prob = 0.1 } ];
  ok "spike:0.2*5" [ Plan.Delay_spike { prob = 0.2; factor = 5.0 } ];
  ok "recover:2@25+30; dup:0.1; spike:0.2*5"
    [
      Plan.Crash_recover { proc = 2; at = 25.0; after = 30.0 };
      Plan.Duplicate { prob = 0.1 };
      Plan.Delay_spike { prob = 0.2; factor = 5.0 };
    ];
  ok "" [];
  Alcotest.(check bool) "garbage clause rejected" true
    (Result.is_error (Plan.of_string "crash:zero@now"));
  Alcotest.(check bool) "unknown kind rejected" true
    (Result.is_error (Plan.of_string "melt:3@1"))

let test_plan_validate () =
  let bad plan = Alcotest.(check bool) "rejected" true
      (Result.is_error (Plan.validate ~n:4 plan))
  and good plan = Alcotest.(check bool) "accepted" true
      (Plan.validate ~n:4 plan = Ok ())
  in
  good [ Plan.Crash_stop { proc = 3; at = 0.0 }; Plan.Duplicate { prob = 1.0 } ];
  bad [ Plan.Crash_stop { proc = 4; at = 0.0 } ];
  bad [ Plan.Crash_recover { proc = -1; at = 0.0; after = 1.0 } ];
  bad [ Plan.Duplicate { prob = 1.5 } ];
  bad [ Plan.Corrupt { prob = -0.1 } ];
  bad [ Plan.Delay_spike { prob = 0.5; factor = 0.5 } ];
  bad [ Plan.Partition { island = [ 1 ]; from_ = 10.0; until_ = 5.0 } ];
  bad [ Plan.Duplicate { prob = 0.1 }; Plan.Duplicate { prob = 0.2 } ];
  bad
    [
      Plan.Crash_stop { proc = 1; at = 5.0 };
      Plan.Crash_recover { proc = 1; at = 50.0; after = 10.0 };
    ]

let test_plan_kinds () =
  let plan =
    [
      Plan.Crash_recover { proc = 0; at = 1.0; after = 2.0 };
      Plan.Duplicate { prob = 0.5 };
      Plan.Corrupt { prob = 0.5 };
    ]
  in
  Alcotest.(check (list string))
    "recover declares crash and recovery"
    [ "crash"; "recovery"; "duplicate"; "corrupt" ]
    (Plan.kinds plan)

(* ---------- Injector ---------- *)

let test_injector_deterministic () =
  let decisions seed =
    let inj =
      Injector.create ~seed
        [ Plan.Duplicate { prob = 0.4 }; Plan.Delay_spike { prob = 0.3; factor = 4.0 } ]
    in
    List.init 200 (fun _ ->
        (Injector.roll_duplicate inj, Injector.delay_factor inj))
  in
  Alcotest.(check bool) "same seed, same stream" true
    (decisions 11 = decisions 11);
  Alcotest.(check bool) "different seeds differ" true
    (decisions 11 <> decisions 12)

let test_injector_tallies () =
  let inj = Injector.create [ Plan.Duplicate { prob = 1.0 }; Plan.Corrupt { prob = 0.0 } ] in
  Alcotest.(check (list string))
    "nothing fired yet" [ "corrupt"; "duplicate" ] (Injector.unobserved inj);
  Alcotest.(check bool) "prob 1 fires" true (Injector.roll_duplicate inj);
  Alcotest.(check bool) "prob 0 never fires" false (Injector.roll_corrupt inj);
  Alcotest.(check (list string)) "corrupt still unobserved" [ "corrupt" ]
    (Injector.unobserved inj);
  Alcotest.(check (list (pair string int)))
    "fired tallies" [ ("corrupt", 0); ("duplicate", 1) ] (Injector.fired inj)

let test_injector_partition () =
  let inj =
    Injector.create [ Plan.Partition { island = [ 1 ]; from_ = 10.0; until_ = 20.0 } ]
  in
  let blocks now src dst = Injector.blocks inj ~now ~src ~dst in
  Alcotest.(check bool) "cut edge inside window" true (blocks 15.0 1 2);
  Alcotest.(check bool) "symmetric" true (blocks 15.0 0 1);
  Alcotest.(check bool) "same side passes" false (blocks 15.0 0 2);
  Alcotest.(check bool) "before window" false (blocks 9.9 1 2);
  Alcotest.(check bool) "window is half-open" false (blocks 20.0 1 2)

let test_injector_flip_bit =
  qtest ~count:200 "flip_bit flips exactly one bit"
    QCheck2.Gen.(pair (int_bound 100000) (string_size ~gen:char (int_range 1 64)))
    (fun (s, str) -> Printf.sprintf "seed=%d len=%d" s (String.length str))
    (fun (seed, str) ->
      let inj = Injector.create ~seed [ Plan.Corrupt { prob = 1.0 } ] in
      let out = Injector.flip_bit inj str in
      String.length out = String.length str
      &&
      let diff_bits = ref 0 in
      String.iteri
        (fun i c ->
          let x = Char.code c lxor Char.code out.[i] in
          let rec popcount x = if x = 0 then 0 else (x land 1) + popcount (x lsr 1) in
          diff_bits := !diff_bits + popcount x)
        str;
      !diff_bits = 1)

(* ---------- Wire checksum framing ---------- *)

let vector_gen =
  QCheck2.Gen.(
    let* dim = int_range 0 12 in
    let* cells = list_size (return dim) (int_bound 5000) in
    let v = Vector.zero dim in
    List.iteri (fun i x -> for _ = 1 to x mod 50 do Vector.incr v i done) cells;
    return v)

let test_wire_framed_roundtrip =
  qtest ~count:200 "framed wire encoding round-trips" vector_gen
    Vector.to_string (fun v ->
      match Wire.decode_framed (Wire.encode_framed v) with
      | Ok v' -> Vector.equal v v'
      | Error _ -> false)

let test_wire_framed_rejects_bitflips =
  qtest ~count:200 "any single body-bit flip is rejected"
    QCheck2.Gen.(pair vector_gen (int_bound 100000))
    (fun (v, bit) -> Printf.sprintf "%s bit=%d" (Vector.to_string v) bit)
    (fun (v, bit) ->
      let framed = Wire.encode_framed v in
      let prefix = String.length framed - String.length (Wire.encode v) in
      let body_bits = (String.length framed - prefix) * 8 in
      body_bits = 0
      ||
      let b = prefix * 8 + (bit mod body_bits) in
      let bytes = Bytes.of_string framed in
      Bytes.set bytes (b / 8)
        (Char.chr (Char.code (Bytes.get bytes (b / 8)) lxor (1 lsl (b mod 8))));
      Result.is_error (Wire.decode_framed (Bytes.to_string bytes)))

(* ---------- Checkpoint / restore ---------- *)

let triangle = Graph.of_edges 3 [ (0, 1); (1, 2); (0, 2) ]

let exchange c_snd c_rcv =
  (* One full Figure 5 rendezvous between two clocks; both timestamps
     must agree. *)
  let payload = Edge_clock.on_send c_snd ~dst:(Edge_clock.pid c_rcv) in
  let (`Ack ack), ts =
    Edge_clock.receive c_rcv ~src:(Edge_clock.pid c_snd) payload
  in
  let ts' = Edge_clock.on_ack c_snd ~dst:(Edge_clock.pid c_rcv) ack in
  Alcotest.(check bool) "both sides agree" true (Vector.equal ts ts');
  ts

let test_edge_clock_checkpoint () =
  let d = Decomposition.best triangle in
  let c0 = Edge_clock.create d ~pid:0 and c1 = Edge_clock.create d ~pid:1 in
  ignore (exchange c0 c1);
  let ck = Edge_clock.checkpoint c0 in
  let saved = Edge_clock.vector c0 in
  ignore (exchange c0 c1);
  Alcotest.(check bool) "clock advanced past checkpoint" false
    (Vector.equal saved (Edge_clock.vector c0));
  Edge_clock.reset c0;
  Alcotest.(check bool) "reset zeroes the vector" true
    (Vector.equal (Vector.zero (Edge_clock.dimension c0)) (Edge_clock.vector c0));
  Edge_clock.restore c0 ck;
  Alcotest.(check bool) "restore recovers the snapshot" true
    (Vector.equal saved (Edge_clock.vector c0));
  Alcotest.check_raises "foreign checkpoint rejected"
    (Invalid_argument "Edge_clock.restore: checkpoint from a different clock")
    (fun () -> Edge_clock.restore c1 ck)

let test_edge_clock_recovery_exact () =
  (* A crashed-and-restored clock must produce the exact timestamps an
     uncrashed one would. *)
  let d = Decomposition.best triangle in
  let run crash_after_first =
    let c0 = Edge_clock.create d ~pid:0 and c1 = Edge_clock.create d ~pid:1 in
    let ts1 = exchange c0 c1 in
    if crash_after_first then begin
      let ck = Edge_clock.checkpoint c0 in
      Edge_clock.reset c0;
      (* volatile state gone *)
      Edge_clock.restore c0 ck
    end;
    let ts2 = exchange c0 c1 in
    (ts1, ts2)
  in
  let t1, t2 = run false and t1', t2' = run true in
  Alcotest.(check bool) "first stamps equal" true (Vector.equal t1 t1');
  Alcotest.(check bool) "post-recovery stamps equal" true (Vector.equal t2 t2')

(* ---------- Chaos properties ---------- *)

(* Abstract fault-plan pieces: process picks are raw ints concretised
   modulo the topology's size once the computation is built. *)
let chaos_params =
  QCheck2.Gen.(
    let prob = map (fun k -> float_of_int k /. 100.) (int_range 5 40) in
    let opt g = oneof [ return None; map Option.some g ] in
    let* c = Gen.computation in
    let* seed = int_bound 100000 in
    let* fseed = int_bound 100000 in
    let* loss = oneof [ return 0.0; float_range 0.02 0.25 ] in
    let* dup = opt prob in
    let* corrupt = opt prob in
    let* spike = opt (pair prob (map float_of_int (int_range 2 8))) in
    let* crash =
      opt
        (let* pk = int_bound 10000 in
         let* at = map float_of_int (int_range 0 300) in
         let* after = opt (map float_of_int (int_range 10 150)) in
         return (pk, at, after))
    in
    let* part =
      opt
        (let* pk = int_bound 10000 in
         let* from_ = map float_of_int (int_range 0 200) in
         let* len = map float_of_int (int_range 5 60) in
         return (pk, from_, len))
    in
    return (c, seed, fseed, loss, (dup, corrupt, spike, crash, part)))

let concretize_plan n (dup, corrupt, spike, crash, part) =
  List.filter_map Fun.id
    [
      Option.map (fun p -> Plan.Duplicate { prob = p }) dup;
      Option.map (fun p -> Plan.Corrupt { prob = p }) corrupt;
      Option.map (fun (p, f) -> Plan.Delay_spike { prob = p; factor = f }) spike;
      Option.map
        (fun (pk, at, after) ->
          match after with
          | None -> Plan.Crash_stop { proc = pk mod n; at }
          | Some d -> Plan.Crash_recover { proc = pk mod n; at; after = d })
        crash;
      Option.map
        (fun (pk, from_, len) ->
          Plan.Partition { island = [ pk mod n ]; from_; until_ = from_ +. len })
        part;
    ]

let chaos_print (c, seed, fseed, loss, pieces) =
  Printf.sprintf "%s seed=%d fseed=%d loss=%.2f plan=[%s]"
    (Gen.computation_print c) seed fseed loss
    (Plan.to_string (concretize_plan 1000000 pieces))

let chaos_run (c, seed, fseed, loss, pieces) =
  let g, trace = Gen.build_computation c in
  let d = Decomposition.best g in
  let plan = concretize_plan (Graph.n g) pieces in
  let o =
    Rendezvous.run ~seed ~loss ~retransmit:25.0 ~max_retransmits:12
      ~faults:(Injector.create ~seed:fseed plan)
      ~decomposition:d
      (Script.of_trace trace)
  in
  (g, trace, d, plan, o)

let disjoint a b = List.for_all (fun x -> not (List.mem x b)) a

let test_chaos_prefix_valid_and_exact =
  qtest ~count:120
    "under any fault plan the surviving prefix is valid and stamps exact"
    chaos_params chaos_print (fun params ->
      let _, trace, d, _, o = chaos_run params in
      Trace.message_count o.Rendezvous.trace <= Trace.message_count trace
      && List.for_all
           (fun (f : Finding.t) -> f.severity <> Finding.Error)
           (Lint.audit o.Rendezvous.trace)
      &&
      match o.Rendezvous.timestamps with
      | None -> false
      | Some ts ->
          Validate.ok (Validate.message_timestamps o.Rendezvous.trace ts)
          && Array.for_all2 Vector.equal ts
               (Online.timestamp_trace d o.Rendezvous.trace))

(* The streaming offline pipeline must stay order-equivalent to the batch
   Figure 9 path on fault-plan replays too: the trace delivered under
   crashes, partitions, dups and corruption is still a valid synchronous
   trace, and the equivalence claim has no carve-out for it. *)
let test_chaos_stream_order_equivalent =
  qtest ~count:120 "streamed offline stamps stay order-equivalent under faults"
    chaos_params chaos_print (fun params ->
      let _, _, _, _, o = chaos_run params in
      let module Offline = Synts_core.Offline in
      let trace = o.Rendezvous.trace in
      let batch = Offline.timestamp_trace trace in
      let streamed = Offline.stream_trace ~window:16 trace in
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
      !ok)

let test_chaos_accounting =
  qtest ~count:120 "outcome accounting: crash lists match the plan"
    chaos_params chaos_print (fun params ->
      let _, _, _, plan, o = chaos_run params in
      let crash_procs =
        List.filter_map
          (function
            | Plan.Crash_stop { proc; _ } | Plan.Crash_recover { proc; _ } ->
                Some proc
            | _ -> None)
          plan
      in
      let recover_procs =
        List.filter_map
          (function Plan.Crash_recover { proc; _ } -> Some proc | _ -> None)
          plan
      in
      List.for_all (fun p -> List.mem p crash_procs) o.Rendezvous.crashed
      && List.for_all (fun p -> List.mem p recover_procs) o.Rendezvous.recovered
      && disjoint o.Rendezvous.deadlocked o.Rendezvous.gave_up
      && disjoint o.Rendezvous.deadlocked o.Rendezvous.crashed
      && disjoint o.Rendezvous.crashed o.Rendezvous.recovered)

let test_chaos_deterministic =
  qtest ~count:60 "chaos runs are bit-for-bit reproducible" chaos_params
    chaos_print (fun params ->
      let _, _, _, _, a = chaos_run params in
      let _, _, _, _, b = chaos_run params in
      Trace.steps a.Rendezvous.trace = Trace.steps b.Rendezvous.trace
      && a.Rendezvous.timestamps = b.Rendezvous.timestamps
      && a.Rendezvous.deadlocked = b.Rendezvous.deadlocked
      && a.Rendezvous.gave_up = b.Rendezvous.gave_up
      && a.Rendezvous.crashed = b.Rendezvous.crashed
      && a.Rendezvous.recovered = b.Rendezvous.recovered
      && a.Rendezvous.packets = b.Rendezvous.packets
      && a.Rendezvous.lost = b.Rendezvous.lost
      && a.Rendezvous.duplicated = b.Rendezvous.duplicated
      && a.Rendezvous.corrupted = b.Rendezvous.corrupted
      && a.Rendezvous.makespan = b.Rendezvous.makespan)

(* ---------- Crash-recover scenario ---------- *)

let star6 = Graph.of_edges 6 [ (0, 1); (0, 2); (0, 3); (0, 4); (0, 5) ]

let test_crash_recover_exact () =
  (* P2 crashes mid-run and recovers from its checkpoint while packets
     are also being dropped, duplicated and corrupted; every message is
     still delivered with its exact offline timestamp. *)
  let trace =
    Workload.random (Rng.create 8) ~topology:star6 ~messages:40 ()
  in
  let d = Decomposition.best star6 in
  let plan =
    [
      Plan.Crash_recover { proc = 2; at = 25.0; after = 30.0 };
      Plan.Duplicate { prob = 0.2 };
      Plan.Corrupt { prob = 0.2 };
    ]
  in
  let inj = Injector.create ~seed:7 plan in
  let o =
    Rendezvous.run ~seed:7 ~loss:0.1 ~faults:inj ~decomposition:d
      (Script.of_trace trace)
  in
  Alcotest.(check int) "all messages delivered" 40
    (Trace.message_count o.Rendezvous.trace);
  Alcotest.(check (list int)) "nobody deadlocked" [] o.Rendezvous.deadlocked;
  Alcotest.(check (list int)) "nobody gave up" [] o.Rendezvous.gave_up;
  Alcotest.(check (list int)) "nobody down at the end" [] o.Rendezvous.crashed;
  Alcotest.(check (list int)) "P2 recovered" [ 2 ] o.Rendezvous.recovered;
  Alcotest.(check bool) "crash fired" true
    (List.assoc "crash" (Injector.fired inj) = 1
    && List.assoc "recovery" (Injector.fired inj) = 1);
  match o.Rendezvous.timestamps with
  | None -> Alcotest.fail "no timestamps"
  | Some ts ->
      Alcotest.(check bool) "stamps exact after recovery" true
        (Array.for_all2 Vector.equal ts
           (Online.timestamp_trace d o.Rendezvous.trace))

let test_dup_replay_stored_ack () =
  (* Heavy duplication: duplicate REQs for already-consumed messages are
     answered from the dedup table (stored-ACK replay), and the run stays
     exactly-once and exact. *)
  let g = Synts_graph.Topology.build (Synts_graph.Topology.Complete 5) in
  let trace = Workload.random (Rng.create 5) ~topology:g ~messages:60 () in
  let d = Decomposition.best g in
  let dup_c = Telemetry.Counter.v "net.rendezvous.dup_requests" in
  let before = Telemetry.Counter.value dup_c in
  let o =
    Rendezvous.run ~seed:4
      ~faults:(Injector.create ~seed:4 [ Plan.Duplicate { prob = 0.9 } ])
      ~decomposition:d (Script.of_trace trace)
  in
  Alcotest.(check int) "all delivered exactly once" 60
    (Trace.message_count o.Rendezvous.trace);
  Alcotest.(check (list int)) "completed" [] o.Rendezvous.deadlocked;
  Alcotest.(check bool) "packets were duplicated" true
    (o.Rendezvous.duplicated > 0);
  Alcotest.(check bool) "stored ACKs replayed" true
    (Telemetry.Counter.value dup_c > before);
  match o.Rendezvous.timestamps with
  | None -> Alcotest.fail "no timestamps"
  | Some ts ->
      Alcotest.(check bool) "stamps exact under duplication" true
        (Array.for_all2 Vector.equal ts
           (Online.timestamp_trace d o.Rendezvous.trace))

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "parse" `Quick test_plan_parse;
          Alcotest.test_case "validate" `Quick test_plan_validate;
          Alcotest.test_case "kinds" `Quick test_plan_kinds;
          test_plan_roundtrip;
        ] );
      ( "injector",
        [
          Alcotest.test_case "deterministic" `Quick test_injector_deterministic;
          Alcotest.test_case "tallies" `Quick test_injector_tallies;
          Alcotest.test_case "partition windows" `Quick test_injector_partition;
          test_injector_flip_bit;
        ] );
      ( "wire",
        [ test_wire_framed_roundtrip; test_wire_framed_rejects_bitflips ] );
      ( "checkpoint",
        [
          Alcotest.test_case "edge clock" `Quick test_edge_clock_checkpoint;
          Alcotest.test_case "recovery exactness" `Quick
            test_edge_clock_recovery_exact;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "crash-recover scenario" `Quick
            test_crash_recover_exact;
          Alcotest.test_case "stored-ACK replay" `Quick
            test_dup_replay_stored_ack;
          test_chaos_prefix_valid_and_exact;
          test_chaos_stream_order_equivalent;
          test_chaos_accounting;
          test_chaos_deterministic;
        ] );
    ]
