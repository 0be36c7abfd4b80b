module Graph = Synts_graph.Graph
module Decomposition = Synts_graph.Decomposition
module Membership = Synts_graph.Membership
module Edge_clock = Synts_core.Edge_clock
module Epoch_stamper = Synts_core.Epoch_stamper
module Wire = Synts_clock.Wire
module Plan = Synts_fault.Plan
module Injector = Synts_fault.Injector
module Churn = Synts_fault.Churn
module Rng = Synts_util.Rng
module Gen = Synts_test_support.Gen

let qtest ?(count = 100) name gen print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen f)

let lt a b =
  let le = ref true and ne = ref false in
  Array.iteri
    (fun i x ->
      if x > b.(i) then le := false;
      if x <> b.(i) then ne := true)
    a;
  !le && !ne

let bound_respected m =
  List.for_all
    (fun (i : Membership.epoch_info) -> i.live <= i.bound)
    (Membership.history m)

(* ---------- unit: delta application ---------- *)

let test_basics () =
  let g = Graph.of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  let m = Membership.of_graph g in
  Alcotest.(check int) "triangle is one component" 1 (Membership.width m);
  Alcotest.(check int) "epoch 0" 0 (Membership.epoch m);
  (match Membership.apply m (Membership.Join { proc = 3; edges = [ (3, 0) ] }) with
  | Ok r ->
      Alcotest.(check int) "identity injection" 0 r.map.(0);
      Alcotest.(check int) "remap from epoch 0" 0 r.from_epoch
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "epoch 1" 1 (Membership.epoch m);
  Alcotest.(check int) "universe grew" 4 (Membership.processes m);
  Alcotest.(check bool) "3 active" true (Membership.is_active m 3);
  Alcotest.(check bool) "new channel has a slot" true
    (match Membership.slot_of_edge m 3 0 with _ -> true | exception Not_found -> false);
  (match Membership.apply m (Membership.Leave 1) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "1 inactive" false (Membership.is_active m 1);
  Alcotest.(check bool) "channel 0-1 gone" true
    (match Membership.slot_of_edge m 0 1 with
    | _ -> false
    | exception Not_found -> true);
  Alcotest.(check bool) "join of active proc rejected" true
    (Result.is_error (Membership.apply m (Membership.Join { proc = 0; edges = [] })));
  Alcotest.(check bool) "join skipping ids rejected" true
    (Result.is_error
       (Membership.apply m (Membership.Join { proc = 1_000_000_000_000; edges = [] })));
  Alcotest.(check int) "universe unchanged" 4 (Membership.processes m);
  Alcotest.(check bool) "duplicate add rejected" true
    (Result.is_error (Membership.apply m (Membership.Add_edge (0, 2))));
  Alcotest.(check bool) "drop of absent edge rejected" true
    (Result.is_error (Membership.apply m (Membership.Remove_edge (0, 1))));
  Alcotest.(check bool) "bound respected in every epoch" true (bound_respected m)

let test_delta_strings () =
  let rt d =
    Alcotest.(check bool)
      (Membership.delta_to_string d)
      true
      (Membership.delta_of_string (Membership.delta_to_string d) = Ok d)
  in
  rt (Membership.Join { proc = 4; edges = [ (4, 0); (1, 4) ] });
  rt (Membership.Join { proc = 9; edges = [] });
  rt (Membership.Leave 2);
  rt (Membership.Add_edge (1, 3));
  rt (Membership.Remove_edge (0, 5));
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Membership.delta_of_string "melt:3"));
  Alcotest.(check bool) "bad edge rejected" true
    (Result.is_error (Membership.delta_of_string "add:1"))

(* ---------- unit: epoch-tagged Edge_clock ---------- *)

let test_edge_clock_rebase () =
  let g = Graph.of_edges 3 [ (0, 1); (1, 2) ] in
  let d = Decomposition.best g in
  Alcotest.(check int) "path of 3 is one star" 1 (Decomposition.size d);
  let c0 = Edge_clock.create d ~pid:0 and c1 = Edge_clock.create d ~pid:1 in
  let req = Edge_clock.on_send c0 ~dst:1 in
  let `Ack ack, ts = Edge_clock.receive c1 ~src:0 req in
  let ts' = Edge_clock.on_ack c0 ~dst:1 ack in
  Alcotest.(check bool) "endpoints agree" true (ts = ts');
  let ck = Edge_clock.checkpoint c0 in
  Alcotest.(check int) "checkpoint tagged epoch 0" 0 (Edge_clock.checkpoint_epoch ck);
  (* Rebase into a two-slot epoch where the old component moved to slot 1. *)
  let group_of _ _ = 1 in
  Edge_clock.rebase c0 ~epoch:1 ~dim:2 ~map:[| 1 |] ~group_of;
  Alcotest.(check int) "epoch moved" 1 (Edge_clock.epoch c0);
  Alcotest.(check int) "dimension grew" 2 (Edge_clock.dimension c0);
  Alcotest.(check bool) "vector translated" true
    (Edge_clock.vector c0 = [| 0; 1 |]);
  Alcotest.(check bool) "same-epoch restore now rejects the stale checkpoint"
    true
    (match Edge_clock.restore c0 ck with
    | () -> false
    | exception Invalid_argument _ -> true);
  Edge_clock.reset c0;
  Edge_clock.restore_rebased c0 ck ~map:[| 1 |];
  Alcotest.(check bool) "stale checkpoint restored through the remap" true
    (Edge_clock.vector c0 = [| 0; 1 |]);
  Alcotest.(check bool) "backwards rebase rejected" true
    (match Edge_clock.rebase c0 ~epoch:0 ~dim:2 ~map:[| 0; 1 |] ~group_of with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_wire_epoch_roundtrip () =
  let v = [| 3; 0; 129 |] in
  (match Wire.decode_epoch (Wire.encode_epoch ~epoch:17 v) with
  | Ok (e, v') ->
      Alcotest.(check int) "epoch" 17 e;
      Alcotest.(check bool) "vector" true (v = v')
  | Error e -> Alcotest.fail e);
  match Wire.decode_epoch_framed (Wire.encode_epoch_framed ~epoch:0 [||]) with
  | Ok (e, v') ->
      Alcotest.(check int) "epoch 0" 0 e;
      Alcotest.(check int) "empty vector" 0 (Array.length v')
  | Error e -> Alcotest.fail e

(* ---------- random delta interpretation ---------- *)

(* Turn an opaque random stream into a valid delta for the current
   membership state, or [None] when the drawn op has no applicable
   instance. Drawing through the state keeps generation and shrinking on
   a single integer seed. *)
let random_delta rng m =
  let active = Membership.active m in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  match Rng.int rng 5 with
  | 0 when active <> [] ->
      (* Fresh process joining with 1–2 channels. *)
      let proc = Membership.processes m in
      let e1 = (proc, pick active) in
      let edges =
        if Rng.chance rng 0.5 && List.length active > 1 then
          let p2 = pick (List.filter (fun p -> p <> snd e1) active) in
          [ e1; (proc, p2) ]
        else [ e1 ]
      in
      Some (Membership.Join { proc; edges })
  | 1 when List.length active > 1 -> Some (Membership.Leave (pick active))
  | 2 when List.length active > 1 ->
      let g = Membership.graph m in
      let u = pick active in
      let others =
        List.filter
          (fun v -> v <> u && not (Graph.has_edge g u v))
          active
      in
      if others = [] then None else Some (Membership.Add_edge (u, pick others))
  | 3 when Graph.edges (Membership.graph m) <> [] ->
      let u, v = pick (Graph.edges (Membership.graph m)) in
      Some (Membership.Remove_edge (u, v))
  | 4 ->
      (* Rejoin of a previously departed process. *)
      let inactive =
        List.filter
          (fun p -> not (Membership.is_active m p))
          (List.init (Membership.processes m) Fun.id)
      in
      if inactive = [] || active = [] then None
      else
        let proc = pick inactive in
        Some (Membership.Join { proc; edges = [ (proc, pick active) ] })
  | _ -> None

let seeded_graph =
  QCheck2.Gen.(
    let* n, edges = Gen.small_graph in
    let* seed = Gen.rng_seed in
    let* steps = int_range 1 60 in
    return (n, edges, seed, steps))

let print_seeded (n, edges, seed, steps) =
  Printf.sprintf "{n=%d; edges=%s; seed=%d; steps=%d}" n
    (String.concat ","
       (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) edges))
    seed steps

(* Every epoch produced by an arbitrary valid delta sequence stays
   within min(beta(G), N-2), and the remap chain is a well-formed
   identity injection. *)
let test_bound_invariant =
  qtest ~count:150 "membership: every epoch within min(beta, N-2)"
    seeded_graph print_seeded (fun (n, edges, seed, steps) ->
      let m = Membership.of_graph (Graph.of_edges n edges) in
      let rng = Rng.create seed in
      for _ = 1 to steps do
        match random_delta rng m with
        | None -> ()
        | Some d -> (
            match Membership.apply m d with
            | Ok _ -> ()
            | Error e ->
                QCheck2.Test.fail_reportf "valid delta rejected: %s" e)
      done;
      bound_respected m
      && List.for_all
           (fun (r : Membership.remap) ->
             Array.length r.map = r.from_dim
             && r.to_dim >= r.from_dim
             && Array.to_list r.map = List.init r.from_dim Fun.id)
           (Membership.remaps m))

(* ---------- the exactness property (tentpole) ----------

   Interleave messages and deltas through the epoch stamper; stamps
   recorded under the epoch they were produced in, then translated to
   the final epoch. Comparison outcomes must equal causality (Eq. 1)
   across every epoch boundary. *)

let run_stamper_sim (n, edges, seed, steps) =
  let m = Epoch_stamper.of_graph (Graph.of_edges n edges) in
  let rng = Rng.create seed in
  let stamps = ref [] (* (epoch, stamp, past) newest first *) in
  let nmsgs = ref 0 in
  let past = ref (Array.make n Bytes.empty) in
  let ensure_procs () =
    let procs = Membership.processes (Epoch_stamper.membership m) in
    if procs > Array.length !past then begin
      let old = !past in
      past :=
        Array.init procs (fun i ->
            if i < Array.length old then old.(i) else Bytes.empty)
    end
  in
  for _ = 1 to steps do
    let mb = Epoch_stamper.membership m in
    if Rng.chance rng 0.3 then (
      match random_delta rng mb with
      | None -> ()
      | Some d -> (
          match Epoch_stamper.apply m d with
          | Ok _ -> ensure_procs ()
          | Error e -> failwith ("valid delta rejected: " ^ e)))
    else
      let es = Graph.edges (Membership.graph mb) in
      if es <> [] then begin
        let u, v = List.nth es (Rng.int rng (List.length es)) in
        let ts = Epoch_stamper.stamp m ~src:u ~dst:v in
        let k = !nmsgs in
        incr nmsgs;
        let merged = Bytes.make (k + 1) '\000' in
        let blend b =
          Bytes.iteri
            (fun i c -> if c <> '\000' then Bytes.set merged i '\001')
            b
        in
        blend !past.(u);
        blend !past.(v);
        Bytes.set merged k '\001';
        !past.(u) <- merged;
        !past.(v) <- merged;
        stamps := (Epoch_stamper.epoch m, ts, merged, k) :: !stamps
      end
  done;
  (m, List.rev !stamps)

(* [pj] is message [j]'s causal past, a bitmap over {e original}
   message ids — so comparisons must go through each entry's recorded
   id, not its position in a possibly filtered list. *)
let causal (pj : Bytes.t) id_i id_j =
  id_i <> id_j && id_i < Bytes.length pj && Bytes.get pj id_i <> '\000'

let exact_against_causality mb stamps =
  let arr = Array.of_list stamps in
  let final =
    Array.map (fun (e, v, _, _) -> Membership.translate mb ~from_epoch:e v) arr
  in
  let ok = ref true in
  Array.iteri
    (fun i (_, _, _, id_i) ->
      Array.iteri
        (fun j (_, _, pj, id_j) ->
          if i <> j then
            let c = causal pj id_i id_j in
            if lt final.(i) final.(j) <> c then ok := false)
        arr)
    arr;
  !ok

let test_epoch_stamper_exact =
  qtest ~count:150 "epoch stamper: stamps exact across arbitrary churn"
    seeded_graph print_seeded (fun input ->
      let m, stamps = run_stamper_sim input in
      exact_against_causality (Epoch_stamper.membership m) stamps
      && bound_respected (Epoch_stamper.membership m))

(* Compaction: stamps from epochs >= the retirement floor keep exact
   comparison outcomes after slots frozen before the floor are dropped. *)
let test_compaction_exact =
  qtest ~count:120 "compaction: exact for stamps at or after the floor"
    seeded_graph print_seeded (fun (n, edges, seed, steps) ->
      let m, stamps = run_stamper_sim (n, edges, seed, steps) in
      let mb = Epoch_stamper.membership m in
      let floor = Membership.epoch mb / 2 in
      let r = Epoch_stamper.compact m ~retire_before:floor in
      let kept = List.filter (fun (e, _, _, _) -> e >= floor) stamps in
      r.to_dim <= r.from_dim
      && exact_against_causality mb kept)

(* ---------- churn harness: stale views + crash/partition ---------- *)

let churn_input =
  QCheck2.Gen.(
    let* n, edges = Gen.small_graph in
    let* seed = Gen.rng_seed in
    let* messages = int_range 0 50 in
    let time = map float_of_int (int_range 0 40) in
    let dur = map float_of_int (int_range 1 15) in
    let opt g = oneof [ return None; map Option.some g ] in
    let* crash =
      opt
        (let* at = time in
         let* after = opt dur in
         return
           (match after with
           | None -> Plan.Crash_stop { proc = 0; at }
           | Some d -> Plan.Crash_recover { proc = 0; at; after = d }))
    in
    let* part =
      if n < 2 then return None
      else
        opt
          (let* from_ = time in
           let* len = dur in
           return
             (Plan.Partition { island = [ 1 ]; from_; until_ = from_ +. len }))
    in
    let* churn =
      list_size (int_bound 3)
        (let* at = time in
         oneof
           [
             (let* peer = int_bound (n - 1) in
              let* idx = int_bound 1 in
              let proc = n + idx in
              return (Plan.Join_proc { proc; edges = [ (proc, peer) ]; at }));
             (let* p = int_bound (n - 1) in
              return (Plan.Leave_proc { proc = p; at }));
             (let* p = int_bound (n - 1) in
              let* after = dur in
              return (Plan.Flap { proc = p; at; after }));
           ])
    in
    let plan = List.filter_map Fun.id [ crash; part ] @ churn in
    return (n, edges, seed, messages, plan))

let print_churn_input (n, edges, seed, messages, plan) =
  Printf.sprintf "{n=%d; edges=%s; seed=%d; messages=%d; plan=%s}" n
    (String.concat ","
       (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) edges))
    seed messages (Plan.to_string plan)

let test_churn_harness_exact =
  qtest ~count:120
    "churn harness: exact under joins/leaves/flaps + crash + partition"
    churn_input print_churn_input (fun (n, edges, seed, messages, plan) ->
      (match Plan.validate ~n plan with
      | Ok () -> ()
      | Error e -> QCheck2.Test.fail_reportf "generated invalid plan: %s" e);
      let faults = Injector.create ~seed plan in
      match
        Churn.run ~seed ~faults ~graph:(Graph.of_edges n edges) ~messages ()
      with
      | Error e -> QCheck2.Test.fail_reportf "harness failed: %s" e
      | Ok (m, o) ->
          o.mismatches = 0
          && Array.length o.final_stamps = o.delivered
          && bound_respected m)

let test_churn_harness_deterministic () =
  let graph = Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  let plan =
    [
      Plan.Join_proc { proc = 4; edges = [ (4, 0) ]; at = 6.0 };
      Plan.Leave_proc { proc = 2; at = 12.0 };
      Plan.Flap { proc = 1; at = 20.0; after = 5.0 };
      Plan.Crash_recover { proc = 3; at = 9.0; after = 4.0 };
    ]
  in
  let run () =
    match
      Churn.run ~seed:7
        ~faults:(Injector.create ~seed:7 plan)
        ~graph ~messages:40 ()
    with
    | Ok (_, o) -> o
    | Error e -> Alcotest.fail e
  in
  let o1 = run () and o2 = run () in
  Alcotest.(check bool) "bit-identical outcome" true
    (o1.Churn.stamps = o2.Churn.stamps
    && o1.Churn.final_stamps = o2.Churn.final_stamps);
  Alcotest.(check bool) "run was checked and exact" true (Churn.exact o1);
  Alcotest.(check bool) "churn actually fired" true (o1.Churn.deltas_applied > 0);
  Alcotest.(check bool) "epochs advanced" true (o1.Churn.final_epoch > 0)

let () =
  Alcotest.run "membership"
    [
      ( "membership",
        [
          Alcotest.test_case "deltas and epochs" `Quick test_basics;
          Alcotest.test_case "delta grammar" `Quick test_delta_strings;
          test_bound_invariant;
        ] );
      ( "clock",
        [
          Alcotest.test_case "edge clock rebase" `Quick test_edge_clock_rebase;
          Alcotest.test_case "wire epoch frames" `Quick test_wire_epoch_roundtrip;
        ] );
      ( "exactness",
        [
          test_epoch_stamper_exact;
          test_compaction_exact;
          test_churn_harness_exact;
          Alcotest.test_case "churn harness deterministic" `Quick
            test_churn_harness_deterministic;
        ] );
    ]
