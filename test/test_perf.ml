(* The performance refactor's safety net: the slab stamping kernels, the
   bit-row Dilworth pipeline and the batched telemetry must be
   observationally identical to the seed implementations they replaced
   (which live on as the [*_reference] oracles). *)

module Topology = Synts_graph.Topology
module Decomposition = Synts_graph.Decomposition
module Trace = Synts_sync.Trace
module Message_poset = Synts_sync.Message_poset
module Poset = Synts_poset.Poset
module Dilworth = Synts_poset.Dilworth
module Matching = Synts_poset.Matching
module Bitmatrix = Synts_util.Bitmatrix
module Rng = Synts_util.Rng
module Vector = Synts_clock.Vector
module Stamp_store = Synts_clock.Stamp_store
module Sync_clock = Synts_clock.Sync_clock
module Wire = Synts_clock.Wire
module Fm_sync = Synts_clock.Fm_sync
module Sk = Synts_clock.Singhal_kshemkalyani
module Online = Synts_core.Online
module Telemetry = Synts_telemetry.Telemetry
module Gen = Synts_test_support.Gen

let qtest ?(count = 150) name gen print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen f)

let stamps_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun u v -> Vector.equal u v) a b

(* ---------- Stamp_store units ---------- *)

let test_store_push_get () =
  let s = Stamp_store.create ~capacity:1 3 in
  let r0 = Stamp_store.push s [| 1; 2; 3 |] in
  let r1 = Stamp_store.push_zero s in
  let r2 = Stamp_store.push s [| 4; 5; 6 |] in
  (* capacity 1 forces two doublings along the way *)
  Alcotest.(check int) "rows" 3 (Stamp_store.rows s);
  Alcotest.(check (list int)) "r0" [ 1; 2; 3 ]
    (Array.to_list (Stamp_store.get s r0));
  Alcotest.(check (list int)) "r1" [ 0; 0; 0 ]
    (Array.to_list (Stamp_store.get s r1));
  Alcotest.(check (list int)) "r2" [ 4; 5; 6 ]
    (Array.to_list (Stamp_store.get s r2))

let test_store_merge_incr () =
  let s = Stamp_store.create 3 in
  let a = Stamp_store.push s [| 5; 0; 2 |] in
  let b = Stamp_store.push s [| 1; 4; 2 |] in
  let m = Stamp_store.push_merge s ~a ~b in
  Alcotest.(check (list int)) "componentwise max" [ 5; 4; 2 ]
    (Array.to_list (Stamp_store.get s m));
  Stamp_store.row_incr s m 1;
  Alcotest.(check (list int)) "incr" [ 5; 5; 2 ]
    (Array.to_list (Stamp_store.get s m));
  Alcotest.(check (list int)) "sources untouched" [ 5; 0; 2 ]
    (Array.to_list (Stamp_store.get s a));
  Alcotest.(check int) "diff_count" 2 (Stamp_store.diff_count s a b)

let test_store_blit_truncate_clear () =
  let s = Stamp_store.create 2 in
  let a = Stamp_store.push s [| 1; 1 |] in
  let b = Stamp_store.push s [| 9; 9 |] in
  Stamp_store.blit_rows s ~src:b ~dst:a;
  Alcotest.(check (list int)) "equal after blit" [ 9; 9 ]
    (Array.to_list (Stamp_store.get s a));
  Stamp_store.truncate s 1;
  Alcotest.(check int) "truncated" 1 (Stamp_store.rows s);
  (match Stamp_store.get s 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dropped row still readable");
  Stamp_store.clear s;
  Alcotest.(check int) "cleared" 0 (Stamp_store.rows s)

let test_store_bounds () =
  let s = Stamp_store.create 2 in
  (match Stamp_store.push s [| 1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dimension mismatch accepted");
  match Stamp_store.create (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative dim accepted"

(* [push_merge]'s max is branch-free and exact only over [0, max_int]:
   draw components at both ends of that range and next to them, where a
   wrong mask or an overflow would show. *)
let edge_component =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [ 0; 1; 2; max_int - 1; max_int; max_int / 2; (max_int / 2) + 1 ];
        int_bound 1000;
        map (fun x -> x land max_int) int;
      ])

let test_store_merge_is_max =
  qtest ~count:500 "push_merge = componentwise max"
    QCheck2.Gen.(
      let* dim = int_range 0 70 in
      pair
        (array_size (return dim) edge_component)
        (array_size (return dim) edge_component))
    (fun (a, b) -> Vector.to_string a ^ " " ^ Vector.to_string b)
    (fun (a, b) ->
      let s = Stamp_store.create ~capacity:1 (Array.length a) in
      let ra = Stamp_store.push s a and rb = Stamp_store.push s b in
      let m = Stamp_store.push_merge s ~a:ra ~b:rb in
      let m' = Stamp_store.push_merge s ~a:rb ~b:ra in
      let expect = Array.map2 max a b in
      Stamp_store.get s m = expect && Stamp_store.get s m' = expect)

let test_store_refuses_negative () =
  let refused name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" name
  in
  let s = Stamp_store.create 3 in
  refused "push of a negative component" (fun () ->
      Stamp_store.push s [| 0; -1; 2 |]);
  Alcotest.(check int) "refused push adds no row" 0 (Stamp_store.rows s);
  let r = Stamp_store.push s [| 0; 1; max_int |] in
  refused "row_set of a negative component" (fun () ->
      Stamp_store.row_set s r 1 min_int);
  refused "row_incr past max_int" (fun () -> Stamp_store.row_incr s r 2);
  Alcotest.(check (list int)) "refusals leave the row" [ 0; 1; max_int ]
    (Array.to_list (Stamp_store.get s r));
  refused "Sync_clock.create ~init with a negative component" (fun () ->
      Sync_clock.create ~init:[| [| 0; 3 |]; [| -2; 0 |] |] ~n:2 2)

let test_store_blit_onto_itself () =
  let s = Stamp_store.create 4 in
  ignore (Stamp_store.push s [| 1; 2; 3; 4 |] : int);
  let r = Stamp_store.push s [| 9; 0; max_int; 7 |] in
  Stamp_store.blit_rows s ~src:r ~dst:r;
  Alcotest.(check (list int)) "row intact" [ 9; 0; max_int; 7 ]
    (Array.to_list (Stamp_store.get s r));
  Alcotest.(check (list int)) "neighbour intact" [ 1; 2; 3; 4 ]
    (Array.to_list (Stamp_store.get s 0))

(* ---------- Sync_clock units ---------- *)

let clock_list k p = Array.to_list (Sync_clock.clock k p)

let test_sync_clock_rule () =
  let k = Sync_clock.create ~n:3 3 in
  (* Fig. 5: one bump on the channel's group ([a = b]). *)
  let r = Sync_clock.stamp k ~src:0 ~dst:1 ~a:2 ~b:2 in
  Alcotest.(check int) "first stamp above the home rows" 3 r;
  Alcotest.(check (list int)) "a = b bumps once" [ 0; 0; 1 ] (clock_list k 0);
  Alcotest.(check (list int)) "both endpoints adopt it" [ 0; 0; 1 ]
    (clock_list k 1);
  Alcotest.(check int) "src points at the stamp" r (Sync_clock.row k 0);
  Alcotest.(check int) "dst points at the stamp" r (Sync_clock.row k 1);
  (* Fidge–Mattern: one bump per endpoint. *)
  ignore (Sync_clock.stamp k ~src:1 ~dst:2 ~a:1 ~b:2);
  Alcotest.(check (list int)) "a <> b bumps both" [ 0; 1; 2 ]
    (clock_list k 2);
  Alcotest.(check (list int)) "bystander unchanged" [ 0; 0; 1 ]
    (clock_list k 0);
  Alcotest.(check (list int)) "home rows untouched" [ 0; 0; 0 ]
    (Array.to_list (Stamp_store.get (Sync_clock.store k) 1))

let test_sync_clock_settle () =
  let k = Sync_clock.create ~n:3 2 in
  ignore (Sync_clock.stamp k ~src:0 ~dst:1 ~a:0 ~b:0);
  ignore (Sync_clock.stamp k ~src:1 ~dst:2 ~a:1 ~b:1);
  let before = List.init 3 (clock_list k) in
  Sync_clock.home k 1;
  Alcotest.(check int) "homed" 1 (Sync_clock.row k 1);
  Alcotest.(check (list int)) "homed clock kept" [ 1; 1 ] (clock_list k 1);
  Sync_clock.settle k;
  Alcotest.(check int) "stamp rows dropped" 3
    (Stamp_store.rows (Sync_clock.store k));
  Alcotest.(check (list (list int))) "clocks kept" before
    (List.init 3 (clock_list k));
  let r = Sync_clock.stamp k ~src:2 ~dst:0 ~a:0 ~b:0 in
  Alcotest.(check int) "stamps resume above the home rows" 3 r;
  Alcotest.(check (list int)) "merged from settled clocks" [ 2; 1 ]
    (clock_list k 0)

let test_sync_clock_init () =
  let k = Sync_clock.create ~init:[| [| 3; 0 |]; [| 0; 5 |] |] ~n:2 2 in
  Alcotest.(check (list int)) "seeded home row" [ 0; 5 ] (clock_list k 1);
  ignore (Sync_clock.stamp k ~src:0 ~dst:1 ~a:1 ~b:1);
  Alcotest.(check (list int)) "stamp over seeded clocks" [ 3; 6 ]
    (clock_list k 0);
  (match Sync_clock.create ~init:[| [| 1 |] |] ~n:2 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "init with a missing row accepted");
  match Sync_clock.create ~init:[| [| 1 |]; [| 1; 2 |] |] ~n:2 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "init row of the wrong width accepted"

(* [stamp_home] against a model: clocks merged and bumped as vectors,
   each stamp coded with [Wire.put_vector] or [Wire.put_delta_vector]
   against the stamp before it, which the kernel reads from the home row
   of one of that stamp's endpoints, picked at random. Components at
   [max_int] and near 2^61 make bumps overflow and deltas leave range:
   the kernel must refuse exactly those, before it changes anything. *)
let test_stamp_home_model =
  qtest ~count:500 "stamp_home = merge, bump, code"
    QCheck2.Gen.(
      let* n = int_range 2 5 and* dim = int_range 1 5 in
      let component =
        frequency
          [
            (6, int_bound 40);
            (1, oneofl [ max_int - 1; max_int; (1 lsl 61) - 2 ]);
          ]
      in
      let step =
        let* src = int_bound (n - 1)
        and* off = int_range 1 (n - 1)
        and* a = int_bound (dim - 1)
        and* via_dst = bool in
        return (src, (src + off) mod n, a, via_dst)
      in
      pair
        (array_size (return n) (array_size (return dim) component))
        (list_size (int_range 1 30) step))
    (fun (init, steps) ->
      Printf.sprintf "init [%s] steps [%s]"
        (String.concat "; " (Array.to_list (Array.map Vector.to_string init)))
        (String.concat "; "
           (List.map
              (fun (s, d, a, v) -> Printf.sprintf "%d>%d@%d%s" s d a
                  (if v then "/dst" else ""))
              steps)))
    (fun (init, steps) ->
      let n = Array.length init and dim = Array.length init.(0) in
      let k = Sync_clock.create ~init ~n dim in
      let model = Array.map Array.copy init in
      let got = Wire.writer 8 and want = Wire.writer 8 in
      let clocks_agree () =
        List.for_all
          (fun p -> Vector.equal (Sync_clock.clock k p) model.(p))
          (List.init n Fun.id)
      in
      let same () =
        clocks_agree () && Wire.contents got = Wire.contents want
      in
      let last = ref None in
      let rec go = function
        | [] ->
            Array.for_all
              (Array.for_all (fun x -> x <= Sync_clock.top k))
              model
        | (src, dst, a, via_dst) :: rest -> (
            let prev =
              match !last with
              | None -> -1
              | Some (_, s, d) -> if via_dst then d else s
            in
            let stamp () = Sync_clock.stamp_home k got ~src ~dst ~a ~prev in
            let v = Array.map2 max model.(src) model.(dst) in
            if v.(a) = max_int then
              match stamp () with
              | exception Invalid_argument _ -> same () && go rest
              | () -> false
            else begin
              v.(a) <- v.(a) + 1;
              match
                match !last with
                | None -> Wire.put_vector want v
                | Some (p, _, _) -> Wire.put_delta_vector want ~prev:p v
              with
              | exception Invalid_argument _ -> (
                  match stamp () with
                  | exception Invalid_argument _ -> same () && go rest
                  | () -> false)
              | () ->
                  stamp ();
                  model.(src) <- v;
                  model.(dst) <- Array.copy v;
                  last := Some (v, src, dst);
                  same () && go rest
            end)
      in
      go steps)

let test_stamp_home_refusals () =
  let k = Sync_clock.create ~n:4 2 in
  let w = Wire.writer 8 in
  let refused name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s accepted" name
  in
  refused "bad component" (fun () ->
      Sync_clock.stamp_home k w ~src:0 ~dst:1 ~a:2 ~prev:(-1));
  ignore (Sync_clock.stamp k ~src:0 ~dst:1 ~a:0 ~b:0);
  refused "src away from home" (fun () ->
      Sync_clock.stamp_home k w ~src:0 ~dst:2 ~a:0 ~prev:(-1));
  refused "prev away from home" (fun () ->
      Sync_clock.stamp_home k w ~src:2 ~dst:3 ~a:0 ~prev:1);
  Alcotest.(check int) "nothing written" 0 (Wire.length w);
  Sync_clock.settle k;
  Sync_clock.stamp_home k w ~src:2 ~dst:1 ~a:1 ~prev:(-1);
  Alcotest.(check (list int)) "stamped over the settled clock" [ 1; 1 ]
    (clock_list k 2);
  Alcotest.(check int) "top follows the bump" 1 (Sync_clock.top k)

(* ---------- kernel equivalence (qcheck) ---------- *)

let test_online_slab_matches_reference =
  qtest "online slab stamps = seed stamps" Gen.computation
    Gen.computation_print (fun c ->
      let g, trace = Gen.build_computation c in
      let d = Decomposition.best g in
      stamps_equal
        (Online.timestamp_trace d trace)
        (Online.timestamp_trace_reference d trace))

let test_online_store_matches_trace =
  qtest "timestamp_store rows = timestamp_trace vectors" Gen.computation
    Gen.computation_print (fun c ->
      let g, trace = Gen.build_computation c in
      let d = Decomposition.best g in
      let store, rows = Online.timestamp_store d trace in
      let out = Online.timestamp_trace d trace in
      Array.length out = Trace.message_count trace
      && Array.for_all2
           (fun row v -> Vector.equal (Stamp_store.get store row) v)
           (Array.sub rows 0 (Array.length out))
           out)

let test_stamper_matches_reference =
  qtest "compacting stamper = seed stamper" Gen.computation
    Gen.computation_print (fun c ->
      let g, trace = Gen.build_computation c in
      let d = Decomposition.best g in
      let slab = Online.stamper d and seed = Online.stamper_reference d in
      Array.for_all
        (fun (m : Trace.message) ->
          Vector.equal
            (slab ~src:m.Trace.src ~dst:m.Trace.dst)
            (seed ~src:m.Trace.src ~dst:m.Trace.dst))
        (Trace.messages trace))

let test_stamper_compaction_long_stream () =
  (* A stream long enough to cross the compaction watermark many times;
     the slab stamper must keep agreeing with the reference throughout. *)
  let g = Topology.star 5 in
  let d = Decomposition.best g in
  let slab = Online.stamper d and seed = Online.stamper_reference d in
  let rng = Rng.create 7 in
  for _ = 1 to 2000 do
    let leaf = 1 + Rng.int rng 4 in
    let src, dst = if Rng.chance rng 0.5 then (0, leaf) else (leaf, 0) in
    let a = slab ~src ~dst and b = seed ~src ~dst in
    if not (Vector.equal a b) then
      Alcotest.failf "diverged: %s vs %s" (Vector.to_string a)
        (Vector.to_string b)
  done

let test_fm_slab_matches_reference =
  qtest "fidge-mattern slab = seed" Gen.computation Gen.computation_print
    (fun c ->
      let _g, trace = Gen.build_computation c in
      stamps_equal
        (Fm_sync.timestamp_trace trace)
        (Fm_sync.timestamp_trace_reference trace))

let test_sk_slab_matches_reference =
  qtest "singhal-kshemkalyani slab = seed (stamps and stats)"
    Gen.computation Gen.computation_print (fun c ->
      let _g, trace = Gen.build_computation c in
      let out, stats = Sk.simulate trace in
      let out', stats' = Sk.simulate_reference trace in
      stamps_equal out out'
      && stats.Sk.messages = stats'.Sk.messages
      && stats.Sk.entries_sent = stats'.Sk.entries_sent
      && stats.Sk.full_entries = stats'.Sk.full_entries)

let test_telemetry_totals_unchanged =
  qtest ~count:60 "batched telemetry counts = per-message counts"
    Gen.computation Gen.computation_print (fun c ->
      let g, trace = Gen.build_computation c in
      let d = Decomposition.best g in
      let was = Telemetry.enabled () in
      Telemetry.set_enabled true;
      let read () =
        List.filter_map
          (fun (name, value) ->
            match value with
            | Telemetry.Counter_v v
              when name = "core.online.stamps"
                   || name = "core.online.vector_entries" ->
                Some (name, v)
            | _ -> None)
          (Telemetry.snapshot ())
      in
      let before = read () in
      ignore (Online.timestamp_trace d trace);
      let after_slab = read () in
      ignore (Online.timestamp_trace_reference d trace);
      let after_ref = read () in
      Telemetry.set_enabled was;
      let delta a b =
        List.map2
          (fun (n1, v1) (n2, v2) ->
            assert (n1 = n2);
            (n1, v2 - v1))
          a b
      in
      delta before after_slab = delta after_slab after_ref)

(* ---------- bitset Dilworth pipeline ---------- *)

let poset_print p = Printf.sprintf "poset n=%d" (Poset.size p)

let test_chain_partition_matches_reference =
  qtest "bit-row chain partition = edge-list chain partition" Gen.poset
    poset_print (fun p ->
      Dilworth.min_chain_partition p = Dilworth.min_chain_partition_reference p)

let test_width_antichain_consistent =
  qtest "width = |max antichain| = #chains, antichain is an antichain"
    Gen.poset poset_print (fun p ->
      let w = Dilworth.width p in
      let chains = Dilworth.min_chain_partition p in
      let anti = Dilworth.max_antichain p in
      (Poset.size p = 0 || List.length chains = w)
      && List.length anti = w
      && Dilworth.is_antichain p anti
      && Dilworth.is_chain_partition p chains)

let test_matching_rows_matches_csr =
  qtest "maximum_rows over bit-rows = maximum_csr over comparability CSR"
    Gen.poset poset_print (fun p ->
      let n = Poset.size p in
      let via_rows =
        Matching.maximum_rows ~left:n ~right:n
          ~iter:(fun u f -> Poset.row_iter p u f)
          ~find:(fun u f -> Poset.row_find p u f)
      in
      let csr = Dilworth.comparability_csr p in
      let via_csr = Matching.maximum_csr ~left:n ~right:n csr in
      let edges = ref 0 in
      for u = 0 to n - 1 do
        Poset.row_iter p u (fun _ -> incr edges)
      done;
      Matching.edge_count csr = !edges
      && via_rows.Matching.size = via_csr.Matching.size
      && via_rows.Matching.pair_left = via_csr.Matching.pair_left
      && via_rows.Matching.pair_right = via_csr.Matching.pair_right)

let test_row_find_matches_row_iter =
  qtest "Poset.row_find agrees with row_iter membership" Gen.poset
    poset_print (fun p ->
      let n = Poset.size p in
      let ok = ref true in
      for i = 0 to n - 1 do
        let succs = ref [] in
        Poset.row_iter p i (fun j -> succs := j :: !succs);
        let succs = List.rev !succs in
        (* row_find with an always-false callback sees every successor,
           in the same ascending order *)
        let seen = ref [] in
        let found =
          Poset.row_find p i (fun j ->
              seen := j :: !seen;
              false)
        in
        if found || List.rev !seen <> succs then ok := false;
        (* and stops early on the first hit *)
        List.iteri
          (fun k target ->
            let visited = ref 0 in
            let found =
              Poset.row_find p i (fun j ->
                  incr visited;
                  j = target)
            in
            if (not found) || !visited <> k + 1 then ok := false)
          succs
      done;
      !ok)

let test_of_total_order_fast_path =
  qtest ~count:100 "of_total_order = of_relation on the chain"
    QCheck2.Gen.(
      let* n = int_range 0 30 in
      let* seed = int_bound 1_000_000 in
      let order = Array.init n Fun.id in
      let rng = Rng.create seed in
      for i = n - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      return order)
    (fun o ->
      Printf.sprintf "[%s]"
        (String.concat ";" (Array.to_list (Array.map string_of_int o))))
    (fun order ->
      let n = Array.length order in
      let pairs = ref [] in
      for i = 0 to n - 2 do
        pairs := (order.(i), order.(i + 1)) :: !pairs
      done;
      Poset.equal (Poset.of_total_order order) (Poset.of_relation n !pairs))

let test_of_total_order_rejects_duplicates () =
  (match Poset.of_total_order [| 0; 0 |] with
  | exception Poset.Cyclic _ -> ()
  | _ -> Alcotest.fail "duplicate accepted");
  match Poset.of_total_order [| 0; 5 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range accepted"

(* ---------- monomorphic comparisons ---------- *)

let test_vector_equal =
  qtest "Vector.equal = structural equality"
    QCheck2.Gen.(
      let* n = int_range 0 8 in
      let* u = array_size (return n) (int_bound 4) in
      let* v = array_size (return n) (int_bound 4) in
      return (u, v))
    (fun (u, v) -> Vector.to_string u ^ " vs " ^ Vector.to_string v)
    (fun (u, v) -> Vector.equal u v = (u = v))

let test_bitmatrix_equal_and_find () =
  let a = Bitmatrix.create 70 and b = Bitmatrix.create 70 in
  Bitmatrix.set a 3 65 true;
  Alcotest.(check bool) "unequal" false (Bitmatrix.equal a b);
  Bitmatrix.set b 3 65 true;
  Alcotest.(check bool) "equal" true (Bitmatrix.equal a b);
  Alcotest.(check bool) "row_find hit" true
    (Bitmatrix.row_find a 3 (fun j -> j = 65));
  Alcotest.(check bool) "row_find miss" false
    (Bitmatrix.row_find a 3 (fun j -> j = 64));
  Alcotest.(check bool) "empty row" false
    (Bitmatrix.row_find a 4 (fun _ -> true))

let () =
  Alcotest.run "perf"
    [
      ( "stamp-store",
        [
          Alcotest.test_case "push/get/grow" `Quick test_store_push_get;
          Alcotest.test_case "merge/incr/compare" `Quick test_store_merge_incr;
          Alcotest.test_case "blit/truncate/clear" `Quick
            test_store_blit_truncate_clear;
          Alcotest.test_case "bounds" `Quick test_store_bounds;
          test_store_merge_is_max;
          Alcotest.test_case "negative components refused" `Quick
            test_store_refuses_negative;
          Alcotest.test_case "blit onto itself" `Quick
            test_store_blit_onto_itself;
        ] );
      ( "sync-clock",
        [
          Alcotest.test_case "stamp rule" `Quick test_sync_clock_rule;
          Alcotest.test_case "settle" `Quick test_sync_clock_settle;
          Alcotest.test_case "init" `Quick test_sync_clock_init;
          test_stamp_home_model;
          Alcotest.test_case "stamp_home refusals" `Quick
            test_stamp_home_refusals;
        ] );
      ( "kernel-equivalence",
        [
          test_online_slab_matches_reference;
          test_online_store_matches_trace;
          test_stamper_matches_reference;
          Alcotest.test_case "compaction long stream" `Quick
            test_stamper_compaction_long_stream;
          test_fm_slab_matches_reference;
          test_sk_slab_matches_reference;
          test_telemetry_totals_unchanged;
        ] );
      ( "bitset-dilworth",
        [
          test_chain_partition_matches_reference;
          test_width_antichain_consistent;
          test_matching_rows_matches_csr;
          test_row_find_matches_row_iter;
          test_of_total_order_fast_path;
          Alcotest.test_case "of_total_order validation" `Quick
            test_of_total_order_rejects_duplicates;
        ] );
      ( "monomorphic",
        [
          test_vector_equal;
          Alcotest.test_case "bitmatrix equal/row_find" `Quick
            test_bitmatrix_equal_and_find;
        ] );
    ]
