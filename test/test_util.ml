module Rng = Synts_util.Rng
module Bitset = Synts_util.Bitset
module Bitmatrix = Synts_util.Bitmatrix

let qtest ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen f)

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  let xs = List.init 10 (fun _ -> Rng.bits64 a) in
  let ys = List.init 10 (fun _ -> Rng.bits64 b) in
  Alcotest.(check (list int64)) "copy continues identically" xs ys

let test_rng_split_differs () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.bits64 a) in
  let ys = List.init 20 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_int_bounds =
  qtest "Rng.int stays in bounds"
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      List.for_all
        (fun _ ->
          let v = Rng.int rng bound in
          0 <= v && v < bound)
        (List.init 50 Fun.id))

let test_rng_int_in =
  qtest "Rng.int_in inclusive range"
    QCheck2.Gen.(triple (int_bound 100_000) (int_range (-50) 50) (int_bound 100))
    (fun (seed, lo, extent) ->
      let rng = Rng.create seed in
      let hi = lo + extent in
      List.for_all
        (fun _ ->
          let v = Rng.int_in rng lo hi in
          lo <= v && v <= hi)
        (List.init 30 Fun.id))

let test_rng_int_rejects () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_unit =
  qtest "Rng.float in [0,1)" QCheck2.Gen.(int_bound 100_000) (fun seed ->
      let rng = Rng.create seed in
      List.for_all
        (fun _ ->
          let f = Rng.float rng in
          0.0 <= f && f < 1.0)
        (List.init 50 Fun.id))

let test_rng_shuffle_permutation =
  qtest "shuffle is a permutation"
    QCheck2.Gen.(pair (int_bound 100_000) (int_bound 50))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let arr = Array.init n Fun.id in
      Rng.shuffle rng arr;
      List.sort compare (Array.to_list arr) = List.init n Fun.id)

let test_rng_sample_distinct =
  qtest "sample yields k distinct elements"
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 0 30))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let arr = Array.init n (fun i -> 10 * i) in
      let k = if n = 0 then 0 else Rng.int rng (n + 1) in
      let s = Rng.sample rng k arr in
      Array.length s = k
      && List.length (List.sort_uniq compare (Array.to_list s)) = k
      && Array.for_all (fun x -> Array.exists (( = ) x) arr) s)

let test_rng_pick_empty () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "empty list" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Rng.pick rng []))

(* ---------- Bitset ---------- *)

module ISet = Set.Make (Int)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "mem 62" false (Bitset.mem s 62);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Alcotest.(check (list int)) "elements" [ 0; 64; 99 ] (Bitset.elements s);
  Bitset.remove s 0;
  Alcotest.(check bool) "bits only past the first word" false
    (Bitset.is_empty s)

let test_bitset_out_of_range () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "mem -1" (Invalid_argument "Bitset: index out of range")
    (fun () -> ignore (Bitset.mem s (-1)));
  Alcotest.check_raises "add 10" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.add s 10)

(* Model-based property: bitset ops agree with Set.Make(Int). *)
let ops_gen =
  QCheck2.Gen.(
    pair (int_range 1 80)
      (list_size (int_bound 200) (pair (int_bound 2) (int_bound 79))))

let test_bitset_model =
  qtest "bitset matches Set model" ops_gen (fun (cap, ops) ->
      let s = Bitset.create cap in
      let model = ref ISet.empty in
      List.iter
        (fun (op, x) ->
          let x = x mod cap in
          match op with
          | 0 ->
              Bitset.add s x;
              model := ISet.add x !model
          | 1 ->
              Bitset.remove s x;
              model := ISet.remove x !model
          | _ -> ignore (Bitset.mem s x))
        ops;
      Bitset.elements s = ISet.elements !model
      && Bitset.cardinal s = ISet.cardinal !model)

let test_bitset_set_algebra =
  qtest "union/inter/diff/subset match Set model"
    QCheck2.Gen.(
      triple (int_range 1 70)
        (list_size (int_bound 60) (int_bound 69))
        (list_size (int_bound 60) (int_bound 69)))
    (fun (cap, xs, ys) ->
      let xs = List.map (fun x -> x mod cap) xs
      and ys = List.map (fun y -> y mod cap) ys in
      let a = Bitset.of_list cap xs and b = Bitset.of_list cap ys in
      let sa = ISet.of_list xs and sb = ISet.of_list ys in
      let u = Bitset.copy a in
      Bitset.union_into ~dst:u b;
      let i = Bitset.copy a in
      Bitset.inter_into ~dst:i b;
      let d = Bitset.copy a in
      Bitset.diff_into ~dst:d b;
      Bitset.elements u = ISet.elements (ISet.union sa sb)
      && Bitset.elements i = ISet.elements (ISet.inter sa sb)
      && Bitset.elements d = ISet.elements (ISet.diff sa sb)
      && Bitset.subset a u
      && Bitset.subset i a
      && (Bitset.subset a b = ISet.subset sa sb))

(* The de Bruijn lookup must name every one of the 63 bit positions of
   an OCaml int, alone or under higher bits; bit 62 is the sign bit, so
   [1 lsl 62 = min_int]. *)
let test_bitset_lowest_bit () =
  for i = 0 to Sys.int_size - 1 do
    Alcotest.(check int) (Printf.sprintf "bit %d" i) i
      (Bitset.lowest_bit (1 lsl i));
    Alcotest.(check int) (Printf.sprintf "bit %d under higher bits" i) i
      (Bitset.lowest_bit (-1 lsl i))
  done;
  Alcotest.(check int) "sign bit" 62 (Bitset.lowest_bit min_int)

(* Iteration and the two first-element searches against a sorted-list
   model, at capacities that straddle 63-bit word boundaries. *)
let bitset_pair_gen =
  QCheck2.Gen.(
    let* cap = oneofl [ 62; 63; 64; 126; 127 ] in
    let elt = int_bound (cap - 1) in
    let set = list_size (int_bound 40) elt in
    let* xs = oneof [ set; map (fun l -> List.init cap Fun.id @ l) set ] in
    let* ys = set in
    let* from = int_bound (cap + 2) in
    return (cap, xs, ys, from))

let test_bitset_searches =
  qtest ~count:500 "iter, first_inter and first_diff match a list model"
    bitset_pair_gen (fun (cap, xs, ys, from) ->
      let a = Bitset.of_list cap xs and b = Bitset.of_list cap ys in
      let la = List.sort_uniq compare xs and lb = List.sort_uniq compare ys in
      let first l = match l with [] -> -1 | x :: _ -> x in
      let seen = ref [] in
      Bitset.iter (fun i -> seen := i :: !seen) a;
      List.rev !seen = la
      && Bitset.first_inter a b
         = first (List.filter (fun x -> List.mem x lb) la)
      && Bitset.first_diff ~from a b
         = first (List.filter (fun x -> x >= from && not (List.mem x lb)) la))

let test_bitset_fill_clear () =
  let s = Bitset.create 130 in
  Bitset.fill s;
  Alcotest.(check int) "full" 130 (Bitset.cardinal s);
  Bitset.clear s;
  Alcotest.(check bool) "cleared" true (Bitset.is_empty s)

(* ---------- Bitmatrix ---------- *)

let test_bitmatrix_get_set () =
  let m = Bitmatrix.create 70 in
  Bitmatrix.set m 0 69 true;
  Bitmatrix.set m 69 0 true;
  Bitmatrix.set m 35 35 true;
  Alcotest.(check bool) "get 0 69" true (Bitmatrix.get m 0 69);
  Alcotest.(check bool) "get 69 0" true (Bitmatrix.get m 69 0);
  Alcotest.(check bool) "get 1 1" false (Bitmatrix.get m 1 1);
  Bitmatrix.set m 35 35 false;
  Alcotest.(check bool) "cleared" false (Bitmatrix.get m 35 35);
  Alcotest.(check int) "count" 2 (Bitmatrix.count m)

let naive_closure n edges =
  let reach = Array.make_matrix n n false in
  List.iter (fun (i, j) -> reach.(i).(j) <- true) edges;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
      done
    done
  done;
  reach

let test_bitmatrix_closure =
  qtest "transitive closure matches naive Floyd–Warshall"
    QCheck2.Gen.(
      pair (int_range 1 25)
        (list_size (int_bound 80) (pair (int_bound 24) (int_bound 24))))
    (fun (n, raw_edges) ->
      let edges =
        List.map (fun (i, j) -> (i mod n, j mod n)) raw_edges
      in
      let m = Bitmatrix.create n in
      List.iter (fun (i, j) -> Bitmatrix.set m i j true) edges;
      Bitmatrix.transitive_closure m;
      let reach = naive_closure n edges in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Bitmatrix.get m i j <> reach.(i).(j) then ok := false
        done
      done;
      !ok)

let test_bitmatrix_closure_idempotent =
  qtest "closure is idempotent"
    QCheck2.Gen.(
      pair (int_range 1 20)
        (list_size (int_bound 50) (pair (int_bound 19) (int_bound 19))))
    (fun (n, raw_edges) ->
      let m = Bitmatrix.create n in
      List.iter (fun (i, j) -> Bitmatrix.set m (i mod n) (j mod n) true) raw_edges;
      Bitmatrix.transitive_closure m;
      let again = Bitmatrix.copy m in
      Bitmatrix.transitive_closure again;
      Bitmatrix.equal m again)

let test_bitmatrix_acyclic () =
  let m = Bitmatrix.create 4 in
  Bitmatrix.set m 0 1 true;
  Bitmatrix.set m 1 2 true;
  Bitmatrix.set m 2 3 true;
  Alcotest.(check bool) "chain acyclic" true (Bitmatrix.is_acyclic m);
  Bitmatrix.set m 3 0 true;
  Alcotest.(check bool) "cycle detected" false (Bitmatrix.is_acyclic m)

let test_bitmatrix_row_iter () =
  let m = Bitmatrix.create 80 in
  Bitmatrix.set m 5 0 true;
  Bitmatrix.set m 5 63 true;
  Bitmatrix.set m 5 64 true;
  Bitmatrix.set m 5 79 true;
  let acc = ref [] in
  Bitmatrix.row_iter m 5 (fun j -> acc := j :: !acc);
  Alcotest.(check (list int)) "row elements" [ 0; 63; 64; 79 ] (List.rev !acc)

(* ---------- Heap ---------- *)

module Heap = Synts_util.Heap

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun (p, v) -> Heap.push h ~priority:p v)
    [ (3.0, "c"); (1.0, "a"); (2.0, "b"); (0.5, "z") ];
  let drain () =
    let rec go acc =
      match Heap.pop h with
      | None -> List.rev acc
      | Some (_, v) -> go (v :: acc)
    in
    go []
  in
  Alcotest.(check (list string)) "sorted" [ "z"; "a"; "b"; "c" ] (drain ());
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~priority:1.0 v) [ 1; 2; 3; 4; 5 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4; 5 ]
    (drain [])

let test_heap_model =
  qtest ~count:200 "heap pops in nondecreasing priority order"
    QCheck2.Gen.(list_size (int_bound 200) (float_bound_inclusive 100.0))
    (fun priorities ->
      let h = Heap.create () in
      List.iteri (fun i p -> Heap.push h ~priority:p i) priorities;
      let rec drain last n =
        match Heap.pop h with
        | None -> n = List.length priorities
        | Some (p, _) -> p >= last && drain p (n + 1)
      in
      Heap.size h = List.length priorities && drain neg_infinity 0)

let () =
  Alcotest.run "util"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_order;
          Alcotest.test_case "FIFO ties" `Quick test_heap_fifo_ties;
          test_heap_model;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "split differs" `Quick test_rng_split_differs;
          Alcotest.test_case "int rejects bound 0" `Quick test_rng_int_rejects;
          Alcotest.test_case "pick rejects empty" `Quick test_rng_pick_empty;
          test_rng_int_bounds;
          test_rng_int_in;
          test_rng_float_unit;
          test_rng_shuffle_permutation;
          test_rng_sample_distinct;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "out of range" `Quick test_bitset_out_of_range;
          Alcotest.test_case "fill/clear" `Quick test_bitset_fill_clear;
          Alcotest.test_case "lowest-bit lookup" `Quick test_bitset_lowest_bit;
          test_bitset_model;
          test_bitset_searches;
          test_bitset_set_algebra;
        ] );
      ( "bitmatrix",
        [
          Alcotest.test_case "get/set" `Quick test_bitmatrix_get_set;
          Alcotest.test_case "acyclicity" `Quick test_bitmatrix_acyclic;
          Alcotest.test_case "row_iter word boundaries" `Quick
            test_bitmatrix_row_iter;
          test_bitmatrix_closure;
          test_bitmatrix_closure_idempotent;
        ] );
    ]
