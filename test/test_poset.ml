module Poset = Synts_poset.Poset
module Matching = Synts_poset.Matching
module Dilworth = Synts_poset.Dilworth
module Realizer = Synts_poset.Realizer
module Dimension = Synts_poset.Dimension
module Gen = Synts_test_support.Gen

let qtest ?(count = 200) name gen print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen f)

let poset_print p = Format.asprintf "%a" Poset.pp p

(* ---------- Poset construction and queries ---------- *)

let test_poset_basic () =
  (* 0 < 1 < 3, 0 < 2 < 3, 1 || 2 (the diamond). *)
  let p = Poset.of_relation 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  Alcotest.(check bool) "0<3 by transitivity" true (Poset.lt p 0 3);
  Alcotest.(check bool) "1||2" true (Poset.concurrent p 1 2);
  Alcotest.(check bool) "not 3<0" false (Poset.lt p 3 0);
  Alcotest.(check bool) "leq reflexive" true (Poset.leq p 2 2);
  Alcotest.(check (list int)) "minimal" [ 0 ] (Poset.minimal_elements p);
  Alcotest.(check (list int)) "maximal" [ 3 ] (Poset.maximal_elements p);
  Alcotest.(check (list int)) "down set of 3" [ 0; 1; 2 ] (Poset.down_set p 3);
  Alcotest.(check (list int)) "up set of 0" [ 1; 2; 3 ] (Poset.up_set p 0);
  Alcotest.(check int) "relation count" 5 (Poset.relation_count p)

let test_poset_cycle () =
  (match Poset.of_relation 3 [ (0, 1); (1, 2); (2, 0) ] with
  | exception Poset.Cyclic _ -> ()
  | _ -> Alcotest.fail "cycle accepted");
  match Poset.of_relation 2 [ (0, 0) ] with
  | exception Poset.Cyclic 0 -> ()
  | _ -> Alcotest.fail "self-loop accepted"

let test_poset_covers () =
  let p = Poset.of_relation 4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check (list (pair int int)))
    "chain covers"
    [ (0, 1); (1, 2); (2, 3) ]
    (Poset.covers p)

let test_covers_reconstruct =
  qtest "covers regenerate the poset" Gen.poset poset_print (fun p ->
      Poset.equal p (Poset.of_relation (Poset.size p) (Poset.covers p)))

let test_linear_extension_valid =
  qtest "linear_extension is a linear extension" Gen.poset poset_print
    (fun p -> Poset.is_linear_extension p (Poset.linear_extension p))

let test_is_linear_extension_rejects () =
  let p = Poset.of_relation 3 [ (0, 1) ] in
  Alcotest.(check bool) "reversed order rejected" false
    (Poset.is_linear_extension p [| 1; 0; 2 |]);
  Alcotest.(check bool) "not a permutation" false
    (Poset.is_linear_extension p [| 0; 0; 1 |]);
  Alcotest.(check bool) "wrong length" false
    (Poset.is_linear_extension p [| 0; 1 |])

let test_avoiding_property =
  (* The key lemma behind the realizer: elements incomparable to a chain
     element are placed before it. *)
  qtest ~count:150 "avoid-chain extension places incomparables below"
    Gen.poset poset_print (fun p ->
      let chains = Dilworth.min_chain_partition p in
      List.for_all
        (fun chain ->
          let avoid = Array.make (Poset.size p) false in
          List.iter (fun v -> avoid.(v) <- true) chain;
          let ext = Poset.linear_extension_avoiding p ~avoid in
          let pos = Array.make (Poset.size p) 0 in
          Array.iteri (fun i e -> pos.(e) <- i) ext;
          Poset.is_linear_extension p ext
          && List.for_all
               (fun c ->
                 List.for_all
                   (fun x ->
                     (not (Poset.concurrent p x c)) || pos.(x) < pos.(c))
                   (List.init (Poset.size p) Fun.id))
               chain)
        chains)

let test_intersection () =
  let l1 = Poset.of_total_order [| 0; 1; 2 |] in
  let l2 = Poset.of_total_order [| 1; 0; 2 |] in
  let p = Poset.intersection [ l1; l2 ] in
  Alcotest.(check bool) "0||1" true (Poset.concurrent p 0 1);
  Alcotest.(check bool) "0<2" true (Poset.lt p 0 2);
  Alcotest.(check bool) "1<2" true (Poset.lt p 1 2)

let test_random_poset_valid =
  qtest ~count:60 "random posets are transitive and irreflexive" Gen.tiny_poset
    poset_print (fun p ->
      let n = Poset.size p in
      let ok = ref true in
      for i = 0 to n - 1 do
        if Poset.lt p i i then ok := false;
        for j = 0 to n - 1 do
          for k = 0 to n - 1 do
            if Poset.lt p i j && Poset.lt p j k && not (Poset.lt p i k) then
              ok := false
          done
        done
      done;
      !ok)

(* ---------- Matching ---------- *)

let test_matching_known () =
  let edges =
    List.concat_map (fun u -> List.map (fun v -> (u, v)) [ 0; 1; 2 ]) [ 0; 1; 2 ]
  in
  let r = Matching.maximum ~left:3 ~right:3 edges in
  Alcotest.(check int) "K33 perfect" 3 r.Matching.size;
  let r = Matching.maximum ~left:2 ~right:2 [ (0, 0); (1, 0); (1, 1) ] in
  Alcotest.(check int) "path matching" 2 r.Matching.size;
  let r = Matching.maximum ~left:3 ~right:1 [ (0, 0); (1, 0); (2, 0) ] in
  Alcotest.(check int) "star matching" 1 r.Matching.size

let matching_gen =
  QCheck2.Gen.(
    let* l = int_range 1 12 in
    let* r = int_range 1 12 in
    let* edges =
      list_size (int_bound 40) (pair (int_bound (l - 1)) (int_bound (r - 1)))
    in
    return (l, r, edges))

let matching_print (l, r, edges) =
  Printf.sprintf "left=%d right=%d edges=%s" l r
    (String.concat ";"
       (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) edges))

let test_matching_is_matching =
  qtest "matching output is consistent" matching_gen matching_print
    (fun (l, r, edges) ->
      let m = Matching.maximum ~left:l ~right:r edges in
      let count = ref 0 in
      let ok = ref true in
      Array.iteri
        (fun u v ->
          if v >= 0 then begin
            incr count;
            if m.Matching.pair_right.(v) <> u then ok := false;
            if not (List.mem (u, v) edges) then ok := false
          end)
        m.Matching.pair_left;
      !ok && !count = m.Matching.size)

(* Brute-force maximum matching for cross-validation. *)
let brute_matching edges =
  let edges = List.sort_uniq compare edges in
  let rec go used_l used_r = function
    | [] -> 0
    | (u, v) :: rest ->
        let skip = go used_l used_r rest in
        if List.mem u used_l || List.mem v used_r then skip
        else max skip (1 + go (u :: used_l) (v :: used_r) rest)
  in
  go [] [] edges

let test_matching_maximum =
  qtest ~count:100 "Hopcroft-Karp matches brute force"
    QCheck2.Gen.(
      let* l = int_range 1 6 in
      let* r = int_range 1 6 in
      let* edges =
        list_size (int_bound 12) (pair (int_bound (l - 1)) (int_bound (r - 1)))
      in
      return (l, r, edges))
    matching_print
    (fun (l, r, edges) ->
      (Matching.maximum ~left:l ~right:r edges).Matching.size
      = brute_matching edges)

let test_koenig_cover =
  qtest ~count:150 "König cover covers every edge with matching-many vertices"
    matching_gen matching_print (fun (l, r, edges) ->
      let m = Matching.maximum ~left:l ~right:r edges in
      let cl, cr = Matching.min_vertex_cover ~left:l ~right:r edges m in
      let covered = List.for_all (fun (u, v) -> cl.(u) || cr.(v)) edges in
      let size =
        Array.fold_left (fun a b -> a + Bool.to_int b) 0 cl
        + Array.fold_left (fun a b -> a + Bool.to_int b) 0 cr
      in
      covered && size = m.Matching.size)

(* ---------- Dilworth ---------- *)

let test_width_known () =
  let chain = Poset.of_total_order [| 0; 1; 2; 3 |] in
  Alcotest.(check int) "chain width" 1 (Dilworth.width chain);
  let antichain = Poset.of_relation 5 [] in
  Alcotest.(check int) "antichain width" 5 (Dilworth.width antichain);
  let diamond = Poset.of_relation 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  Alcotest.(check int) "diamond width" 2 (Dilworth.width diamond);
  Alcotest.(check int) "empty width" 0 (Dilworth.width (Poset.of_relation 0 []))

let test_chain_partition_valid =
  qtest "min chain partition is a chain partition of width size" Gen.poset
    poset_print (fun p ->
      let chains = Dilworth.min_chain_partition p in
      Dilworth.is_chain_partition p chains
      && (Poset.size p = 0 || List.length chains = Dilworth.width p))

let test_max_antichain_valid =
  qtest "max antichain is an antichain of width size" Gen.poset poset_print
    (fun p ->
      let a = Dilworth.max_antichain p in
      Dilworth.is_antichain p a && List.length a = Dilworth.width p)

let test_chains_sorted =
  qtest "chains are listed in increasing order" Gen.poset poset_print (fun p ->
      List.for_all
        (fun chain ->
          let rec ordered = function
            | a :: (b :: _ as rest) -> Poset.lt p a b && ordered rest
            | [] | [ _ ] -> true
          in
          ordered chain)
        (Dilworth.min_chain_partition p))

(* ---------- Realizer ---------- *)

let test_realizer_known () =
  let antichain = Poset.of_relation 3 [] in
  let r = Realizer.dilworth antichain in
  Alcotest.(check int) "antichain realizer size" 3 (List.length r);
  Alcotest.(check bool) "is realizer" true (Realizer.is_realizer antichain r);
  let chain = Poset.of_total_order [| 2; 0; 1 |] in
  let r = Realizer.dilworth chain in
  Alcotest.(check int) "chain realizer size" 1 (List.length r);
  Alcotest.(check bool) "is realizer" true (Realizer.is_realizer chain r)

let test_realizer_property =
  qtest ~count:300 "Dilworth realizer realizes the poset" Gen.poset
    poset_print (fun p ->
      let r = Realizer.dilworth p in
      List.length r = max 1 (Dilworth.width p) && Realizer.is_realizer p r)

let test_realizer_vectors =
  qtest ~count:200 "rank vectors encode the poset" Gen.poset poset_print
    (fun p ->
      let vecs = Realizer.vectors (Realizer.dilworth p) in
      let ok = ref true in
      for i = 0 to Poset.size p - 1 do
        for j = 0 to Poset.size p - 1 do
          if i <> j then
            if Poset.lt p i j <> Realizer.vector_lt vecs.(i) vecs.(j) then
              ok := false
        done
      done;
      !ok)

let test_vector_order () =
  Alcotest.(check bool) "lt" true (Realizer.vector_lt [| 0; 1 |] [| 1; 1 |]);
  Alcotest.(check bool) "not lt equal" false
    (Realizer.vector_lt [| 1; 1 |] [| 1; 1 |]);
  Alcotest.(check bool) "concurrent" true
    (Realizer.vector_concurrent [| 0; 2 |] [| 1; 1 |])

let test_is_realizer_rejects () =
  let p = Poset.of_relation 2 [] in
  Alcotest.(check bool) "single ext insufficient" false
    (Realizer.is_realizer p [ [| 0; 1 |] ]);
  Alcotest.(check bool) "empty list" false (Realizer.is_realizer p [])

(* ---------- Dimension ---------- *)

let test_all_linear_extensions () =
  let antichain = Poset.of_relation 3 [] in
  (match Dimension.all_linear_extensions antichain with
  | Some exts -> Alcotest.(check int) "3! extensions" 6 (List.length exts)
  | None -> Alcotest.fail "cap hit");
  let chain = Poset.of_total_order [| 0; 1; 2; 3 |] in
  (match Dimension.all_linear_extensions chain with
  | Some exts -> Alcotest.(check int) "chain has 1" 1 (List.length exts)
  | None -> Alcotest.fail "cap hit");
  match Dimension.all_linear_extensions ~cap:3 antichain with
  | None -> ()
  | Some _ -> Alcotest.fail "cap should trigger"

let test_dimension_known () =
  let chain = Poset.of_total_order [| 0; 1; 2 |] in
  Alcotest.(check (option int)) "chain dim" (Some 1) (Dimension.dimension chain);
  let antichain = Poset.of_relation 4 [] in
  Alcotest.(check (option int)) "antichain dim" (Some 2)
    (Dimension.dimension antichain);
  (* The 2-crown a0<b1, a1<b0 has dimension 2. *)
  let crown = Poset.of_relation 4 [ (0, 3); (1, 2) ] in
  Alcotest.(check (option int)) "crown S2" (Some 2) (Dimension.dimension crown)

let test_dimension_leq_width =
  qtest ~count:80 "dim <= width on tiny posets" Gen.tiny_poset poset_print
    (fun p ->
      match Dimension.dimension p with
      | None -> QCheck2.assume_fail ()
      | Some d -> d <= max 1 (Dilworth.width p))

let test_dimension_realized =
  qtest ~count:60 "Dilworth realizer size >= true dimension" Gen.tiny_poset
    poset_print (fun p ->
      match Dimension.dimension p with
      | None -> QCheck2.assume_fail ()
      | Some d -> List.length (Realizer.dilworth p) >= d)

let test_count_linear_extensions =
  qtest ~count:80 "ideal-lattice count = enumeration count" Gen.tiny_poset
    poset_print (fun p ->
      match
        (Dimension.count_linear_extensions p,
         Dimension.all_linear_extensions p)
      with
      | Some c, Some exts -> c = List.length exts
      | None, _ | _, None -> QCheck2.assume_fail ())

let test_count_known () =
  Alcotest.(check (option int)) "antichain of 4: 4!" (Some 24)
    (Dimension.count_linear_extensions (Poset.of_relation 4 []));
  Alcotest.(check (option int)) "chain: 1" (Some 1)
    (Dimension.count_linear_extensions (Poset.of_total_order [| 0; 1; 2; 3 |]));
  let diamond = Poset.of_relation 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  Alcotest.(check (option int)) "diamond: 2" (Some 2)
    (Dimension.count_linear_extensions diamond)

let test_minimum_realizer_valid =
  qtest ~count:60 "minimum_realizer is a realizer of dimension size"
    Gen.tiny_poset poset_print (fun p ->
      match (Dimension.minimum_realizer p, Dimension.dimension p) with
      | Some r, Some d ->
          List.length r = d && Realizer.is_realizer p r
      | None, None -> true
      | _ -> false)

(* ---------- Incremental width ---------- *)

module Incremental_width = Synts_poset.Incremental_width

let test_incremental_width_known () =
  let t = Incremental_width.create () in
  Alcotest.(check int) "empty" 0 (Incremental_width.width t);
  let a = Incremental_width.add t ~preds:[] in
  let b = Incremental_width.add t ~preds:[] in
  Alcotest.(check int) "two incomparable" 2 (Incremental_width.width t);
  let c = Incremental_width.add t ~preds:[ a; b ] in
  Alcotest.(check int) "joined" 2 (Incremental_width.width t);
  Alcotest.(check bool) "a < c" true (Incremental_width.lt t a c);
  Alcotest.(check bool) "not c < a" false (Incremental_width.lt t c a);
  let _ = Incremental_width.add t ~preds:[ c ] in
  Alcotest.(check int) "chain extension keeps width" 2
    (Incremental_width.width t)

let test_incremental_width_matches_batch =
  qtest ~count:150 "incremental width = Dilworth width on every prefix"
    Gen.poset poset_print (fun p ->
      let n = Poset.size p in
      let order = Poset.linear_extension p in
      (* Map original ids to insertion ids. *)
      let insert_id = Array.make n (-1) in
      let t = Incremental_width.create () in
      let ok = ref true in
      Array.iteri
        (fun idx v ->
          let preds =
            List.filter_map
              (fun u ->
                if Poset.lt p u v then Some insert_id.(u) else None)
              (Array.to_list (Array.sub order 0 idx))
          in
          insert_id.(v) <- Incremental_width.add t ~preds;
          (* Check against batch width of the inserted prefix. *)
          let prefix_pairs = ref [] in
          for a = 0 to idx do
            for b = 0 to idx do
              let x = order.(a) and y = order.(b) in
              if Poset.lt p x y then
                prefix_pairs := (insert_id.(x), insert_id.(y)) :: !prefix_pairs
            done
          done;
          let batch = Poset.of_relation (idx + 1) !prefix_pairs in
          if Incremental_width.width t <> Dilworth.width batch then ok := false)
        order;
      !ok)

(* ---------- Streaming chains ---------- *)

module Streaming_chains = Synts_poset.Streaming_chains

let test_streaming_known () =
  let t = Streaming_chains.create () in
  Alcotest.(check int) "empty size" 0 (Streaming_chains.size t);
  Alcotest.(check int) "empty chains" 0 (Streaming_chains.chains t);
  Alcotest.(check int) "empty width" 0 (Streaming_chains.width t);
  Alcotest.(check bool) "empty exact" true (Streaming_chains.exact t);
  (* A pure chain: each element covers the previous one. *)
  let t = Streaming_chains.create () in
  let last = ref [||] in
  for k = 1 to 10 do
    if k > 1 then Streaming_chains.pred t !last ~chain:0;
    let s = Streaming_chains.insert t in
    Alcotest.(check int) (Printf.sprintf "chain rank %d" k) k s.(0);
    if k > 1 then
      Alcotest.(check bool) "chain stamps increase" true
        (Streaming_chains.stamp_lt !last s);
    last := s
  done;
  Alcotest.(check int) "one chain" 1 (Streaming_chains.chains t);
  Alcotest.(check int) "chain width" 1 (Streaming_chains.width t);
  (* A pure antichain: no predecessors, ever. *)
  let t = Streaming_chains.create () in
  let stamps = Array.init 8 (fun _ -> Streaming_chains.insert t) in
  Alcotest.(check int) "antichain chains" 8 (Streaming_chains.chains t);
  Alcotest.(check int) "antichain width" 8 (Streaming_chains.width t);
  Array.iteri
    (fun i u ->
      Array.iteri
        (fun j v ->
          if i <> j then
            Alcotest.(check bool) "antichain incomparable" false
              (Streaming_chains.stamp_lt u v))
        stamps)
    stamps;
  (* The minimum window still works (every insert retires). *)
  let t = Streaming_chains.create ~window:2 () in
  let last = ref [||] in
  for k = 1 to 20 do
    if k > 1 then Streaming_chains.pred t !last ~chain:0;
    last := Streaming_chains.insert t
  done;
  Alcotest.(check int) "tiny-window chain" 1 (Streaming_chains.chains t);
  Alcotest.(check bool) "tiny window retired" false (Streaming_chains.exact t);
  (* A refused predecessor (a chain it is not on, a rank past its chain)
     forgets the ones named before it. *)
  let t = Streaming_chains.create () in
  let a = Streaming_chains.insert t in
  List.iter
    (fun (p, chain) ->
      Streaming_chains.pred t a ~chain:0;
      (match Streaming_chains.pred t p ~chain with
      | () -> Alcotest.fail "bad predecessor accepted"
      | exception Invalid_argument _ -> ());
      Alcotest.(check bool) "nothing named survives a refusal" false
        (Streaming_chains.stamp_lt a (Streaming_chains.insert t)))
    [ (a, 1); ([| 2 |], 0) ]

(* Insert [p] in linear-extension order, naming every predecessor (not
   just the immediate ones); returns the structure, the order and each
   element's stamp. *)
let stream_poset ?window p =
  let order = Poset.linear_extension p in
  let t = Streaming_chains.create ?window () in
  let stamp = Array.make (Poset.size p) [||] in
  let chain = Array.make (Poset.size p) (-1) in
  Array.iteri
    (fun idx v ->
      for i = 0 to idx - 1 do
        let u = order.(i) in
        if Poset.lt p u v then Streaming_chains.pred t stamp.(u) ~chain:chain.(u)
      done;
      stamp.(v) <- Streaming_chains.insert t;
      chain.(v) <- Streaming_chains.last_chain t)
    order;
  (t, order, stamp)

(* Insert a random poset in linear-extension order and require the emitted
   stamps to encode exactly the poset order — the core claim that makes the
   streaming offline pipeline sound. *)
let streaming_encodes ?window p =
  let n = Poset.size p in
  let t, _, stamp = stream_poset ?window p in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Streaming_chains.stamp_lt stamp.(u) stamp.(v) <> Poset.lt p u v
      then ok := false
    done
  done;
  (* Exact width while nothing was retired; an upper bound afterwards. *)
  (if Streaming_chains.exact t then begin
     if Streaming_chains.width t <> Dilworth.width p then ok := false
   end
   else if Streaming_chains.width t < Dilworth.width p then ok := false);
  !ok

let test_streaming_encodes_poset =
  qtest ~count:200 "streaming stamps encode the poset" Gen.poset poset_print
    (fun p -> streaming_encodes p)

(* Windows 2 and 3 fill on almost every insert, so [make_room]'s
   all-tails pass (every live slot a chain tail) fires too. *)
let test_streaming_encodes_poset_small_window =
  qtest ~count:200 "streaming stamps encode the poset under retirement"
    Gen.poset poset_print (fun p ->
      streaming_encodes ~window:8 p
      && streaming_encodes ~window:3 p
      && streaming_encodes ~window:2 p)

(* ---------- golden stamps ----------

   Digests of every stamp the streaming pipeline emitted before its
   insert was made word-parallel (ancestor rows from chain tops, the
   free-left set). Any change to placement, matching or retirement
   order changes a digest. *)

let stamp_digest stamps =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Array.iter (fun c -> Buffer.add_string b (string_of_int c ^ ",")) s;
      Buffer.add_char b ';')
    stamps;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A seeded 20k-message stream on cs:8x248, the offline-cs topology,
   through [Offline.Stream] unpadded. *)
let cs_stream_digest ~window =
  let g = Synts_graph.Topology.client_server ~servers:8 ~clients:248 in
  let trace =
    Synts_workload.Workload.random (Synts_util.Rng.create 15) ~topology:g
      ~messages:20_000 ()
  in
  let s = Synts_core.Offline.Stream.create ~window ~n:256 () in
  stamp_digest
    (Array.to_list
       (Array.map
          (fun (m : Synts_sync.Trace.message) ->
            Synts_core.Offline.Stream.observe s ~src:m.src ~dst:m.dst)
          (Synts_sync.Trace.messages trace)))

(* 200 posets drawn like [Gen.poset] (up to 40 elements, edge
   probability up to 0.5), each streamed at every window the
   [streaming_encodes] properties use. *)
let posets_digest () =
  let rng = Synts_util.Rng.create 42 in
  let stamps = ref [] in
  for _ = 1 to 200 do
    let n = Synts_util.Rng.int rng 41 in
    let seed = Synts_util.Rng.int rng 1_000_000 in
    let prob = 0.5 *. Synts_util.Rng.float rng in
    let p = Poset.random (Synts_util.Rng.create seed) n prob in
    List.iter
      (fun window ->
        let _, order, stamp = stream_poset ~window p in
        Array.iter (fun v -> stamps := stamp.(v) :: !stamps) order)
      [ 2; 3; 8; 1024 ]
  done;
  stamp_digest (List.rev !stamps)

(* One insert's stamp and attribution, appended to a digest buffer. *)
let add_insert b stamp (i : Streaming_chains.info) =
  Array.iter (fun c -> Buffer.add_string b (string_of_int c ^ ",")) stamp;
  Printf.bprintf b "|%d,%b,%b,%d,%d;" i.chain i.opened i.matched i.visited
    i.retired

(* 200 posets of up to 60 elements, each streamed naming only its
   immediate predecessors (covers), as a message stream does, with each
   insert's attribution. A named predecessor that has retired reaches
   its live ancestors only through its stamp, which the posets above,
   naming every predecessor, never need. *)
let covers_digest () =
  let rng = Synts_util.Rng.create 43 in
  let b = Buffer.create 4096 in
  for _ = 1 to 200 do
    let n = Synts_util.Rng.int rng 61 in
    let seed = Synts_util.Rng.int rng 1_000_000 in
    let prob = 0.5 *. Synts_util.Rng.float rng in
    let p = Poset.random (Synts_util.Rng.create seed) n prob in
    let cover = Array.make_matrix n n false in
    List.iter (fun (u, v) -> cover.(u).(v) <- true) (Poset.covers p);
    let order = Poset.linear_extension p in
    List.iter
      (fun window ->
        let t = Streaming_chains.create ~window () in
        let stamp = Array.make n [||] and chain = Array.make n (-1) in
        Array.iteri
          (fun idx v ->
            for i = 0 to idx - 1 do
              let u = order.(i) in
              if cover.(u).(v) then
                Streaming_chains.pred t stamp.(u) ~chain:chain.(u)
            done;
            stamp.(v) <- Streaming_chains.insert t;
            chain.(v) <- Streaming_chains.last_chain t;
            add_insert b stamp.(v) (Streaming_chains.last_info t))
          order)
      [ 2; 3; 5; 8; 1024 ]
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Seeded 20k-message streams on the wider topologies (stream
   dimensions in the tens), digested with each insert's attribution as
   well as its stamp, so placement, matching growth, repair-search
   visits and retirement are all pinned, not just the stamps. *)
let info_stream_digest ~spec ~window =
  let g =
    match Synts_graph.Topology.spec_of_string spec with
    | Ok spec ->
        Synts_graph.Topology.build ~rng:(Synts_util.Rng.create 19) spec
    | Error e -> invalid_arg e
  in
  let trace =
    Synts_workload.Workload.random (Synts_util.Rng.create 23) ~topology:g
      ~messages:20_000 ()
  in
  let module Stream = Synts_core.Offline.Stream in
  let s = Stream.create ~window ~n:(Synts_graph.Graph.n g) () in
  let b = Buffer.create 4096 in
  Array.iter
    (fun (m : Synts_sync.Trace.message) ->
      let v = Stream.observe s ~src:m.src ~dst:m.dst in
      add_insert b v (Stream.last_info s))
    (Synts_sync.Trace.messages trace);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_streaming_golden () =
  Alcotest.(check string) "cs:8x248 20k messages, window 1024"
    "5612ebbf1dfbb78c670d0f7ee69f3764" (cs_stream_digest ~window:1024);
  Alcotest.(check string) "cs:8x248 20k messages, window 3"
    "2088935e3bb363e5a1c864fa9847e8c8"
    (cs_stream_digest ~window:3);
  Alcotest.(check string) "random posets, windows 2/3/8/1024"
    "d0158d58a991db56b63770bd08d8e7ac"
    (posets_digest ());
  (* Recorded before the insert was rebuilt from predecessor rows. *)
  Alcotest.(check string)
    "random posets, covers named, with attribution, windows 2/3/5/8/1024"
    "72763b602010b0c0893052ebd7617194" (covers_digest ());
  List.iter
    (fun (spec, window, digest) ->
      Alcotest.(check string)
        (Printf.sprintf "%s 20k messages with attribution, window %d" spec
           window)
        digest
        (info_stream_digest ~spec ~window))
    [
      ("gnp:64:0.3", 1024, "035193dd7f5cd9570f69c7d883064489");
      ("gnp:64:0.3", 3, "37a3d2f939667b20ea06aa0fa91100d5");
      ("grid:8x8", 1024, "04cb509b141e97b75ba35edbdc8d8e8c");
      ("grid:8x8", 3, "d47ee762f23277dbc7b7fb2ca4328df1");
    ]

let () =
  Alcotest.run "poset"
    [
      ( "incremental-width",
        [
          Alcotest.test_case "known" `Quick test_incremental_width_known;
          test_incremental_width_matches_batch;
        ] );
      ( "streaming-chains",
        [
          Alcotest.test_case "boundaries" `Quick test_streaming_known;
          Alcotest.test_case "golden stamps" `Quick test_streaming_golden;
          test_streaming_encodes_poset;
          test_streaming_encodes_poset_small_window;
        ] );
      ( "poset",
        [
          Alcotest.test_case "basics" `Quick test_poset_basic;
          Alcotest.test_case "cycle rejection" `Quick test_poset_cycle;
          Alcotest.test_case "covers" `Quick test_poset_covers;
          Alcotest.test_case "intersection" `Quick test_intersection;
          Alcotest.test_case "is_linear_extension rejects" `Quick
            test_is_linear_extension_rejects;
          test_covers_reconstruct;
          test_linear_extension_valid;
          test_avoiding_property;
          test_random_poset_valid;
        ] );
      ( "matching",
        [
          Alcotest.test_case "known matchings" `Quick test_matching_known;
          test_matching_is_matching;
          test_matching_maximum;
          test_koenig_cover;
        ] );
      ( "dilworth",
        [
          Alcotest.test_case "known widths" `Quick test_width_known;
          test_chain_partition_valid;
          test_max_antichain_valid;
          test_chains_sorted;
        ] );
      ( "realizer",
        [
          Alcotest.test_case "known realizers" `Quick test_realizer_known;
          Alcotest.test_case "vector order" `Quick test_vector_order;
          Alcotest.test_case "is_realizer rejects" `Quick
            test_is_realizer_rejects;
          test_realizer_property;
          test_realizer_vectors;
        ] );
      ( "dimension",
        [
          Alcotest.test_case "extension enumeration" `Quick
            test_all_linear_extensions;
          Alcotest.test_case "known dimensions" `Quick test_dimension_known;
          Alcotest.test_case "extension counts" `Quick test_count_known;
          test_dimension_leq_width;
          test_dimension_realized;
          test_minimum_realizer_valid;
          test_count_linear_extensions;
        ] );
    ]
