module Graph = Synts_graph.Graph
module Topology = Synts_graph.Topology
module Vertex_cover = Synts_graph.Vertex_cover
module Decomposition = Synts_graph.Decomposition
module Gen = Synts_test_support.Gen

let qtest ?(count = 200) name gen print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen f)

(* ---------- Graph basics ---------- *)

let test_graph_build () =
  let g = Graph.of_edges 5 [ (0, 1); (1, 2); (2, 0); (1, 2) ] in
  Alcotest.(check int) "n" 5 (Graph.n g);
  Alcotest.(check int) "m collapses duplicates" 3 (Graph.m g);
  Alcotest.(check bool) "has 1-2" true (Graph.has_edge g 1 2);
  Alcotest.(check bool) "has 2-1" true (Graph.has_edge g 2 1);
  Alcotest.(check bool) "no 3-4" false (Graph.has_edge g 3 4);
  Alcotest.(check (list int)) "neighbors 1" [ 0; 2 ] (Graph.neighbors g 1);
  Alcotest.(check int) "degree" 2 (Graph.degree g 0)

let test_graph_rejects () =
  Alcotest.check_raises "self-loop" (Invalid_argument "Graph: self-loop")
    (fun () -> ignore (Graph.of_edges 3 [ (1, 1) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph: vertex out of range") (fun () ->
      ignore (Graph.of_edges 3 [ (0, 3) ]))

let test_graph_remove () =
  let g = Graph.of_edges 4 [ (0, 1); (0, 2); (0, 3); (1, 2) ] in
  let g' = Graph.remove_vertex_edges g 0 in
  Alcotest.(check int) "only 1-2 left" 1 (Graph.m g');
  Alcotest.(check bool) "1-2 kept" true (Graph.has_edge g' 1 2);
  Alcotest.(check int) "original untouched" 4 (Graph.m g);
  let g'' = Graph.remove_edge g 0 1 in
  Alcotest.(check int) "one edge gone" 3 (Graph.m g'')

let test_graph_components () =
  let g = Graph.of_edges 6 [ (0, 1); (1, 2); (4, 5) ] in
  Alcotest.(check (list (list int)))
    "components"
    [ [ 0; 1; 2 ]; [ 3 ]; [ 4; 5 ] ]
    (Graph.connected_components g);
  Alcotest.(check bool) "not connected" false (Graph.is_connected g);
  Alcotest.(check bool) "forest" true (Graph.is_forest g);
  let g = Graph.add_edge g 0 2 in
  Alcotest.(check bool) "cycle kills forest" false (Graph.is_forest g)

let test_star_recognition () =
  Alcotest.(check (option int)) "star center" (Some 0)
    (Graph.star_center (Topology.star 6));
  Alcotest.(check (option int)) "single edge star" (Some 1)
    (Graph.star_center (Graph.of_edges 4 [ (1, 3) ]));
  Alcotest.(check (option int)) "path of 3 is a star (middle)" (Some 1)
    (Graph.star_center (Graph.of_edges 3 [ (0, 1); (1, 2) ]));
  Alcotest.(check (option int)) "path of 4 is not" None
    (Graph.star_center (Topology.path 4));
  Alcotest.(check bool) "triangle is not a star" false
    (Graph.is_star (Topology.triangle ()))

let test_triangle_recognition () =
  Alcotest.(check bool) "triangle" true
    (Graph.is_triangle (Topology.triangle ()));
  Alcotest.(check bool) "path not triangle" false
    (Graph.is_triangle (Topology.path 4));
  let g = Graph.of_edges 6 [ (2, 4); (4, 5); (2, 5) ] in
  (match Graph.triangle_of g with
  | Some t -> Alcotest.(check (triple int int int)) "vertices" (2, 4, 5) t
  | None -> Alcotest.fail "expected a triangle");
  Alcotest.(check (list int)) "triangle through" [ 5 ]
    (Graph.find_triangle_through g 2 4)

let test_adjacent_edge_count () =
  let g = Topology.star 5 in
  Alcotest.(check int) "star edge adjacency" 3
    (Graph.adjacent_edge_count g (0, 1))

(* ---------- Topology generators ---------- *)

let test_topology_sizes () =
  let checks =
    [
      ("star 7", Topology.star 7, 7, 6);
      ("triangle", Topology.triangle (), 3, 3);
      ("complete 6", Topology.complete 6, 6, 15);
      ("path 5", Topology.path 5, 5, 4);
      ("ring 5", Topology.ring 5, 5, 5);
      ("grid 3x4", Topology.grid 3 4, 12, 17);
      ("cs 2x5", Topology.client_server ~servers:2 ~clients:5, 7, 10);
      ("triangles 4", Topology.disjoint_triangles 4, 12, 12);
      ("btree 2x3", Topology.balanced_tree ~arity:2 ~depth:3, 15, 14);
      ("fig4", Topology.fig4_tree (), 20, 19);
      ("fig2b", Topology.fig2b (), 11, 13);
    ]
  in
  List.iter
    (fun (name, g, n, m) ->
      Alcotest.(check int) (name ^ " n") n (Graph.n g);
      Alcotest.(check int) (name ^ " m") m (Graph.m g))
    checks

let test_random_tree_is_tree =
  qtest "random trees are connected forests"
    QCheck2.Gen.(pair (int_bound 100000) (int_range 1 40))
    (fun (s, n) -> Printf.sprintf "seed=%d n=%d" s n)
    (fun (seed, n) ->
      let g = Topology.random_tree (Synts_util.Rng.create seed) n in
      Graph.is_forest g && Graph.is_connected g && Graph.m g = n - 1)

let test_random_connected =
  qtest "random_connected is connected"
    QCheck2.Gen.(pair (int_bound 100000) (int_range 2 30))
    (fun (s, n) -> Printf.sprintf "seed=%d n=%d" s n)
    (fun (seed, n) ->
      let g = Topology.random_connected (Synts_util.Rng.create seed) n 0.2 in
      Graph.is_connected g && Graph.m g >= n - 1)

let test_graph_file_roundtrip =
  qtest "topology file format round-trips" Gen.small_graph
    Gen.small_graph_print (fun (n, edges) ->
      let g = Graph.of_edges n edges in
      match Topology.graph_of_string (Topology.graph_to_string g) with
      | Ok g' -> Graph.equal g g'
      | Error _ -> false)

let test_graph_file_errors () =
  let cases =
    [ "e 0 1\n"; "n 2\nn 3\n"; "n x\n"; "n 2\ne 0\n"; "n 2\nz 1 2\n";
      "n 2\ne 0 5\n" ]
  in
  List.iter
    (fun text ->
      match Topology.graph_of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted: " ^ String.escaped text))
    cases

let test_spec_roundtrip () =
  List.iter
    (fun (s, spec) ->
      match Topology.spec_of_string s with
      | Ok spec' ->
          Alcotest.(check string) ("roundtrip " ^ s)
            (Topology.spec_to_string spec)
            (Topology.spec_to_string spec')
      | Error e -> Alcotest.fail e)
    Topology.all_families;
  match Topology.spec_of_string "nonsense:x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should reject nonsense"

(* ---------- Vertex cover ---------- *)

let test_cover_known () =
  let star = Topology.star 8 in
  Alcotest.(check (list int)) "star greedy" [ 0 ] (Vertex_cover.greedy star);
  (match Vertex_cover.exact star with
  | Some c -> Alcotest.(check int) "star exact size" 1 (List.length c)
  | None -> Alcotest.fail "exact should finish");
  let k4 = Topology.complete 4 in
  (match Vertex_cover.exact k4 with
  | Some c -> Alcotest.(check int) "K4 exact size" 3 (List.length c)
  | None -> Alcotest.fail "exact should finish");
  let cs = Topology.client_server ~servers:3 ~clients:10 in
  match Vertex_cover.exact cs with
  | Some c -> Alcotest.(check (list int)) "servers cover" [ 0; 1; 2 ] c
  | None -> Alcotest.fail "exact should finish"

let build_small (n, edges) = Graph.of_edges n edges

let test_cover_validity =
  qtest "greedy and 2-approx produce covers" Gen.small_graph
    Gen.small_graph_print (fun sg ->
      let g = build_small sg in
      Vertex_cover.is_cover g (Vertex_cover.greedy g)
      && Vertex_cover.is_cover g (Vertex_cover.two_approx g))

let test_cover_exact_optimal =
  qtest ~count:120 "exact <= heuristics and >= matching bound" Gen.small_graph
    Gen.small_graph_print (fun sg ->
      let g = build_small sg in
      match Vertex_cover.exact g with
      | None -> QCheck2.assume_fail ()
      | Some c ->
          Vertex_cover.is_cover g c
          && List.length c <= List.length (Vertex_cover.greedy g)
          && List.length c <= List.length (Vertex_cover.two_approx g)
          && List.length c >= Vertex_cover.size_lower_bound g)

let test_two_approx_ratio =
  qtest ~count:120 "2-approx within factor 2" Gen.small_graph
    Gen.small_graph_print (fun sg ->
      let g = build_small sg in
      match Vertex_cover.exact g with
      | None -> QCheck2.assume_fail ()
      | Some c ->
          List.length (Vertex_cover.two_approx g) <= 2 * max 1 (List.length c))

(* ---------- Edge decomposition ---------- *)

let decomposition_valid g d =
  match Decomposition.make g (Decomposition.groups d) with
  | Ok _ -> true
  | Error _ -> false

let test_fig3_k5 () =
  let k5 = Topology.complete 5 in
  let a =
    Decomposition.make_exn k5
      [
        Star { center = 0; leaves = [ 1; 2; 3; 4 ] };
        Star { center = 1; leaves = [ 2; 3; 4 ] };
        Triangle (2, 3, 4);
      ]
  in
  Alcotest.(check int) "3a size" 3 (Decomposition.size a);
  let b =
    Decomposition.make_exn k5
      [
        Star { center = 0; leaves = [ 1; 2; 3; 4 ] };
        Star { center = 1; leaves = [ 2; 3; 4 ] };
        Star { center = 2; leaves = [ 3; 4 ] };
        Star { center = 3; leaves = [ 4 ] };
      ]
  in
  Alcotest.(check int) "3b size" 4 (Decomposition.size b);
  Alcotest.(check int) "paper algorithm on K5" 3
    (Decomposition.size (Decomposition.paper k5));
  match Decomposition.exact k5 with
  | Some e -> Alcotest.(check int) "exact K5" 3 (Decomposition.size e)
  | None -> Alcotest.fail "exact should finish on K5"

let test_fig4_tree () =
  let g = Topology.fig4_tree () in
  let d = Decomposition.paper g in
  Alcotest.(check int) "three stars" Topology.fig4_expected_groups
    (Decomposition.size d);
  Alcotest.(check int) "all stars" 3 (Decomposition.stars d);
  Alcotest.(check bool) "valid" true (decomposition_valid g d)

let test_fig8_run () =
  let g = Topology.fig2b () in
  let steps = Decomposition.paper_trace g in
  let phases = List.map (fun s -> s.Decomposition.phase) steps in
  (* The narrative of Figure 8: step 1 emits a star, step 2 a triangle,
     step 3 two stars, then the loop back to step 1 emits the last star. *)
  Alcotest.(check (list int)) "phase sequence" [ 1; 2; 3; 3; 1 ] phases;
  let d = Decomposition.paper g in
  Alcotest.(check int) "algorithm size" 5 (Decomposition.size d);
  (match Decomposition.exact g with
  | Some e ->
      Alcotest.(check int) "optimal size" 5 (Decomposition.size e);
      Alcotest.(check int) "optimal stars" 4 (Decomposition.stars e);
      Alcotest.(check int) "optimal triangles" 1 (Decomposition.triangles e)
  | None -> Alcotest.fail "exact should finish on fig2b");
  (* The final step-1 star must contain edge (j, k) = (9, 10). *)
  match List.rev steps with
  | last :: _ ->
      let edges = Decomposition.edges_of_group last.Decomposition.group in
      Alcotest.(check bool) "contains (j,k)" true (List.mem (9, 10) edges)
  | [] -> Alcotest.fail "no steps"

let test_decomposition_make_rejects () =
  let k3 = Topology.triangle () in
  (match Decomposition.make k3 [ Star { center = 0; leaves = [ 1; 2 ] } ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "incomplete cover accepted");
  (match
     Decomposition.make k3
       [
         Star { center = 0; leaves = [ 1; 2 ] };
         Star { center = 1; leaves = [ 0; 2 ] };
       ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overlapping groups accepted");
  (* As many channels as edges, but (0,1) twice and (1,2) never. *)
  (match
     Decomposition.make k3
       [ Star { center = 0; leaves = [ 1; 2 ] }; Star { center = 1; leaves = [ 0 ] } ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a duplicate hiding a missing edge accepted");
  match
    Decomposition.make k3
      [
        Star { center = 0; leaves = [ 1; 2 ] };
        Star { center = 1; leaves = [ 2 ] };
        Star { center = 2; leaves = [ 0 ] };
      ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "edge (0,2) used twice via star@2 leaf 0"

let test_group_of_edge () =
  let k5 = Topology.complete 5 in
  let d = Decomposition.paper k5 in
  Graph.iter_edges
    (fun u v ->
      let g = Decomposition.group_of_edge d u v in
      let grp = List.nth (Decomposition.groups d) g in
      Alcotest.(check bool)
        (Printf.sprintf "edge (%d,%d) in its group" u v)
        true
        (List.mem (u, v) (Decomposition.edges_of_group grp)))
    k5;
  Alcotest.check_raises "missing edge" Not_found (fun () ->
      ignore
        (Decomposition.group_of_edge (Decomposition.paper (Topology.star 3)) 1 2))

let test_constructions_deterministic =
  qtest "every construction is deterministic" Gen.small_graph
    Gen.small_graph_print (fun sg ->
      let g = build_small sg in
      let same f = Decomposition.groups (f g) = Decomposition.groups (f g) in
      same Decomposition.paper
      && same Decomposition.sequential
      && same Decomposition.best
      && same Decomposition.triangles_first)

let test_paper_trace_partitions =
  qtest "paper_trace emissions partition the edge set" Gen.small_graph
    Gen.small_graph_print (fun sg ->
      let g = build_small sg in
      let emitted =
        List.concat_map
          (fun s -> Decomposition.edges_of_group s.Decomposition.group)
          (Decomposition.paper_trace g)
      in
      List.sort compare emitted = Graph.edges g)

let test_paper_valid =
  qtest "paper algorithm yields valid decompositions" Gen.small_graph
    Gen.small_graph_print (fun sg ->
      let g = build_small sg in
      decomposition_valid g (Decomposition.paper g))

let test_sequential_valid_and_bounded =
  qtest "sequential decomposition valid and <= max(1, N-2)" Gen.small_graph
    Gen.small_graph_print (fun sg ->
      let g = build_small sg in
      let d = Decomposition.sequential g in
      decomposition_valid g d
      && (Graph.m g = 0 || Decomposition.size d <= max 1 (Graph.n g - 2)))

let test_vc_decomposition_valid =
  qtest "vertex-cover stars form valid decompositions" Gen.small_graph
    Gen.small_graph_print (fun sg ->
      let g = build_small sg in
      match Decomposition.of_vertex_cover g (Vertex_cover.two_approx g) with
      | Ok d ->
          decomposition_valid g d
          && Decomposition.triangles d = 0
          && Decomposition.size d <= List.length (Vertex_cover.two_approx g)
      | Error _ -> false)

let test_vc_decomposition_rejects_non_cover () =
  let k3 = Topology.triangle () in
  match Decomposition.of_vertex_cover k3 [ 0 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-cover accepted"

let test_paper_ratio_2 =
  qtest ~count:150 "Theorem 6: paper algorithm within 2x of optimum"
    Gen.small_graph Gen.small_graph_print (fun sg ->
      let g = build_small sg in
      match Decomposition.exact g with
      | None -> QCheck2.assume_fail ()
      | Some opt ->
          decomposition_valid g opt
          && Decomposition.size (Decomposition.paper g)
             <= 2 * max 1 (Decomposition.size opt))

let test_paper_optimal_on_forests =
  qtest ~count:150 "Theorem 7: optimal on forests"
    QCheck2.Gen.(pair (int_bound 100000) (int_range 2 10))
    (fun (s, n) -> Printf.sprintf "seed=%d n=%d" s n)
    (fun (seed, n) ->
      let g = Topology.random_tree (Synts_util.Rng.create seed) n in
      match Decomposition.exact g with
      | None -> QCheck2.assume_fail ()
      | Some opt ->
          Decomposition.size (Decomposition.paper g) = Decomposition.size opt)

let test_exact_lower_bound =
  qtest ~count:100 "exact >= matching lower bound" Gen.small_graph
    Gen.small_graph_print (fun sg ->
      let g = build_small sg in
      match Decomposition.exact g with
      | None -> QCheck2.assume_fail ()
      | Some opt ->
          Graph.m g = 0
          || Decomposition.size opt >= Decomposition.min_size_lower_bound g)

let test_disjoint_triangles_gap () =
  let g = Topology.disjoint_triangles 5 in
  (match Decomposition.exact g with
  | Some opt ->
      Alcotest.(check int) "alpha = t" 5 (Decomposition.size opt);
      Alcotest.(check int) "all triangles" 5 (Decomposition.triangles opt)
  | None -> Alcotest.fail "exact should finish");
  (match Decomposition.of_vertex_cover g (Vertex_cover.two_approx g) with
  | Ok d -> Alcotest.(check int) "beta = 2t" 10 (Decomposition.size d)
  | Error _ -> Alcotest.fail "cover decomposition failed");
  Alcotest.(check int) "paper finds triangles" 5
    (Decomposition.size (Decomposition.paper g))

let test_triangles_first =
  qtest "triangles_first yields valid decompositions" Gen.small_graph
    Gen.small_graph_print (fun sg ->
      let g = build_small sg in
      decomposition_valid g (Decomposition.triangles_first g))

let test_triangles_first_on_triangles () =
  let g = Topology.disjoint_triangles 6 in
  let d = Decomposition.triangles_first g in
  Alcotest.(check int) "finds all 6" 6 (Decomposition.size d);
  Alcotest.(check int) "all triangles" 6 (Decomposition.triangles d)

let test_improve_merges_split_triangles () =
  (* The pure-star decomposition splits every triangle into two stars;
     improve must stitch them back. *)
  let g = Topology.disjoint_triangles 4 in
  match Decomposition.of_vertex_cover g (Vertex_cover.two_approx g) with
  | Error e -> Alcotest.fail e
  | Ok stars ->
      Alcotest.(check int) "stars before" 8 (Decomposition.size stars);
      let better = Decomposition.improve g stars in
      Alcotest.(check int) "triangles after" 4 (Decomposition.size better);
      Alcotest.(check int) "all triangles" 4 (Decomposition.triangles better)

let test_improve_properties =
  qtest "improve keeps validity and never grows" Gen.small_graph
    Gen.small_graph_print (fun sg ->
      let g = build_small sg in
      let d = Decomposition.sequential g in
      let better = Decomposition.improve g d in
      decomposition_valid g better
      && Decomposition.size better <= Decomposition.size d)

let test_best_never_worse =
  qtest "best <= each polynomial construction" Gen.small_graph
    Gen.small_graph_print (fun sg ->
      let g = build_small sg in
      let b = Decomposition.size (Decomposition.best g) in
      b <= Decomposition.size (Decomposition.paper g)
      && b <= Decomposition.size (Decomposition.sequential g))

let test_theorem5_bound =
  (* Theorem 5 is existential: the optimal-cover star decomposition has
     beta groups and the sequential one at most N-2, so the smaller of the
     two achieves min(beta, N-2). *)
  qtest ~count:150 "Theorem 5: a decomposition of size <= min(beta, N-2) exists"
    Gen.small_graph Gen.small_graph_print (fun sg ->
      let g = build_small sg in
      if Graph.m g = 0 then true
      else
        match Vertex_cover.exact g with
        | None -> QCheck2.assume_fail ()
        | Some c -> (
            match Decomposition.of_vertex_cover g c with
            | Error _ -> false
            | Ok stars ->
                min
                  (Decomposition.size stars)
                  (Decomposition.size (Decomposition.sequential g))
                <= max 1 (min (List.length c) (Graph.n g - 2))))

let test_complete_graph_worst_case () =
  (* The paper calls the complete graph the worst case: N-3 stars and one
     triangle, i.e. exactly N-2 groups, and no decomposition does better. *)
  List.iter
    (fun n ->
      match Decomposition.exact (Topology.complete n) with
      | Some opt ->
          Alcotest.(check int)
            (Printf.sprintf "K%d optimum" n)
            (n - 2) (Decomposition.size opt)
      | None -> Alcotest.fail "exact should finish")
    [ 4; 5; 6; 7 ]

let test_client_server_constant () =
  List.iter
    (fun clients ->
      let g = Topology.client_server ~servers:3 ~clients in
      Alcotest.(check int)
        (Printf.sprintf "3 servers, %d clients" clients)
        3
        (Decomposition.size (Decomposition.best g)))
    [ 4; 16; 64 ]

(* Degrees are cached; after any sequence of updates, and in a graph
   rebuilt by [of_edges], they must still be the neighbour counts the
   adjacency sets give. *)
type graph_op = Add of int * int | Remove of int * int | Isolate of int

let graph_ops_gen =
  QCheck2.Gen.(
    let* n = int_range 2 12 in
    let vertex = int_bound (n - 1) in
    let* ops =
      list_size (int_bound 60)
        (frequency
           [
             (5, map2 (fun u v -> Add (u, v)) vertex vertex);
             (3, map2 (fun u v -> Remove (u, v)) vertex vertex);
             (1, map (fun v -> Isolate v) vertex);
           ])
    in
    return (n, ops))

let graph_ops_print (n, ops) =
  Printf.sprintf "n=%d [%s]" n
    (String.concat "; "
       (List.map
          (function
            | Add (u, v) -> Printf.sprintf "add %d-%d" u v
            | Remove (u, v) -> Printf.sprintf "remove %d-%d" u v
            | Isolate v -> Printf.sprintf "isolate %d" v)
          ops))

let test_degree_cache =
  qtest ~count:300 "cached degrees match neighbour counts" graph_ops_gen
    graph_ops_print (fun (n, ops) ->
      let g =
        List.fold_left
          (fun g -> function
            | Add (u, v) -> if u = v then g else Graph.add_edge g u v
            | Remove (u, v) -> Graph.remove_edge g u v
            | Isolate v -> Graph.remove_vertex_edges g v)
          (Graph.empty n) ops
      in
      let counts g =
        List.map (fun v -> List.length (Graph.neighbors g v)) (Graph.vertices g)
      in
      let consistent g =
        List.for_all2
          (fun v c -> Graph.degree g v = c)
          (Graph.vertices g) (counts g)
        && Graph.max_degree g = List.fold_left max 0 (counts g)
        && 2 * Graph.m g = List.fold_left ( + ) 0 (counts g)
      in
      let rebuilt = Graph.of_edges n (Graph.edges g) in
      consistent g && consistent rebuilt && Graph.equal g rebuilt)

let () =
  Alcotest.run "graph"
    [
      ( "graph",
        [
          Alcotest.test_case "build" `Quick test_graph_build;
          Alcotest.test_case "rejects bad edges" `Quick test_graph_rejects;
          Alcotest.test_case "remove" `Quick test_graph_remove;
          Alcotest.test_case "components" `Quick test_graph_components;
          Alcotest.test_case "star recognition" `Quick test_star_recognition;
          Alcotest.test_case "triangle recognition" `Quick
            test_triangle_recognition;
          Alcotest.test_case "adjacent edge count" `Quick
            test_adjacent_edge_count;
          test_degree_cache;
        ] );
      ( "topology",
        [
          Alcotest.test_case "generator sizes" `Quick test_topology_sizes;
          Alcotest.test_case "spec parsing" `Quick test_spec_roundtrip;
          Alcotest.test_case "file format errors" `Quick test_graph_file_errors;
          test_graph_file_roundtrip;
          test_random_tree_is_tree;
          test_random_connected;
        ] );
      ( "vertex-cover",
        [
          Alcotest.test_case "known covers" `Quick test_cover_known;
          test_cover_validity;
          test_cover_exact_optimal;
          test_two_approx_ratio;
        ] );
      ( "decomposition",
        [
          Alcotest.test_case "figure 3 (K5)" `Quick test_fig3_k5;
          Alcotest.test_case "figure 4 (tree)" `Quick test_fig4_tree;
          Alcotest.test_case "figure 8 (algorithm run)" `Quick test_fig8_run;
          Alcotest.test_case "make rejects bad input" `Quick
            test_decomposition_make_rejects;
          Alcotest.test_case "group_of_edge" `Quick test_group_of_edge;
          Alcotest.test_case "disjoint triangles gap" `Quick
            test_disjoint_triangles_gap;
          Alcotest.test_case "client-server constant size" `Quick
            test_client_server_constant;
          Alcotest.test_case "complete graph worst case" `Quick
            test_complete_graph_worst_case;
          test_constructions_deterministic;
          test_paper_trace_partitions;
          test_paper_valid;
          test_sequential_valid_and_bounded;
          test_vc_decomposition_valid;
          Alcotest.test_case "of_vertex_cover rejects" `Quick
            test_vc_decomposition_rejects_non_cover;
          test_paper_ratio_2;
          test_paper_optimal_on_forests;
          test_exact_lower_bound;
          test_best_never_worse;
          test_theorem5_bound;
          Alcotest.test_case "improve merges split triangles" `Quick
            test_improve_merges_split_triangles;
          test_improve_properties;
          Alcotest.test_case "triangles-first on triangle family" `Quick
            test_triangles_first_on_triangles;
          test_triangles_first;
        ] );
    ]
