type group =
  | Star of { center : int; leaves : int list }
  | Triangle of int * int * int

(* The channel -> group map in O(N + E) words: vertex [u]'s neighbours,
   ascending, are [nbr.(off.(u)) .. nbr.(off.(u+1) - 1)], each beside
   its group in [grp]. *)
type index = { off : int array; nbr : int array; grp : int array }

type t = { graph_n : int; groups : group list; index : index }

(* Each channel goes in both directions. Placing every channel at its
   tail, in any order, then again at its head while walking the tails in
   ascending order leaves each vertex's neighbours ascending: O(N + E)
   whatever order the channels arrive in. *)
let index_of_edges n edges =
  let off = Array.make (n + 1) 0 in
  List.iter
    (fun (u, v, _) ->
      if u < 0 || v < 0 || u >= n || v >= n || u = v then
        invalid_arg "Decomposition.index_of_edges: bad channel";
      off.(u + 1) <- off.(u + 1) + 1;
      off.(v + 1) <- off.(v + 1) + 1)
    edges;
  for u = 1 to n do
    off.(u) <- off.(u) + off.(u - 1)
  done;
  let m = off.(n) in
  let next = Array.sub off 0 n in
  let place nbr grp u v g =
    let i = next.(u) in
    nbr.(i) <- v;
    grp.(i) <- g;
    next.(u) <- i + 1
  in
  let by_tail = Array.make m 0 and by_tail_grp = Array.make m 0 in
  List.iter
    (fun (u, v, g) ->
      place by_tail by_tail_grp u v g;
      place by_tail by_tail_grp v u g)
    edges;
  let nbr = Array.make m 0 and grp = Array.make m 0 in
  Array.blit off 0 next 0 n;
  for u = 0 to n - 1 do
    for i = off.(u) to off.(u + 1) - 1 do
      place nbr grp by_tail.(i) u by_tail_grp.(i)
    done
  done;
  { off; nbr; grp }

(* A channel listed twice comes out as equal adjacent neighbours, first
   met at its lower endpoint. *)
let duplicate ix =
  let n = Array.length ix.off - 1 in
  let rec scan u i =
    if u = n then None
    else if i + 1 >= ix.off.(u + 1) then scan (u + 1) ix.off.(u + 1)
    else if ix.nbr.(i) = ix.nbr.(i + 1) then Some (u, ix.nbr.(i))
    else scan u (i + 1)
  in
  scan 0 0

let lookup t u v =
  if u < 0 || u >= Array.length t.off - 1 then -1
  else begin
    let lo = ref t.off.(u) and hi = ref (t.off.(u + 1) - 1) in
    let found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) lsr 1 in
      let w = Array.unsafe_get t.nbr mid in
      if w = v then begin
        found := Array.unsafe_get t.grp mid;
        lo := !hi + 1
      end
      else if w < v then lo := mid + 1
      else hi := mid - 1
    done;
    !found
  end

let edges_of_group = function
  | Star { center; leaves } ->
      List.map (fun leaf -> Graph.normalize_edge center leaf) leaves
  | Triangle (x, y, z) -> [ (x, y); (x, z); (y, z) ]

let well_formed_group n = function
  | Star { center; leaves } ->
      if leaves = [] then Error "star with no edges"
      else if List.exists (fun l -> l = center) leaves then
        Error "star leaf equal to its center"
      else if
        List.exists (fun l -> l < 0 || l >= n) (center :: leaves)
      then Error "star vertex out of range"
      else if List.sort_uniq compare leaves <> leaves then
        Error "star leaves not sorted or not distinct"
      else Ok ()
  | Triangle (x, y, z) ->
      if not (0 <= x && x < y && y < z && z < n) then
        Error "triangle vertices not ordered or out of range"
      else Ok ()

let make g groups =
  let n = Graph.n g in
  let bad_edge (u, v) =
    Error (Printf.sprintf "edge (%d,%d) duplicated or absent from the graph" u v)
  in
  (* Every group's channels, tagged with the group, once each group is
     well-formed and lies in the graph. *)
  let rec channels i acc = function
    | [] -> Ok acc
    | grp :: rest -> (
        match well_formed_group n grp with
        | Error e -> Error e
        | Ok () -> (
            let edges = edges_of_group grp in
            match
              List.find_opt (fun (u, v) -> not (Graph.has_edge g u v)) edges
            with
            | Some e -> bad_edge e
            | None ->
                channels (i + 1)
                  (List.fold_left (fun acc (u, v) -> (u, v, i) :: acc) acc edges)
                  rest))
  in
  match channels 0 [] groups with
  | Error e -> Error e
  | Ok chans -> (
      let index = index_of_edges n chans in
      match duplicate index with
      | Some e -> bad_edge e
      | None ->
          (* Distinct channels of the graph, in both directions: they
             cover it iff there are twice as many as its edges. *)
          if Array.length index.nbr = 2 * Graph.m g then
            Ok { graph_n = n; groups; index }
          else Error "decomposition does not cover every edge")

let make_exn g groups =
  match make g groups with
  | Ok t -> t
  | Error msg -> invalid_arg ("Decomposition.make: " ^ msg)

let groups t = t.groups
let size t = List.length t.groups
let graph_vertices t = t.graph_n

let group_of_edge t u v =
  match lookup t.index u v with -1 -> raise Not_found | g -> g

let index t = t.index

let stars t =
  List.length (List.filter (function Star _ -> true | _ -> false) t.groups)

let triangles t =
  List.length
    (List.filter (function Triangle _ -> true | _ -> false) t.groups)

type step = { phase : int; group : group }

let star_of_vertex g center =
  match Graph.neighbors g center with
  | [] -> None
  | leaves -> Some (Star { center; leaves })

(* The three steps of the paper's Figure 7 algorithm, each returning the
   residual graph after removing the emitted group's edges. *)

let find_pendant g =
  List.find_opt (fun v -> Graph.degree g v = 1) (Graph.vertices g)

let step1 g emit =
  let g = ref g in
  let continue = ref true in
  while !continue do
    match find_pendant !g with
    | None -> continue := false
    | Some x ->
        let y = List.hd (Graph.neighbors !g x) in
        (match star_of_vertex !g y with
        | Some grp -> emit { phase = 1; group = grp }
        | None -> assert false);
        g := Graph.remove_vertex_edges !g y
  done;
  !g

(* A step-2 triangle (x, y, z) needs two of its vertices to have degree
   exactly 2, i.e. no edges outside the triangle. *)
let find_step2_triangle g =
  let found = ref None in
  Graph.iter_edges
    (fun u v ->
      if !found = None && Graph.degree g u = 2 && Graph.degree g v = 2 then
        match Graph.find_triangle_through g u v with
        | w :: _ ->
            let[@warning "-8"] [ x; y; z ] = List.sort compare [ u; v; w ] in
            found := Some (x, y, z)
        | [] -> ())
    g;
  !found

let step2 g emit =
  let g = ref g in
  let continue = ref true in
  while !continue do
    match find_step2_triangle !g with
    | None -> continue := false
    | Some (x, y, z) ->
        emit { phase = 2; group = Triangle (x, y, z) };
        g := Graph.remove_edge !g x y;
        g := Graph.remove_edge !g x z;
        g := Graph.remove_edge !g y z
  done;
  !g

let step3 g emit =
  if Graph.m g = 0 then g
  else begin
    let best = ref None and best_count = ref (-1) in
    Graph.iter_edges
      (fun u v ->
        let c = Graph.adjacent_edge_count g (u, v) in
        if c > !best_count then begin
          best := Some (u, v);
          best_count := c
        end)
      g;
    match !best with
    | None -> assert false
    | Some (x, y) ->
        (* Star rooted at y takes all of y's edges (including (x, y)); the
           star rooted at x takes the rest of x's edges, if any. *)
        (match star_of_vertex g y with
        | Some grp -> emit { phase = 3; group = grp }
        | None -> assert false);
        let g = Graph.remove_vertex_edges g y in
        let g =
          match star_of_vertex g x with
          | Some grp ->
              emit { phase = 3; group = grp };
              Graph.remove_vertex_edges g x
          | None -> g
        in
        g
  end

let paper_trace g =
  let steps = ref [] in
  let emit s = steps := s :: !steps in
  let g = ref g in
  while Graph.m !g > 0 do
    g := step1 !g emit;
    g := step2 !g emit;
    g := step3 !g emit
  done;
  List.rev !steps

let paper g = make_exn g (List.map (fun s -> s.group) (paper_trace g))

let of_vertex_cover g cover =
  if not (Vertex_cover.is_cover g cover) then
    Error "the given vertex set is not a vertex cover"
  else begin
    let cover = List.sort_uniq compare cover in
    let rank = Hashtbl.create 16 in
    List.iteri (fun i v -> Hashtbl.replace rank v i) cover;
    let leaves = Hashtbl.create 16 in
    Graph.iter_edges
      (fun u v ->
        (* Assign the edge to its smallest-ranked covering endpoint. *)
        let center =
          match (Hashtbl.find_opt rank u, Hashtbl.find_opt rank v) with
          | Some ru, Some rv -> if ru <= rv then u else v
          | Some _, None -> u
          | None, Some _ -> v
          | None, None -> assert false
        in
        let other = if center = u then v else u in
        Hashtbl.replace leaves center
          (other :: Option.value ~default:[] (Hashtbl.find_opt leaves center)))
      g;
    let gs =
      List.filter_map
        (fun center ->
          match Hashtbl.find_opt leaves center with
          | None -> None
          | Some ls -> Some (Star { center; leaves = List.sort compare ls }))
        cover
    in
    make g gs
  end

let sequential g =
  (* Emitting the star of each vertex in increasing order leaves, after
     vertex N-4, only edges among the last three vertices — one final star
     or triangle. Detecting the star/triangle endgame as soon as it appears
     keeps the group count at max(1, N-2) on every graph (Theorem 5's
     fallback bound). *)
  let rec go g acc =
    if Graph.m g = 0 then List.rev acc
    else
      match Graph.star_center g with
      | Some c ->
          let grp =
            match star_of_vertex g c with Some s -> s | None -> assert false
          in
          List.rev (grp :: acc)
      | None -> (
          match Graph.triangle_of g with
          | Some (x, y, z) -> List.rev (Triangle (x, y, z) :: acc)
          | None ->
              let v =
                List.find (fun v -> Graph.degree g v > 0) (Graph.vertices g)
              in
              let grp =
                match star_of_vertex g v with
                | Some s -> s
                | None -> assert false
              in
              go (Graph.remove_vertex_edges g v) (grp :: acc))
  in
  make_exn g (go g [])

let triangles_first g =
  (* Carve disjoint triangles greedily (smallest-vertex first for
     determinism), then star-cover the leftovers. *)
  let rec carve g acc =
    let found = ref None in
    Graph.iter_edges
      (fun u v ->
        if !found = None then
          match Graph.find_triangle_through g u v with
          | w :: _ ->
              let[@warning "-8"] [ x; y; z ] = List.sort compare [ u; v; w ] in
              found := Some (x, y, z)
          | [] -> ())
      g;
    match !found with
    | Some (x, y, z) ->
        let g =
          Graph.remove_edge (Graph.remove_edge (Graph.remove_edge g x y) x z)
            y z
        in
        carve g (Triangle (x, y, z) :: acc)
    | None -> (g, List.rev acc)
  in
  let rest, triangles = carve g [] in
  let stars =
    match of_vertex_cover rest (Vertex_cover.greedy rest) with
    | Ok d -> groups d
    | Error _ -> assert false
  in
  make_exn g (triangles @ stars)

let min_size_lower_bound = Vertex_cover.size_lower_bound

exception Budget_exhausted

let exact ?(limit = 2_000_000) g =
  let initial = sequential g in
  let best = ref (groups initial) and best_size = ref (size initial) in
  (match paper g with
  | p when size p < !best_size ->
      best := groups p;
      best_size := size p
  | _ -> ());
  let nodes = ref 0 in
  let rec go g taken count =
    incr nodes;
    if !nodes > limit then raise Budget_exhausted;
    if count + min_size_lower_bound g < !best_size then
      match Graph.edges g with
      | [] ->
          best := List.rev taken;
          best_size := count
      | (u, v) :: _ ->
          (* The group holding (u, v) is a triangle through it or a maximal
             star at one endpoint (exchange argument: growing a star never
             increases the group count). *)
          List.iter
            (fun w ->
              let[@warning "-8"] [ x; y; z ] = List.sort compare [ u; v; w ] in
              let g' =
                Graph.remove_edge
                  (Graph.remove_edge (Graph.remove_edge g x y) x z)
                  y z
              in
              go g' (Triangle (x, y, z) :: taken) (count + 1))
            (Graph.find_triangle_through g u v);
          List.iter
            (fun center ->
              match star_of_vertex g center with
              | Some grp ->
                  go
                    (Graph.remove_vertex_edges g center)
                    (grp :: taken) (count + 1)
              | None -> assert false)
            [ u; v ]
  in
  match go g [] 0 with
  | () -> Some (make_exn g !best)
  | exception Budget_exhausted -> None

let best g =
  let candidates =
    [ paper g; sequential g ]
    @ (match of_vertex_cover g (Vertex_cover.greedy g) with
      | Ok d -> [ d ]
      | Error _ -> [])
    @
    match of_vertex_cover g (Vertex_cover.two_approx g) with
    | Ok d -> [ d ]
    | Error _ -> []
  in
  match candidates with
  | [] -> assert false
  | first :: rest ->
      List.fold_left (fun acc d -> if size d < size acc then d else acc) first rest

let group_of_edge_set n edges =
  (* A single group covering exactly [edges], if one exists. *)
  let g = Graph.of_edges n edges in
  match Graph.triangle_of g with
  | Some (x, y, z) -> Some (Triangle (x, y, z))
  | None -> (
      match Graph.star_center g with
      | Some center when Graph.m g > 0 ->
          Some
            (Star
               {
                 center;
                 leaves =
                   List.map
                     (fun (u, v) -> if u = center then v else u)
                     (Graph.edges g)
                   |> List.sort compare;
               })
      | _ -> None)

let improve graph t =
  let n = graph_vertices t in
  let rec pass groups =
    let arr = Array.of_list groups in
    let merged = ref None in
    let k = Array.length arr in
    (try
       for i = 0 to k - 1 do
         for j = i + 1 to k - 1 do
           if !merged = None then
             match
               group_of_edge_set n
                 (edges_of_group arr.(i) @ edges_of_group arr.(j))
             with
             | Some g -> merged := Some (i, j, g)
             | None -> ()
         done
       done
     with Exit -> ());
    match !merged with
    | None -> groups
    | Some (i, j, g) ->
        let rest =
          List.filteri (fun idx _ -> idx <> i && idx <> j) groups
        in
        pass (g :: rest)
  in
  make_exn graph (pass (groups t))

let vertex_name labels v =
  match List.assoc_opt v labels with Some s -> s | None -> string_of_int v

let pp_group ?(labels = []) ppf = function
  | Star { center; leaves } ->
      Format.fprintf ppf "star@%s {%s}" (vertex_name labels center)
        (String.concat ", "
           (List.map
              (fun l ->
                Printf.sprintf "%s-%s" (vertex_name labels center)
                  (vertex_name labels l))
              leaves))
  | Triangle (x, y, z) ->
      Format.fprintf ppf "triangle (%s, %s, %s)" (vertex_name labels x)
        (vertex_name labels y) (vertex_name labels z)

let pp ?(labels = []) ppf t =
  Format.fprintf ppf "@[<v>decomposition d=%d@," (size t);
  List.iteri
    (fun i grp ->
      Format.fprintf ppf "  E%d = %a@," (i + 1) (pp_group ~labels) grp)
    t.groups;
  Format.fprintf ppf "@]"
