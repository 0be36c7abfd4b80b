module ISet = Set.Make (Int)

(* Each vertex carries its degree beside its neighbour set:
   [ISet.cardinal] is O(degree), and the decomposition heuristics ask for
   degrees on every edge of every pass. Keeping both in one record keeps
   an update at one array copy. *)
type vertex = { nbrs : ISet.t; deg : int }
type t = { adj : vertex array; m : int }
type edge = int * int

let isolated = { nbrs = ISet.empty; deg = 0 }

(* [link]/[unlink] assume [u] is absent from / present in [x]. *)
let link x u = { nbrs = ISet.add u x.nbrs; deg = x.deg + 1 }
let unlink x u = { nbrs = ISet.remove u x.nbrs; deg = x.deg - 1 }

let normalize_edge u v =
  if u = v then invalid_arg "Graph: self-loop"
  else if u < v then (u, v)
  else (v, u)

let empty n =
  if n < 0 then invalid_arg "Graph.empty: negative vertex count";
  { adj = Array.make n isolated; m = 0 }

let n g = Array.length g.adj
let m g = g.m

let check_vertex g v =
  if v < 0 || v >= n g then invalid_arg "Graph: vertex out of range"

let has_edge g u v =
  check_vertex g u;
  check_vertex g v;
  u <> v && ISet.mem v g.adj.(u).nbrs

(* Validate, normalise and link both ends of [u]-[v] in [g]'s array,
   in place; false when the edge was already present. *)
let insert g u v =
  check_vertex g u;
  check_vertex g v;
  let u, v = normalize_edge u v in
  if ISet.mem v g.adj.(u).nbrs then false
  else begin
    g.adj.(u) <- link g.adj.(u) v;
    g.adj.(v) <- link g.adj.(v) u;
    true
  end

let add_edge g u v =
  if has_edge g u v then g
  else begin
    let g' = { adj = Array.copy g.adj; m = g.m + 1 } in
    ignore (insert g' u v : bool);
    g'
  end

let remove_edge g u v =
  check_vertex g u;
  check_vertex g v;
  if u = v || not (ISet.mem v g.adj.(u).nbrs) then g
  else begin
    let adj = Array.copy g.adj in
    adj.(u) <- unlink adj.(u) v;
    adj.(v) <- unlink adj.(v) u;
    { adj; m = g.m - 1 }
  end

let remove_vertex_edges g v =
  check_vertex g v;
  let removed = g.adj.(v).deg in
  if removed = 0 then g
  else begin
    let adj = Array.copy g.adj in
    ISet.iter (fun u -> adj.(u) <- unlink adj.(u) v) adj.(v).nbrs;
    adj.(v) <- isolated;
    { adj; m = g.m - removed }
  end

(* Built in place on a fresh array: folding [add_edge] would copy it
   once per edge. *)
let of_edges count edge_list =
  let g = empty count in
  let m =
    List.fold_left
      (fun m (u, v) -> if insert g u v then m + 1 else m)
      0 edge_list
  in
  { g with m }

let degree g v =
  check_vertex g v;
  g.adj.(v).deg

let neighbors g v =
  check_vertex g v;
  ISet.elements g.adj.(v).nbrs

let iter_edges f g =
  Array.iteri
    (fun u x -> ISet.iter (fun v -> if u < v then f u v) x.nbrs)
    g.adj

let edges g =
  let acc = ref [] in
  iter_edges (fun u v -> acc := (u, v) :: !acc) g;
  List.rev !acc

let vertices g = List.init (n g) Fun.id

let adjacent_edge_count g (u, v) =
  if not (has_edge g u v) then invalid_arg "Graph.adjacent_edge_count: no such edge";
  degree g u + degree g v - 2

let max_degree g = Array.fold_left (fun acc x -> max acc x.deg) 0 g.adj

let connected_components g =
  let seen = Array.make (n g) false in
  let comps = ref [] in
  for v = 0 to n g - 1 do
    if not seen.(v) then begin
      let comp = ref [] in
      let stack = Stack.create () in
      Stack.push v stack;
      seen.(v) <- true;
      while not (Stack.is_empty stack) do
        let u = Stack.pop stack in
        comp := u :: !comp;
        ISet.iter
          (fun w ->
            if not seen.(w) then begin
              seen.(w) <- true;
              Stack.push w stack
            end)
          g.adj.(u).nbrs
      done;
      comps := List.sort compare !comp :: !comps
    end
  done;
  List.rev !comps

let is_connected g =
  let non_isolated =
    List.filter (fun c -> match c with [ v ] -> degree g v > 0 | _ -> true)
      (connected_components g)
  in
  List.length non_isolated <= 1

let is_forest g =
  (* A graph is a forest iff every component has |edges| = |vertices| - 1;
     globally: m = n - #components. *)
  m g = n g - List.length (connected_components g)

let star_center g =
  if n g = 0 then None
  else
    match edges g with
    | [] -> Some 0
    | (u, v) :: _ ->
        (* Every edge must touch the center, so the center is an endpoint of
           the first edge. *)
        let incident_to x =
          List.for_all (fun (a, b) -> a = x || b = x) (edges g)
        in
        if incident_to u then Some u else if incident_to v then Some v else None

let is_star g = Option.is_some (star_center g)

let triangle_of g =
  if m g <> 3 then None
  else
    match edges g with
    | [ (a, b); (c, d); (e, f) ] ->
        let vs = List.sort_uniq compare [ a; b; c; d; e; f ] in
        (match vs with
        | [ x; y; z ]
          when has_edge g x y && has_edge g y z && has_edge g x z ->
            Some (x, y, z)
        | _ -> None)
    | _ -> None

let is_triangle g = Option.is_some (triangle_of g)

let find_triangle_through g u v =
  check_vertex g u;
  check_vertex g v;
  ISet.elements (ISet.inter g.adj.(u).nbrs g.adj.(v).nbrs)

let equal a b = n a = n b && edges a = edges b

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d@," (n g) (m g);
  iter_edges (fun u v -> Format.fprintf ppf "  %d -- %d@," u v) g;
  Format.fprintf ppf "@]"
