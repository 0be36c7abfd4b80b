type delta =
  | Join of { proc : int; edges : (int * int) list }
  | Leave of int
  | Add_edge of int * int
  | Remove_edge of int * int

type remap = {
  from_epoch : int;
  from_dim : int;
  to_dim : int;
  map : int array;
}

type epoch_info = {
  epoch : int;
  delta : string;
  live : int;
  width : int;
  active_procs : int;
  bound : int;
  repaired : bool;
  recomputed : bool;
  compacted : bool;
}

(* A clock component over its lifetime. [edges] is the current channel
   set (empty once frozen); [union] is every edge ever assigned — the
   soundness invariant lives on the union: it must stay
   pairwise-intersecting, so all messages counted by this component
   share a process pairwise and are totally ordered by the synchronous
   semantics. *)
type comp = { mutable edges : Graph.edge list; mutable union : Graph.edge list }

type t = {
  mutable graph : Graph.t;
  mutable active : bool array;  (* length = Graph.n graph *)
  comps : (int, comp) Hashtbl.t;  (* live components, by stable id *)
  frozen : (int, int) Hashtbl.t;  (* id -> epoch it was frozen at *)
  edge_index : (Graph.edge, int) Hashtbl.t;  (* current edge -> live id *)
  slots : (int, int) Hashtbl.t;  (* id -> current slot (dropped ids absent) *)
  mutable next_id : int;
  mutable width : int;
  mutable epoch : int;
  mutable remap_chain : remap list;  (* newest first *)
  mutable log : epoch_info list;  (* newest first *)
  mutable repairs : int;
  mutable recomputes : int;
}

let epoch t = t.epoch
let width t = t.width
let processes t = Graph.n t.graph
let graph t = t.graph
let is_active t p = p >= 0 && p < Array.length t.active && t.active.(p)

let active t =
  List.filter (is_active t) (List.init (Array.length t.active) Fun.id)

let active_count t =
  Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 t.active

let live_components t = Hashtbl.length t.comps

let frozen_components t =
  Hashtbl.fold
    (fun id _ acc -> if Hashtbl.mem t.slots id then acc + 1 else acc)
    t.frozen 0

let slot_of_edge t u v =
  match Hashtbl.find_opt t.edge_index (Graph.normalize_edge u v) with
  | Some id -> Hashtbl.find t.slots id
  | None -> raise Not_found

let index t =
  Decomposition.index_of_edges (processes t)
    (Hashtbl.fold
       (fun (u, v) id acc -> (u, v, Hashtbl.find t.slots id) :: acc)
       t.edge_index [])

let component_edges t =
  Hashtbl.fold
    (fun id c acc -> (Hashtbl.find t.slots id, List.sort compare c.edges) :: acc)
    t.comps []
  |> List.sort compare

let repairs t = t.repairs
let recomputes t = t.recomputes
let history t = List.rev t.log
let remaps t = List.rev t.remap_chain

(* -- delta rendering ------------------------------------------------- *)

let edge_to_string (u, v) = Printf.sprintf "%d-%d" u v

let delta_to_string = function
  | Join { proc; edges = [] } -> Printf.sprintf "join:%d" proc
  | Join { proc; edges } ->
      Printf.sprintf "join:%d:%s" proc
        (String.concat "," (List.map edge_to_string edges))
  | Leave p -> Printf.sprintf "leave:%d" p
  | Add_edge (u, v) -> Printf.sprintf "add:%d-%d" u v
  | Remove_edge (u, v) -> Printf.sprintf "drop:%d-%d" u v

let parse_edge s =
  match String.index_opt s '-' with
  | Some i -> (
      let a = String.sub s 0 i
      and b = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt (String.trim a), int_of_string_opt (String.trim b)) with
      | Some u, Some v when u >= 0 && v >= 0 && u <> v -> Ok (u, v)
      | _ -> Error (Printf.sprintf "bad edge %S" s))
  | None -> Error (Printf.sprintf "bad edge %S (expected U-V)" s)

let delta_of_string s =
  let s = String.trim s in
  let parts = String.split_on_char ':' s in
  let int_part what p =
    match int_of_string_opt (String.trim p) with
    | Some x when x >= 0 -> Ok x
    | _ -> Error (Printf.sprintf "bad %s in delta %S" what s)
  in
  match parts with
  | [ "join"; p ] ->
      Result.map (fun proc -> Join { proc; edges = [] }) (int_part "process" p)
  | [ "join"; p; es ] -> (
      match int_part "process" p with
      | Error _ as e -> e
      | Ok proc ->
          let rec go acc = function
            | [] -> Ok (Join { proc; edges = List.rev acc })
            | e :: rest -> (
                match parse_edge e with
                | Ok edge -> go (edge :: acc) rest
                | Error m -> Error m)
          in
          go [] (String.split_on_char ',' es))
  | [ "leave"; p ] -> Result.map (fun p -> Leave p) (int_part "process" p)
  | [ "add"; e ] -> Result.map (fun (u, v) -> Add_edge (u, v)) (parse_edge e)
  | [ "drop"; e ] ->
      Result.map (fun (u, v) -> Remove_edge (u, v)) (parse_edge e)
  | _ ->
      Error
        (Printf.sprintf
           "bad delta %S (expected join:P[:U-V,..], leave:P, add:U-V or \
            drop:U-V)" s)

(* -- bound ----------------------------------------------------------- *)

(* min(beta(G), N_active - 2), computed with the exact vertex-cover
   solver when it fits its budget and the better polynomial heuristic
   otherwise; clamped to >= 1 so degenerate topologies are never flagged. *)
let vc_bound g =
  match Vertex_cover.exact ~limit:50_000 g with
  | Some c -> List.length c
  | None ->
      min
        (List.length (Vertex_cover.greedy g))
        (List.length (Vertex_cover.two_approx g))

let bound_of t = max 1 (min (vc_bound t.graph) (max 1 (active_count t - 2)))

(* -- construction ---------------------------------------------------- *)

let create g d =
  if Decomposition.graph_vertices d <> Graph.n g then
    invalid_arg "Membership.create: decomposition built for another graph";
  let t =
    {
      graph = g;
      active = Array.make (Graph.n g) true;
      comps = Hashtbl.create 16;
      frozen = Hashtbl.create 16;
      edge_index = Hashtbl.create (2 * Graph.m g);
      slots = Hashtbl.create 16;
      next_id = 0;
      width = 0;
      epoch = 0;
      remap_chain = [];
      log = [];
      repairs = 0;
      recomputes = 0;
    }
  in
  List.iter
    (fun grp ->
      let id = t.next_id in
      t.next_id <- id + 1;
      Hashtbl.replace t.slots id t.width;
      t.width <- t.width + 1;
      let edges = Decomposition.edges_of_group grp in
      Hashtbl.replace t.comps id { edges; union = List.sort_uniq compare edges };
      List.iter (fun e -> Hashtbl.replace t.edge_index e id) edges)
    (Decomposition.groups d);
  if Hashtbl.length t.edge_index <> Graph.m g then
    invalid_arg "Membership.create: decomposition does not cover the graph";
  t.log <-
    [
      {
        epoch = 0;
        delta = "init";
        live = live_components t;
        width = t.width;
        active_procs = active_count t;
        bound = bound_of t;
        repaired = false;
        recomputed = false;
        compacted = false;
      };
    ];
  t

(* The candidate set both [of_graph] and the recompute fallback draw
   from. Includes a decomposition built from the exact vertex cover
   whenever the exact solver fits its budget, so the achieved size never
   exceeds the [bound_of] clamp (which uses the same cover). *)
let best_decomposition g =
  let candidates =
    Decomposition.best g
    ::
    (match Vertex_cover.exact ~limit:50_000 g with
    | Some cover -> (
        match Decomposition.of_vertex_cover g cover with
        | Ok d -> [ d ]
        | Error _ -> [])
    | None -> [])
  in
  let d =
    List.fold_left
      (fun acc d -> if Decomposition.size d < Decomposition.size acc then d else acc)
      (List.hd candidates) (List.tl candidates)
  in
  Decomposition.improve g d

let of_graph g = create g (best_decomposition g)

(* -- local repair ---------------------------------------------------- *)

(* Can [extra] join a component with historical union [union] without
   breaking the pairwise-intersection invariant?  An edge set is
   pairwise-intersecting iff it is a single star or triangle. *)
let union_accepts t union extra =
  Decomposition.group_of_edge_set (processes t)
    (List.sort_uniq compare (extra @ union))
  <> None

let live_ids t =
  List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.comps [])

(* Absorb one new edge: the first (lowest-id) live component whose union
   stays a star/triangle takes it; otherwise a fresh singleton star. *)
let absorb t e =
  t.graph <- Graph.add_edge t.graph (fst e) (snd e);
  let target =
    List.find_opt
      (fun id -> union_accepts t (Hashtbl.find t.comps id).union [ e ])
      (live_ids t)
  in
  match target with
  | Some id ->
      let c = Hashtbl.find t.comps id in
      c.edges <- e :: c.edges;
      c.union <- List.sort_uniq compare (e :: c.union);
      Hashtbl.replace t.edge_index e id
  | None ->
      let id = t.next_id in
      t.next_id <- id + 1;
      Hashtbl.replace t.slots id t.width;
      t.width <- t.width + 1;
      Hashtbl.replace t.comps id { edges = [ e ]; union = [ e ] };
      Hashtbl.replace t.edge_index e id

let shed t e =
  t.graph <- Graph.remove_edge t.graph (fst e) (snd e);
  let id = Hashtbl.find t.edge_index e in
  Hashtbl.remove t.edge_index e;
  let c = Hashtbl.find t.comps id in
  c.edges <- List.filter (fun e' -> e' <> e) c.edges;
  if c.edges = [] then begin
    (* The component's channels are gone: freeze it. Its slot keeps
       carrying the old counts (merged, never incremented), so stamps
       from earlier epochs stay exactly comparable. *)
    Hashtbl.remove t.comps id;
    Hashtbl.replace t.frozen id (t.epoch + 1)
  end

(* -- full recompute fallback ----------------------------------------- *)

let recompose t =
  let d = best_decomposition t.graph in
  (* Match recomputed groups back onto live ids: an identical current
     edge set first, then any id whose union absorbs the whole group;
     everything unmatched freezes / is freshly allocated. *)
  let unmatched = Hashtbl.create 16 in
  Hashtbl.iter (fun id c -> Hashtbl.replace unmatched id c) t.comps;
  Hashtbl.reset t.comps;
  Hashtbl.reset t.edge_index;
  List.iter
    (fun grp ->
      let es = List.sort compare (Decomposition.edges_of_group grp) in
      let exact_match =
        Hashtbl.fold
          (fun id c acc ->
            match acc with
            | Some _ -> acc
            | None -> if List.sort compare c.edges = es then Some id else None)
          unmatched None
      in
      let compatible =
        match exact_match with
        | Some _ -> exact_match
        | None ->
            Hashtbl.fold
              (fun id c acc ->
                match acc with
                | Some best ->
                    if id < best && union_accepts t c.union es then Some id
                    else acc
                | None -> if union_accepts t c.union es then Some id else None)
              unmatched None
      in
      let id =
        match compatible with
        | Some id ->
            let c = Hashtbl.find unmatched id in
            Hashtbl.remove unmatched id;
            Hashtbl.replace t.comps id
              { edges = es; union = List.sort_uniq compare (es @ c.union) };
            id
        | None ->
            let id = t.next_id in
            t.next_id <- id + 1;
            Hashtbl.replace t.slots id t.width;
            t.width <- t.width + 1;
            Hashtbl.replace t.comps id { edges = es; union = es };
            id
      in
      List.iter (fun e -> Hashtbl.replace t.edge_index e id) es)
    (Decomposition.groups d);
  Hashtbl.iter (fun id _ -> Hashtbl.replace t.frozen id (t.epoch + 1)) unmatched

(* -- epoch commit ---------------------------------------------------- *)

let commit t ~delta ~old_width ~recomputed =
  let map = Array.init old_width Fun.id in
  let remap =
    { from_epoch = t.epoch; from_dim = old_width; to_dim = t.width; map }
  in
  t.remap_chain <- remap :: t.remap_chain;
  t.epoch <- t.epoch + 1;
  if recomputed then t.recomputes <- t.recomputes + 1
  else t.repairs <- t.repairs + 1;
  t.log <-
    {
      epoch = t.epoch;
      delta;
      live = live_components t;
      width = t.width;
      active_procs = active_count t;
      bound = bound_of t;
      repaired = not recomputed;
      recomputed;
      compacted = false;
    }
    :: t.log;
  remap

(* -- validation ------------------------------------------------------ *)

let validate t d =
  let n = processes t in
  let edge_ok (u, v) = u >= 0 && v >= 0 && u <> v in
  match d with
  | Join { proc; edges } ->
      if proc < 0 then Error "join: negative process id"
      else if proc > n then
        (* Fresh ids are handed out in order, so a join grows the vertex
           universe by at most one — a wire-supplied id cannot make
           [grow_universe] allocate for a huge one. *)
        Error
          (Printf.sprintf "join: process %d skips ids (the next fresh id is %d)"
             proc n)
      else if is_active t proc then
        Error (Printf.sprintf "join: process %d is already active" proc)
      else
        let rec check seen = function
          | [] -> Ok ()
          | e :: rest ->
              if not (edge_ok e) then
                Error (Printf.sprintf "join: bad edge %s" (edge_to_string e))
              else
                let ne = Graph.normalize_edge (fst e) (snd e) in
                let u, v = ne in
                let other = if u = proc then v else u in
                if u <> proc && v <> proc then
                  Error
                    (Printf.sprintf "join: edge %s is not incident to %d"
                       (edge_to_string e) proc)
                else if other <> proc && not (is_active t other) then
                  Error
                    (Printf.sprintf "join: peer %d of edge %s is not active"
                       other (edge_to_string e))
                else if List.mem ne seen then
                  Error
                    (Printf.sprintf "join: duplicate edge %s" (edge_to_string e))
                else check (ne :: seen) rest
        in
        check [] edges
  | Leave p ->
      if not (is_active t p) then
        Error (Printf.sprintf "leave: process %d is not active" p)
      else Ok ()
  | Add_edge (u, v) ->
      if not (edge_ok (u, v)) then Error "add: bad edge"
      else if not (is_active t u && is_active t v) then
        Error
          (Printf.sprintf "add: both endpoints of %d-%d must be active" u v)
      else if Graph.has_edge t.graph u v then
        Error (Printf.sprintf "add: edge %d-%d already present" u v)
      else Ok ()
  | Remove_edge (u, v) ->
      if u < 0 || v < 0 || u >= n || v >= n || u = v
         || not (Graph.has_edge t.graph u v)
      then Error (Printf.sprintf "drop: edge %d-%d is not present" u v)
      else Ok ()

let grow_universe t n' =
  if n' > processes t then begin
    t.graph <- Graph.of_edges n' (Graph.edges t.graph);
    let active = Array.make n' false in
    Array.blit t.active 0 active 0 (Array.length t.active);
    t.active <- active
  end

let apply t d =
  match validate t d with
  | Error _ as e -> e
  | Ok () ->
      let old_width = t.width in
      (match d with
      | Join { proc; edges } ->
          grow_universe t (proc + 1);
          t.active.(proc) <- true;
          List.iter
            (fun (u, v) -> absorb t (Graph.normalize_edge u v))
            edges
      | Leave p ->
          List.iter
            (fun peer -> shed t (Graph.normalize_edge p peer))
            (Graph.neighbors t.graph p);
          t.active.(p) <- false
      | Add_edge (u, v) -> absorb t (Graph.normalize_edge u v)
      | Remove_edge (u, v) -> shed t (Graph.normalize_edge u v));
      let recomputed =
        if live_components t > bound_of t then begin
          recompose t;
          true
        end
        else false
      in
      Ok (commit t ~delta:(delta_to_string d) ~old_width ~recomputed)

(* -- compaction ------------------------------------------------------ *)

let compact t ~retire_before =
  let old_width = t.width in
  let dropped = Hashtbl.create 8 in
  Hashtbl.iter
    (fun id at ->
      if at < retire_before && Hashtbl.mem t.slots id then
        Hashtbl.replace dropped id ())
    t.frozen;
  (* Renumber survivors densely, preserving slot order. *)
  let by_slot =
    Hashtbl.fold (fun id slot acc -> (slot, id) :: acc) t.slots []
    |> List.sort compare
  in
  let map = Array.make old_width (-1) in
  let next = ref 0 in
  List.iter
    (fun (slot, id) ->
      if Hashtbl.mem dropped id then Hashtbl.remove t.slots id
      else begin
        map.(slot) <- !next;
        Hashtbl.replace t.slots id !next;
        incr next
      end)
    by_slot;
  t.width <- !next;
  let remap =
    { from_epoch = t.epoch; from_dim = old_width; to_dim = t.width; map }
  in
  t.remap_chain <- remap :: t.remap_chain;
  t.epoch <- t.epoch + 1;
  t.log <-
    {
      epoch = t.epoch;
      delta = Printf.sprintf "compact:%d" retire_before;
      live = live_components t;
      width = t.width;
      active_procs = active_count t;
      bound = bound_of t;
      repaired = false;
      recomputed = false;
      compacted = true;
    }
    :: t.log;
  remap

(* -- translation ----------------------------------------------------- *)

let remap_to_current t ~from_epoch =
  if from_epoch < 0 || from_epoch > t.epoch then
    invalid_arg
      (Printf.sprintf "Membership.remap_to_current: epoch %d outside 0..%d"
         from_epoch t.epoch);
  let chain = List.rev t.remap_chain in
  let steps = List.filteri (fun i _ -> i >= from_epoch) chain in
  match steps with
  | [] ->
      {
        from_epoch;
        from_dim = t.width;
        to_dim = t.width;
        map = Array.init t.width Fun.id;
      }
  | first :: rest ->
      let map =
        List.fold_left
          (fun acc r ->
            Array.map (fun s -> if s < 0 then -1 else r.map.(s)) acc)
          (Array.copy first.map) rest
      in
      { from_epoch; from_dim = first.from_dim; to_dim = t.width; map }

let translate t ~from_epoch v =
  let r = remap_to_current t ~from_epoch in
  if Array.length v <> r.from_dim then
    invalid_arg
      (Printf.sprintf
         "Membership.translate: stamp has %d slots, epoch %d has %d"
         (Array.length v) from_epoch r.from_dim);
  let out = Array.make r.to_dim 0 in
  Array.iteri (fun s x -> if r.map.(s) >= 0 then out.(r.map.(s)) <- x) v;
  out

let pp ppf t =
  Format.fprintf ppf
    "@[<v>membership epoch %d: %d active / %d procs, %d live + %d frozen \
     components, width %d@]"
    t.epoch (active_count t) (processes t) (live_components t)
    (frozen_components t) t.width
