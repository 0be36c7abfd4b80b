type result = { pair_left : int array; pair_right : int array; size : int }

let infinity_dist = max_int

(* Hopcroft–Karp over an abstract adjacency: [iter u f] visits left
   vertex [u]'s right neighbours in increasing order, [find u f] does the
   same but stops at the first neighbour on which [f] returns true. Both
   the bit-row path (Dilworth over a Poset's comparability matrix, no
   materialised edge list) and the edge-list path below funnel through
   this one solver, and since both present neighbours in ascending order
   they produce identical matchings. *)
let maximum_rows ~left ~right ~iter ~find =
  let pair_left = Array.make left (-1) in
  let pair_right = Array.make right (-1) in
  let dist = Array.make left infinity_dist in
  let queue = Queue.create () in
  (* BFS layering from free left vertices; returns true if an augmenting
     path exists. *)
  let bfs () =
    Queue.clear queue;
    let found = ref false in
    for u = 0 to left - 1 do
      if pair_left.(u) = -1 then begin
        dist.(u) <- 0;
        Queue.add u queue
      end
      else dist.(u) <- infinity_dist
    done;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      iter u (fun v ->
          match pair_right.(v) with
          | -1 -> found := true
          | u' ->
              if dist.(u') = infinity_dist then begin
                dist.(u') <- dist.(u) + 1;
                Queue.add u' queue
              end)
    done;
    !found
  in
  let rec dfs u =
    find u (fun v ->
        let take () =
          pair_left.(u) <- v;
          pair_right.(v) <- u;
          true
        in
        match pair_right.(v) with
        | -1 -> take ()
        | u' ->
            if dist.(u') = dist.(u) + 1 && dfs u' then take () else false)
    ||
    begin
      dist.(u) <- infinity_dist;
      false
    end
  in
  let size = ref 0 in
  while bfs () do
    for u = 0 to left - 1 do
      if pair_left.(u) = -1 && dfs u then incr size
    done
  done;
  { pair_left; pair_right; size = !size }

(* One Kuhn augmenting search from right vertex [r], for the incremental
   maintainers (Incremental_width; Streaming_chains runs it in loop
   form): adding a single right vertex grows the maximum matching by at
   most one, so one search restores maximality. [find r f] presents
   [r]'s not-yet-visited left neighbours [u] in increasing order,
   marking each visited before calling [f r u], and stops at the first
   acceptance; visited bookkeeping stays with the caller so the kernel
   works over int sets, bitsets, or epoch arrays alike. [f] takes the row's right vertex as an
   argument, so the search builds one closure per call and none per
   row. A left vertex whose [pair_left] is negative-but-not-free (the
   streaming structure marks partners of retired elements with [-2]) is
   treated as unavailable: its matched edge can no longer be
   re-routed. *)
let augment_from ~find ~pair_left ~pair_right r =
  let rec take r u =
    let p = pair_left.(u) in
    (p = -1 || (p >= 0 && find p take))
    && begin
         pair_left.(u) <- r;
         pair_right.(r) <- u;
         true
       end
  in
  find r take

let min_vertex_cover_rows ~left ~right ~iter { pair_left; pair_right; size = _ }
    =
  (* König: alternate BFS from unmatched left vertices; cover = unvisited
     left + visited right. *)
  let visited_left = Array.make left false in
  let visited_right = Array.make right false in
  let queue = Queue.create () in
  for u = 0 to left - 1 do
    if pair_left.(u) = -1 then begin
      visited_left.(u) <- true;
      Queue.add u queue
    end
  done;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    iter u (fun v ->
        if not visited_right.(v) then begin
          visited_right.(v) <- true;
          match pair_right.(v) with
          | -1 -> ()
          | u' ->
              if not visited_left.(u') then begin
                visited_left.(u') <- true;
                Queue.add u' queue
              end
        end)
  done;
  (Array.map not visited_left, visited_right)

(* ---------- edge-list front end (CSR, integer sort) ---------- *)

type csr = { starts : int array; ends : int array; cells : int array }

(* Counting-sort the edges by left endpoint, then [Int.compare]-sort and
   dedup each segment in place — neighbours come out ascending and unique
   without a single polymorphic comparison (the seed used
   [List.sort_uniq compare] per vertex). *)
let build_csr ~left ~right edges =
  let deg = Array.make left 0 in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= left || v < 0 || v >= right then
        invalid_arg "Matching: edge endpoint out of range";
      deg.(u) <- deg.(u) + 1)
    edges;
  let starts = Array.make (left + 1) 0 in
  for u = 0 to left - 1 do
    starts.(u + 1) <- starts.(u) + deg.(u)
  done;
  let cursor = Array.sub starts 0 left in
  let cells = Array.make (max 1 starts.(left)) 0 in
  List.iter
    (fun (u, v) ->
      cells.(cursor.(u)) <- v;
      cursor.(u) <- cursor.(u) + 1)
    edges;
  let ends = Array.make left 0 in
  for u = 0 to left - 1 do
    let lo = starts.(u) in
    let seg = Array.sub cells lo (cursor.(u) - lo) in
    Array.sort Int.compare seg;
    let w = ref lo in
    Array.iteri
      (fun k v ->
        if k = 0 || v <> seg.(k - 1) then begin
          cells.(!w) <- v;
          incr w
        end)
      seg;
    ends.(u) <- !w
  done;
  { starts; ends; cells }

let csr_iter csr u f =
  for k = csr.starts.(u) to csr.ends.(u) - 1 do
    f csr.cells.(k)
  done

let csr_find csr u f =
  let k = ref csr.starts.(u) and stop = csr.ends.(u) in
  let found = ref false in
  while (not !found) && !k < stop do
    if f csr.cells.(!k) then found := true else incr k
  done;
  !found

(* CSR straight from an abstract row iterator (two passes: degrees, then
   fill). Rows visit neighbours in increasing order already, so no sort
   and no dedup — and, unlike {!build_csr}, no O(E) intermediate pair
   list. This is the front end {!Dilworth.comparability_csr} uses to keep
   the edge-list solver available as an oracle without materialising the
   O(n²) comparability pairs. *)
let csr_of_rows ~left ~right ~iter =
  let starts = Array.make (left + 1) 0 in
  for u = 0 to left - 1 do
    let deg = ref 0 in
    iter u (fun v ->
        if v < 0 || v >= right then
          invalid_arg "Matching: edge endpoint out of range";
        incr deg);
    starts.(u + 1) <- starts.(u) + !deg
  done;
  let cells = Array.make (max 1 starts.(left)) 0 in
  let ends = Array.make left 0 in
  for u = 0 to left - 1 do
    let k = ref starts.(u) in
    iter u (fun v ->
        cells.(!k) <- v;
        incr k);
    ends.(u) <- !k
  done;
  { starts; ends; cells }

let edge_count csr =
  let total = ref 0 in
  Array.iteri (fun u e -> total := !total + e - csr.starts.(u)) csr.ends;
  !total

let maximum_csr ~left ~right csr =
  maximum_rows ~left ~right ~iter:(csr_iter csr) ~find:(csr_find csr)

let maximum ~left ~right edges =
  let csr = build_csr ~left ~right edges in
  maximum_rows ~left ~right ~iter:(csr_iter csr) ~find:(csr_find csr)

let min_vertex_cover ~left ~right edges result =
  let csr = build_csr ~left ~right edges in
  min_vertex_cover_rows ~left ~right ~iter:(csr_iter csr) result
