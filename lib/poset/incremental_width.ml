module ISet = Set.Make (Int)

type t = {
  mutable ancestors : ISet.t array;  (* per element, strict ancestors *)
  mutable pair_left : int array;  (* left copy's matched right, -1 free *)
  mutable pair_right : int array;
  mutable size : int;
  mutable matching : int;
}

let create () =
  {
    ancestors = [||];
    pair_left = [||];
    pair_right = [||];
    size = 0;
    matching = 0;
  }

let grow t =
  let cap = Array.length t.ancestors in
  if t.size = cap then begin
    let bigger = max 8 (2 * cap) in
    let copy a fill =
      let b = Array.make bigger fill in
      Array.blit a 0 b 0 t.size;
      b
    in
    t.ancestors <- copy t.ancestors ISet.empty;
    t.pair_left <- copy t.pair_left (-1);
    t.pair_right <- copy t.pair_right (-1)
  end

(* Kuhn's augmenting search from the right side ({!Matching.augment_from}):
   right node [r] looks for an adjacent left node that is free or whose
   matched right can be re-routed. Adjacency of right r = ancestors(r). *)
let augment t visited r =
  Matching.augment_from
    ~find:(fun r f ->
      ISet.exists
        (fun u ->
          (not visited.(u))
          && begin
               visited.(u) <- true;
               f r u
             end)
        t.ancestors.(r))
    ~pair_left:t.pair_left ~pair_right:t.pair_right r

let add t ~preds =
  List.iter
    (fun p ->
      if p < 0 || p >= t.size then
        invalid_arg "Incremental_width.add: predecessor out of range")
    preds;
  grow t;
  let id = t.size in
  let ancestors =
    List.fold_left
      (fun acc p -> ISet.add p (ISet.union acc t.ancestors.(p)))
      ISet.empty preds
  in
  t.ancestors.(id) <- ancestors;
  t.pair_left.(id) <- -1;
  t.pair_right.(id) <- -1;
  t.size <- id + 1;
  let visited = Array.make t.size false in
  if augment t visited id then t.matching <- t.matching + 1;
  id

let size t = t.size
let width t = t.size - t.matching
let lt t i j =
  if i < 0 || i >= t.size || j < 0 || j >= t.size then
    invalid_arg "Incremental_width.lt: out of range";
  ISet.mem i t.ancestors.(j)
