type t = { mutable slab : int array; dim : int; mutable rows : int }

let create ?(capacity = 64) dim =
  if dim < 0 then invalid_arg "Stamp_store.create: negative dim";
  let capacity = max capacity 1 in
  { slab = Array.make (capacity * dim) 0; dim; rows = 0 }

let dim t = t.dim
let rows t = t.rows
let clear t = t.rows <- 0

let truncate t k =
  if k < 0 || k > t.rows then invalid_arg "Stamp_store.truncate: bad row count";
  t.rows <- k

let check_row t r name =
  if r < 0 || r >= t.rows then invalid_arg ("Stamp_store." ^ name ^ ": bad row")

(* Ensure capacity for one more row and return its base offset; the new
   row's cells are NOT cleared. *)
let reserve t =
  let base = t.rows * t.dim in
  if base + t.dim > Array.length t.slab then begin
    let bigger = Array.make (2 * Array.length t.slab) 0 in
    Array.blit t.slab 0 bigger 0 base;
    t.slab <- bigger
  end;
  t.rows <- t.rows + 1;
  base

let push_zero t =
  let base = reserve t in
  Array.fill t.slab base t.dim 0;
  t.rows - 1

let push t v =
  if Array.length v <> t.dim then invalid_arg "Stamp_store.push: size mismatch";
  let base = reserve t in
  Array.blit v 0 t.slab base t.dim;
  t.rows - 1

let push_merge t ~a ~b =
  check_row t a "push_merge";
  check_row t b "push_merge";
  let base = reserve t in
  let slab = t.slab in
  let pa = a * t.dim and pb = b * t.dim in
  for k = 0 to t.dim - 1 do
    let x = Array.unsafe_get slab (pa + k)
    and y = Array.unsafe_get slab (pb + k) in
    Array.unsafe_set slab (base + k) (if x > y then x else y)
  done;
  t.rows - 1

let row_incr t r k =
  check_row t r "row_incr";
  if k < 0 || k >= t.dim then invalid_arg "Stamp_store.row_incr: bad component";
  let i = (r * t.dim) + k in
  t.slab.(i) <- t.slab.(i) + 1

let row_set t r k v =
  check_row t r "row_set";
  if k < 0 || k >= t.dim then invalid_arg "Stamp_store.row_set: bad component";
  t.slab.((r * t.dim) + k) <- v

let blit_rows t ~src ~dst =
  check_row t src "blit_rows";
  check_row t dst "blit_rows";
  Array.blit t.slab (src * t.dim) t.slab (dst * t.dim) t.dim

let get t r =
  check_row t r "get";
  Array.sub t.slab (r * t.dim) t.dim

let data t = t.slab

let diff_count t a b =
  check_row t a "diff_count";
  check_row t b "diff_count";
  let slab = t.slab in
  let pa = a * t.dim and pb = b * t.dim in
  let c = ref 0 in
  for k = 0 to t.dim - 1 do
    if Array.unsafe_get slab (pa + k) <> Array.unsafe_get slab (pb + k) then
      Stdlib.incr c
  done;
  !c
