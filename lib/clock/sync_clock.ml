module Trace = Synts_sync.Trace

type t = {
  store : Stamp_store.t;
  n : int;
  cur : int array;
  mutable top : int;
      (* No component in the slab exceeds it: seeding sets it and every
         bump keeps it. *)
}

(* Reset [store] to [n] zero home rows with every process at home. *)
let attach store n =
  Stamp_store.clear store;
  for _ = 1 to n do
    ignore (Stamp_store.push_zero store)
  done;
  { store; n; cur = Array.init n Fun.id; top = 0 }

let seed t init =
  let dim = Stamp_store.dim t.store in
  if Array.length init <> t.n then
    invalid_arg "Sync_clock.create: init needs one row per process";
  Array.iteri
    (fun p r ->
      if Array.length r <> dim then
        invalid_arg "Sync_clock.create: init row width mismatch";
      Array.iteri
        (fun k x ->
          if x <> 0 then Stamp_store.row_set t.store p k x;
          if x > t.top then t.top <- x)
        r)
    init

let create ?(capacity = 64) ?init ~n dim =
  if n < 0 then invalid_arg "Sync_clock.create: negative process count";
  let t = attach (Stamp_store.create ~capacity:(max capacity n) dim) n in
  Option.iter (seed t) init;
  t

let store t = t.store
let top t = t.top

let bump t row k =
  Stamp_store.row_incr t.store row k;
  let x = (Stamp_store.data t.store).((row * Stamp_store.dim t.store) + k) in
  if x > t.top then t.top <- x

let stamp t ~src ~dst ~a ~b =
  let cur = t.cur in
  let row = Stamp_store.push_merge t.store ~a:cur.(src) ~b:cur.(dst) in
  bump t row a;
  if b <> a then bump t row b;
  cur.(src) <- row;
  cur.(dst) <- row;
  row

(* LEB128 of a non-negative [v] at [pos], returning the next position:
   {!Wire}'s varint writer, repeated here for the loops below. Dune's
   default profile compiles with [-opaque], under which nothing inlines
   across modules, and a call anywhere in a loop body makes the compiler
   keep the loop's state on the stack. *)
let[@inline] set_uvarint buf pos v =
  let pos = ref pos and v = ref v in
  while !v >= 0x80 do
    Bytes.unsafe_set buf !pos (Char.unsafe_chr (!v land 0x7f lor 0x80));
    incr pos;
    v := !v lsr 7
  done;
  Bytes.unsafe_set buf !pos (Char.unsafe_chr !v);
  !pos + 1

let[@inline] away t p = p < 0 || p >= t.n || Array.unsafe_get t.cur p <> p

(* Whether each component of the stamp — the max of rows [ps] and [pd],
   [ma] on component [a] — lies within ±2^61 of row [pp]'s, so that
   its delta codes. Asked only once a component may have reached 2^61:
   below that every delta codes, and the loop that writes need not
   test. *)
let deltas_code slab ~ps ~pd ~pp ~dim ~a ~ma =
  let ok = ref true in
  for k = 0 to dim - 1 do
    let x = slab.(ps + k) and y = slab.(pd + k) in
    let e = (if k = a then ma else if x > y then x else y) - slab.(pp + k) in
    if e >= Wire.max_delta || e <= -Wire.max_delta then ok := false
  done;
  !ok

(* One pass per component: read both endpoints' clocks and the previous
   stamp, write the max into both home rows, code it. The max is
   [stamp_store.ml]'s branch-free one. The bump goes in first, on an
   endpoint whose row [prev] does not name, so the loop reads the
   previous stamp as it was and needs no test for component [a]; its
   max is then the bumped value. The loops run one index [i] over
   [src]'s row and reach the others at fixed distances from it. *)
let stamp_home t w ~src ~dst ~a ~prev =
  if away t src || away t dst || (prev >= 0 && away t prev) then
    invalid_arg "Sync_clock.stamp_home: a process is not at home";
  let dim = Stamp_store.dim t.store and slab = Stamp_store.data t.store in
  if a < 0 || a >= dim then invalid_arg "Sync_clock.stamp_home: bad component";
  let ps = src * dim and pd = dst * dim in
  let x = slab.(ps + a) and y = slab.(pd + a) in
  let m = if x > y then x else y in
  if m = max_int then invalid_arg "Sync_clock.stamp_home: component overflow";
  let top = if m >= t.top then m + 1 else t.top in
  if
    prev >= 0 && top >= Wire.max_delta
    && not (deltas_code slab ~ps ~pd ~pp:(prev * dim) ~dim ~a ~ma:(m + 1))
  then invalid_arg "Sync_clock.stamp_home: delta out of range";
  slab.((if prev = src then pd else ps) + a) <- m + 1;
  t.top <- top;
  Wire.reserve w (Wire.max_varint * (dim + 1));
  let buf = Wire.buffer w and dd = pd - ps in
  let pos = ref (set_uvarint buf (Wire.length w) dim) in
  if prev < 0 then
    for i = ps to ps + dim - 1 do
      let x = Array.unsafe_get slab i and y = Array.unsafe_get slab (i + dd) in
      let d = x - y in
      let m = x - (d land (d asr 62)) in
      Array.unsafe_set slab i m;
      Array.unsafe_set slab (i + dd) m;
      pos := set_uvarint buf !pos m
    done
  else begin
    let dp = (prev * dim) - ps in
    for i = ps to ps + dim - 1 do
      let x = Array.unsafe_get slab i
      and y = Array.unsafe_get slab (i + dd)
      and p = Array.unsafe_get slab (i + dp) in
      let d = x - y in
      let m = x - (d land (d asr 62)) in
      Array.unsafe_set slab i m;
      Array.unsafe_set slab (i + dd) m;
      let e = m - p in
      pos := set_uvarint buf !pos ((e lsl 1) lxor (e asr 62))
    done
  end;
  Wire.commit w !pos

let row t p = t.cur.(p)
let clock t p = Stamp_store.get t.store t.cur.(p)

(* A home row is only ever pointed at by its own process, so copying a
   clock home overwrites nothing another process still reads. *)
let home t p =
  let r = t.cur.(p) in
  if r <> p then begin
    Stamp_store.blit_rows t.store ~src:r ~dst:p;
    t.cur.(p) <- p
  end

let drop_stamps t = Stamp_store.truncate t.store t.n

let settle t =
  for p = 0 to t.n - 1 do
    home t p
  done;
  drop_stamps t

let sweep ?store ?rows ~who ~dim trace step =
  let n = Trace.n trace and mcount = Trace.message_count trace in
  let t =
    match store with
    | Some s ->
        if Stamp_store.dim s <> dim then
          invalid_arg (who ^ ": store dimension mismatch");
        attach s n
    | None -> create ~capacity:(mcount + n) ~n dim
  in
  let row_of_id =
    match rows with
    | Some r when Array.length r >= mcount -> r
    | Some _ -> invalid_arg (who ^ ": rows array too short")
    | None -> Array.make (max mcount 1) (-1)
  in
  Array.iter
    (fun (m : Trace.message) ->
      row_of_id.(m.Trace.id) <- step t ~src:m.Trace.src ~dst:m.Trace.dst)
    (Trace.messages trace);
  (t.store, row_of_id)

let vectors (store, row_of_id) trace =
  Array.init (Trace.message_count trace) (fun id ->
      Stamp_store.get store row_of_id.(id))
