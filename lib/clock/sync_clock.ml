module Trace = Synts_sync.Trace

type t = { store : Stamp_store.t; n : int; cur : int array }

(* Reset [store] to [n] zero home rows with every process at home. *)
let attach store n =
  Stamp_store.clear store;
  for _ = 1 to n do
    ignore (Stamp_store.push_zero store)
  done;
  { store; n; cur = Array.init n Fun.id }

let seed t init =
  let dim = Stamp_store.dim t.store in
  if Array.length init <> t.n then
    invalid_arg "Sync_clock.create: init needs one row per process";
  Array.iteri
    (fun p r ->
      if Array.length r <> dim then
        invalid_arg "Sync_clock.create: init row width mismatch";
      Array.iteri
        (fun k x -> if x <> 0 then Stamp_store.row_set t.store p k x)
        r)
    init

let create ?(capacity = 64) ?init ~n dim =
  if n < 0 then invalid_arg "Sync_clock.create: negative process count";
  let t = attach (Stamp_store.create ~capacity:(max capacity n) dim) n in
  Option.iter (seed t) init;
  t

let store t = t.store

let stamp t ~src ~dst ~a ~b =
  let cur = t.cur in
  let row = Stamp_store.push_merge t.store ~a:cur.(src) ~b:cur.(dst) in
  Stamp_store.row_incr t.store row a;
  if b <> a then Stamp_store.row_incr t.store row b;
  cur.(src) <- row;
  cur.(dst) <- row;
  row

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
