(* In-memory spans for the traced run.

   A span is a name, a start and an end (monotonic ns), the words
   allocated between them, its parent span and the request it belongs
   to. Every span is folded into per-name totals as it is recorded; a
   layer's self time is its total minus the totals of its children.
   Full span records are kept for every [keep_every]-th request and
   written out as JSON lines when the run ends. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* Words allocated so far: [Gc.minor_words] (exact), plus blocks too
   large for the minor heap, which go straight to the major heap (major
   words not promoted from the minor heap). The minor word count of
   [Gc.counters] is not exact across minor collections, so it is not
   used. *)
let words () =
  let _, promoted, major = Gc.counters () in
  int_of_float (Gc.minor_words () +. major -. promoted)

type handle = { idx : int;  (** Kept record, or -1. *) name : int }

let root = { idx = -1; name = -1 }

type t = {
  names : string array;
  keep_every : int;
  total_ns : int array;  (* per name *)
  child_ns : int array;
  total_words : int array;
  child_words : int array;
  count : int array;
  mutable kept : int array list;
      (* [| idx; name; req; start; stop; words; parent idx |], newest first *)
  mutable next : int;
  clock_cost : int;  (* ns an empty span measures *)
  words_cost : int;  (* words an empty span allocates *)
}

type open_span = { h : handle; parent : handle; req : int; t0 : int; w0 : int }

let make ~names ~keep_every ~clock_cost ~words_cost =
  let k = Array.length names in
  {
    names;
    keep_every = max 1 keep_every;
    total_ns = Array.make k 0;
    child_ns = Array.make k 0;
    total_words = Array.make k 0;
    child_words = Array.make k 0;
    count = Array.make k 0;
    kept = [];
    next = 0;
    clock_cost;
    words_cost;
  }

let start t ~name ~req ?(parent = root) () =
  let idx =
    if req >= 0 && req mod t.keep_every = 0 then begin
      let i = t.next in
      t.next <- i + 1;
      i
    end
    else -1
  in
  let h = { idx; name } in
  let w0 = words () in
  let t0 = now () in
  { h; parent; req; t0; w0 }

let stop t s =
  let t1 = now () in
  let w1 = words () in
  let ns = max 0 (t1 - s.t0 - t.clock_cost) and w = w1 - s.w0 - t.words_cost in
  let name = s.h.name in
  t.total_ns.(name) <- t.total_ns.(name) + ns;
  t.total_words.(name) <- t.total_words.(name) + w;
  t.count.(name) <- t.count.(name) + 1;
  if s.parent.name >= 0 then begin
    t.child_ns.(s.parent.name) <- t.child_ns.(s.parent.name) + ns;
    t.child_words.(s.parent.name) <- t.child_words.(s.parent.name) + w
  end;
  if s.h.idx >= 0 then
    t.kept <- [| s.h.idx; name; s.req; s.t0; t1; w; s.parent.idx |] :: t.kept;
  s.h

(* Time [f h] as one span; [h] is the span's handle, for children. *)
let span t ~name ~req ?parent f =
  let s = start t ~name ~req ?parent () in
  let x = f s.h in
  ignore (stop t s);
  x

(* The cost of an empty span, subtracted from every span: the median
   time and the (exactly repeating) words of [start] + [stop]. *)
let create ~names ~keep_every =
  let probe = make ~names:[| "probe" |] ~keep_every:max_int ~clock_cost:0 ~words_cost:0 in
  let n = 10_001 in
  let ns = Array.make n 0 in
  for i = 0 to n - 1 do
    let before = probe.total_ns.(0) in
    ignore (stop probe (start probe ~name:0 ~req:1 ()));
    ns.(i) <- probe.total_ns.(0) - before
  done;
  Array.sort compare ns;
  let words_cost = probe.total_words.(0) / n in
  make ~names ~keep_every ~clock_cost:ns.(n / 2) ~words_cost

let count t name = t.count.(name)
let self_ns t name = t.total_ns.(name) - t.child_ns.(name)
let self_words t name = t.total_words.(name) - t.child_words.(name)

let write t path =
  let kept = List.sort compare t.kept in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun r ->
          Printf.fprintf oc
            {|{"id":%d,"name":%S,"req":%d,"start_ns":%d,"end_ns":%d,"words":%d,"parent":%d}|}
            r.(0) t.names.(r.(1)) r.(2) r.(3) r.(4) r.(5) r.(6);
          output_char oc '\n')
        kept)
