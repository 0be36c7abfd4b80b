module Bitset = Synts_util.Bitset
module Tm = Synts_telemetry.Telemetry

(* Watermark gauges on the default registry — the live-introspection
   hooks the admin channel and `synts top` read. Values are functions of
   the inserted prefix, so seeded runs keep byte-identical snapshots. *)
let m_chains =
  Tm.Gauge.v ~help:"Chains opened by the streaming Dilworth pipeline"
    "poset.stream.chains"

let m_live =
  Tm.Gauge.v ~help:"Peak live-window occupancy of the streaming pipeline"
    "poset.stream.live"

let m_retired =
  Tm.Gauge.v ~help:"Elements retired from the streaming live window"
    "poset.stream.retired"

let m_width =
  Tm.Gauge.v ~help:"Width estimate of the streaming pipeline"
    "poset.stream.width"

type stamp = int array

type info = {
  chain : int;
  opened : bool;
  matched : bool;
  visited : int;
  retired : int;
}

(* Live elements occupy slots in [0, window): fixed arrays indexed by slot,
   recycled through a free stack. The matching (split bipartite graph of
   the inserted prefix) also lives in slot space: [pair_left.(u)] is the
   slot matched as left u's successor, [pair_right.(r)] the slot matched
   as right r's predecessor; -1 free, -2 matched to a retired element
   (the pair still counts, but its edge can never be re-routed).

   Two invariants make an insert cost O(preds · window/word) words:
   - every live row [anc.(u)] holds exactly u's live strict ancestors —
     it is built at insert and afterwards only loses retired bits;
   - a chain's live elements are a contiguous range of ranks ending at
     its tail: [make_room] retires the oldest slots first, and within a
     chain insertion order is rank order.
   By the first, a live predecessor p contributes p's row and p itself
   to the new element's row. A predecessor is named by its chain and
   rank; [tops.(c)] resolves that to a slot: a ring of [window] slots
   indexed by rank mod window, in which no two live elements of one
   chain collide. A retired p's row is gone, and by the second
   invariant its live down-set is instead the union, over chains c, of
   the live slot holding rank [p.(c)] and that slot's row; if that rank
   has retired, so has every lower rank of c. *)
type t = {
  window : int;
  (* Chains: never relinked, only appended to — the append-only invariant
     is what makes the emitted stamps final (see the .mli). *)
  mutable dim : int;
  mutable lengths : int array;  (* per chain, elements so far *)
  mutable tail_seq : int array;  (* per chain, insertion seq of its tail *)
  mutable tail_stamp : stamp array;  (* the tail's emitted stamp *)
  mutable stamp_words : int;  (* total length of the tail stamps *)
  mutable tops : int array array;  (* per chain, slot by rank mod window *)
  (* The next insert's predecessors, emptied by every insert: [base] is
     the componentwise maximum of their stamps, zero from [dim] on, and
     [row] the union of their live down-sets. *)
  mutable base : int array;
  mutable row : Bitset.t;
  (* Live window. *)
  chain_of : int array;
  rank_of : int array;  (* 1-based rank within its chain *)
  anc : Bitset.t array;  (* per slot, its live strict ancestors *)
  pair_left : int array;
  pair_right : int array;
  order : int array;  (* live slots, oldest first *)
  mutable live : int;  (* length of [order] *)
  free_left : Bitset.t;  (* live slots whose pair_left is -1 *)
  free : int array;  (* free-slot stack *)
  mutable free_top : int;
  vis : Bitset.t;  (* repair scratch: left nodes visited this search *)
  path_r : int array;  (* repair scratch: the search's right nodes ... *)
  path_u : int array;  (* ... and the left node each is trying *)
  gone : Bitset.t;  (* make_room scratch: slots retired this sweep *)
  mutable size : int;
  mutable matching : int;
  mutable retired : int;
  mutable repairs : int;
  (* Attribution of the last insert, unboxed. *)
  mutable last_chain : int;
  mutable last_opened : bool;
  mutable last_matched : bool;
  mutable last_visited : int;
  mutable last_retired : int;
}

let create ?(window = 1024) () =
  if window < 2 then invalid_arg "Streaming_chains.create: window must be >= 2";
  {
    window;
    dim = 0;
    lengths = [||];
    tail_seq = [||];
    tail_stamp = [||];
    stamp_words = 0;
    tops = [||];
    base = [||];
    row = Bitset.create window;
    chain_of = Array.make window (-1);
    rank_of = Array.make window 0;
    anc = Array.init window (fun _ -> Bitset.create window);
    pair_left = Array.make window (-1);
    pair_right = Array.make window (-1);
    order = Array.make window 0;
    live = 0;
    free_left = Bitset.create window;
    free = Array.init window (fun i -> window - 1 - i);
    free_top = window;
    vis = Bitset.create window;
    path_r = Array.make (window + 1) 0;
    path_u = Array.make (window + 1) 0;
    gone = Bitset.create window;
    size = 0;
    matching = 0;
    retired = 0;
    repairs = 0;
    last_chain = -1;
    last_opened = false;
    last_matched = false;
    last_visited = 0;
    last_retired = 0;
  }

let size t = t.size
let chains t = t.dim
let width t = t.size - t.matching
let exact t = t.retired = 0
let live t = t.live
let retired t = t.retired
let repairs t = t.repairs
let last_chain t = t.last_chain

let last_info t =
  {
    chain = t.last_chain;
    opened = t.last_opened;
    matched = t.last_matched;
    visited = t.last_visited;
    retired = t.last_retired;
  }

let chain_length t c =
  if c < 0 || c >= t.dim then invalid_arg "Streaming_chains.chain_length";
  t.lengths.(c)

(* Words held live by the structure, by construction
   O(window² / word_size + chains · (window + chains)): the slot arrays,
   the per-slot ancestor bitsets, the chain arrays with each chain's
   rank ring, and the tail stamps. Independent of the number of
   elements inserted, and never decreasing: the window is fixed, and
   chains, chain capacity and tail stamps only grow. *)
let live_words t =
  let bitset_words = (t.window + Sys.int_size - 1) / Sys.int_size + 2 in
  let cap = Array.length t.lengths in
  (8 * (t.window + 1)) (* chain_of rank_of pair_* order free path_* *)
  + ((t.window + 4) * bitset_words) (* anc + row + free_left + vis + gone *)
  + (5 * (cap + 1)) (* chain arrays and base *)
  + (t.dim * (t.window + 1)) (* rank rings *)
  + cap + t.stamp_words (* tail stamps *)

let ensure_chain_capacity t =
  let cap = Array.length t.lengths in
  if t.dim = cap then begin
    let bigger = max 4 (2 * cap) in
    let copy a fill =
      let b = Array.make bigger fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.lengths <- copy t.lengths 0;
    t.tail_seq <- copy t.tail_seq (-1);
    t.base <- copy t.base 0;
    let stamps = Array.make bigger [||] in
    Array.blit t.tail_stamp 0 stamps 0 cap;
    t.tail_stamp <- stamps;
    let tops = Array.make bigger [||] in
    Array.blit t.tops 0 tops 0 cap;
    t.tops <- tops
  end

(* The live slot holding rank [k] of chain [c], or -1 once it retired:
   a ring entry is stale when its slot retired or was recycled. *)
let slot_of_rank t c k =
  let u = t.tops.(c).(k mod t.window) in
  if u >= 0 && t.chain_of.(u) = c && t.rank_of.(u) = k then u else -1

let retire_slot t v =
  Bitset.remove t.free_left v;
  Bitset.add t.gone v;
  Bitset.clear t.anc.(v);
  (* Freeze matched partners: their edges survive in [matching] but can
     no longer be re-routed by later augmenting searches. *)
  let r = t.pair_left.(v) in
  if r >= 0 then t.pair_right.(r) <- -2;
  let u = t.pair_right.(v) in
  if u >= 0 then t.pair_left.(u) <- -2;
  t.pair_left.(v) <- -1;
  t.pair_right.(v) <- -1;
  t.chain_of.(v) <- -1;
  t.free.(t.free_top) <- v;
  t.free_top <- t.free_top + 1;
  t.retired <- t.retired + 1

(* A live slot is its chain's tail iff its rank is the chain's length. *)
let is_tail t v = t.rank_of.(v) = t.lengths.(t.chain_of.(v))

(* Retire live slots oldest first, chain tails only if [tails], until
   [target] remain, compacting [order] over the survivors: at slot i,
   the kept slots and those not yet walked are live. *)
let retire_oldest t ~target ~tails =
  let n = t.live and kept = ref 0 in
  for i = 0 to n - 1 do
    let v = t.order.(i) in
    if !kept + (n - i) > target && (tails || not (is_tail t v)) then
      retire_slot t v
    else begin
      t.order.(!kept) <- v;
      incr kept
    end
  done;
  t.live <- !kept

(* Frontier retirement: when the window fills, drop the oldest half of the
   live prefix (each live chain has advanced past it, or soon will), oldest
   first, preferring elements that are no longer a chain tail. [order]
   already lists the live slots oldest first (inserts append to it), so
   each pass walks it once. Emitted stamps are unaffected — only the
   matching's re-routing horizon shrinks, so [width] decays from exact to
   an upper bound. *)
let make_room t =
  Bitset.clear t.gone;
  let target = t.window / 2 in
  retire_oldest t ~target ~tails:false;
  (* Everything live is a chain tail (dim ≥ window/2): retire oldest tails
     unconditionally until a slot frees up. *)
  if t.free_top = 0 then retire_oldest t ~target ~tails:true;
  (* Drop the retired slots' bits from every surviving ancestor row, and
     from the row the named predecessors built, in one word-parallel
     sweep — the "closure row" retirement of the streaming pipeline. *)
  for i = 0 to t.live - 1 do
    Bitset.diff_into ~dst:t.anc.(t.order.(i)) t.gone
  done;
  Bitset.diff_into ~dst:t.row t.gone

(* Forget the named predecessors. *)
let clear_preds t =
  Array.fill t.base 0 t.dim 0;
  Bitset.clear t.row

(* Add live slot [u] and its row to the next element's row. *)
let add_down_set t u =
  Bitset.union_into ~dst:t.row t.anc.(u);
  Bitset.add t.row u

let pred t p ~chain =
  let k = min (Array.length p) t.dim in
  if chain < 0 || chain >= k || p.(chain) < 1 then begin
    clear_preds t;
    invalid_arg "Streaming_chains.pred: no element of that chain"
  end;
  for i = 0 to k - 1 do
    let x = p.(i) in
    if x < 0 || x > t.lengths.(i) then begin
      clear_preds t;
      invalid_arg "Streaming_chains.pred: stamp from another structure"
    end;
    if x > t.base.(i) then t.base.(i) <- x
  done;
  (* p's live down-set (see the type's invariants): from its row while
     it is live, else from each chain's live slot of rank p.(c). *)
  let u = slot_of_rank t chain p.(chain) in
  if u >= 0 then add_down_set t u
  else
    for c = 0 to k - 1 do
      if p.(c) > 0 then begin
        let u = slot_of_rank t c p.(c) in
        if u >= 0 then add_down_set t u
      end
    done

(* The repair search: one Kuhn augmenting search from the new slot [s]
   as a right node, in the loop form of {!Matching.augment_from}. Right
   node [r]'s left neighbours are its row's slots not yet visited,
   lowest first, each marked visited when tried; a matched one
   continues the search from its partner, a free one ends it, and one
   frozen by retirement (-2) is skipped. [path_r.(d)] is the right node
   at depth d and [path_u.(d)] the left node it is trying, so a success
   flips the path's edges from the stack. Every row is re-read against
   the visited set as it grew, so slots are visited in the recursive
   form's order. True iff the matching grew; the slots visited go to
   [last_visited]. *)
let augment t s =
  Bitset.clear t.vis;
  t.path_r.(0) <- s;
  let depth = ref 0 and from = ref 0 and visited = ref 0 and grew = ref 0 in
  while !grew = 0 do
    let r = t.path_r.(!depth) in
    let u = Bitset.first_diff ~from:!from t.anc.(r) t.vis in
    if u < 0 then begin
      if !depth = 0 then grew := -1
      else begin
        decr depth;
        from := t.path_u.(!depth) + 1
      end
    end
    else begin
      Bitset.add t.vis u;
      incr visited;
      let p = t.pair_left.(u) in
      if p = -1 then begin
        (* The one free left node visited: the path ends here. *)
        t.path_u.(!depth) <- u;
        for d = 0 to !depth do
          let u = t.path_u.(d) and r = t.path_r.(d) in
          t.pair_left.(u) <- r;
          t.pair_right.(r) <- u
        done;
        Bitset.remove t.free_left u;
        grew := 1
      end
      else if p >= 0 then begin
        t.path_u.(!depth) <- u;
        incr depth;
        t.path_r.(!depth) <- p;
        from := 0
      end
      else from := u + 1
    end
  done;
  t.last_visited <- !visited;
  !grew > 0

let is_cand t c = t.lengths.(c) > 0 && t.base.(c) = t.lengths.(c)

(* tail(c) < tail(c') iff tail(c')'s stamp already counts all of
   chain c — the one-coordinate chain-prefix test. *)
let maximal t c =
  let ok = ref true in
  for c' = 0 to t.dim - 1 do
    if c' <> c && is_cand t c' then begin
      let s' = t.tail_stamp.(c') in
      if c < Array.length s' && s'.(c) >= t.lengths.(c) then ok := false
    end
  done;
  !ok

(* The chain the new slot [s] extends, or -1 to open one. Extendable
   chains ("candidates") are exactly those whose full length is already
   counted by [base] (the down-set meets every chain in a prefix). Among
   the candidates, only a tail that is {e maximal} among the candidate
   tails may be extended — covering a non-maximal tail would strand the
   maximal one below the new element and force an extra chain later.
   Prefer the matched predecessor's chain when it qualifies (keeping
   placement chains aligned with matching chains), then the most
   recently extended candidate (patience rule): a tail below another
   was inserted before it, so the latest candidate tail is maximal. *)
let place t s ~matched =
  let u = t.pair_right.(s) in
  if matched && u >= 0 && is_tail t u
     && is_cand t t.chain_of.(u)
     && maximal t t.chain_of.(u)
  then t.chain_of.(u)
  else begin
    let best = ref (-1) in
    for c = 0 to t.dim - 1 do
      if is_cand t c && (!best < 0 || t.tail_seq.(c) > t.tail_seq.(!best))
      then best := c
    done;
    !best
  end

let insert t =
  let retired_now = t.retired in
  if t.free_top = 0 then make_room t;
  t.free_top <- t.free_top - 1;
  let s = t.free.(t.free_top) in
  (* The free slot's row is empty (retirement clears it): swap in the
     one the predecessors built. *)
  let anc = t.row in
  t.row <- t.anc.(s);
  t.anc.(s) <- anc;
  (* Patience tier: the lowest unmatched ancestor (a matching-chain
     tail) takes the new element directly. *)
  let direct = Bitset.first_inter anc t.free_left in
  t.last_visited <- 0;
  let matched =
    if direct >= 0 then begin
      t.pair_left.(direct) <- s;
      t.pair_right.(s) <- direct;
      Bitset.remove t.free_left direct;
      true
    end
    else if Bitset.is_empty anc then false
    else begin
      (* Repair tier: one full augmenting-path search re-routes existing
         matched edges inside the live window. *)
      t.repairs <- t.repairs + 1;
      augment t s
    end
  in
  if matched then t.matching <- t.matching + 1;
  let candidate = place t s ~matched in
  let opened = candidate < 0 in
  let c =
    if opened then begin
      ensure_chain_capacity t;
      let c = t.dim in
      t.dim <- t.dim + 1;
      t.lengths.(c) <- 0;
      t.tops.(c) <- Array.make t.window (-1);
      c
    end
    else candidate
  in
  (* The stamp is [base] with this chain's count, [base]'s padding
     covering a chain just opened. *)
  let out = Array.sub t.base 0 t.dim in
  Array.fill t.base 0 t.dim 0;
  t.lengths.(c) <- t.lengths.(c) + 1;
  out.(c) <- t.lengths.(c);
  t.tail_seq.(c) <- t.size;
  t.stamp_words <-
    t.stamp_words + Array.length out - Array.length t.tail_stamp.(c);
  t.tail_stamp.(c) <- out;
  t.tops.(c).(t.lengths.(c) mod t.window) <- s;
  t.chain_of.(s) <- c;
  t.rank_of.(s) <- t.lengths.(c);
  t.order.(t.live) <- s;
  t.live <- t.live + 1;
  Bitset.add t.free_left s;
  t.size <- t.size + 1;
  t.last_chain <- c;
  t.last_opened <- opened;
  t.last_matched <- matched;
  t.last_retired <- t.retired - retired_now;
  Tm.Gauge.set m_chains t.dim;
  (* live occupancy = inserted minus retired; peak-hold watermark *)
  Tm.Gauge.set_max m_live (t.size - t.retired);
  Tm.Gauge.set m_retired t.retired;
  Tm.Gauge.set m_width (t.size - t.matching);
  out

(* Strict stamp order with implicit zero-padding: stamps emitted before a
   chain was opened are compared as if padded with zeros. *)
let stamp_lt u v =
  let lu = Array.length u and lv = Array.length v in
  let n = max lu lv in
  let leq = ref true and strict = ref false in
  for i = 0 to n - 1 do
    let a = if i < lu then u.(i) else 0 in
    let b = if i < lv then v.(i) else 0 in
    if a > b then leq := false;
    if a < b then strict := true
  done;
  !leq && !strict
