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

let no_info = { chain = -1; opened = false; matched = false; visited = 0; retired = 0 }

(* Live elements occupy slots in [0, window): fixed arrays indexed by slot,
   recycled through a free stack. The matching (split bipartite graph of
   the inserted prefix) also lives in slot space: [pair_left.(u)] is the
   slot matched as left u's successor, [pair_right.(r)] the slot matched
   as right r's predecessor; -1 free, -2 matched to a retired element
   (the pair still counts, but its edge can never be re-routed).

   Two invariants make an insert cost O(chains · window/word) words:
   - every live row [anc.(u)] holds exactly u's live strict ancestors —
     it is built at insert and afterwards only loses retired bits;
   - a chain's live elements are a contiguous range of ranks ending at
     its tail: [make_room] retires the oldest slots first, and within a
     chain insertion order is rank order.
   So the new element's row is the union, over chains c, of the live
   slot holding rank [base.(c)] and that slot's row; if that rank has
   retired, so has every lower rank of c. [tops.(c)] finds that slot:
   a ring of [window] slots indexed by rank mod window, in which no two
   live elements of one chain collide. *)
type t = {
  window : int;
  (* Chains: never relinked, only appended to — the append-only invariant
     is what makes the emitted stamps final (see the .mli). *)
  mutable dim : int;
  mutable lengths : int array;  (* per chain, elements so far *)
  mutable tail_seq : int array;  (* per chain, insertion seq of its tail *)
  mutable tail_stamp : stamp array;  (* the tail's emitted stamp *)
  mutable tops : int array array;  (* per chain, slot by rank mod window *)
  (* Live window. *)
  chain_of : int array;
  rank_of : int array;  (* 1-based rank within its chain *)
  seq_of : int array;  (* global insertion sequence number *)
  anc : Bitset.t array;  (* per slot, its live strict ancestors *)
  pair_left : int array;
  pair_right : int array;
  live : Bitset.t;
  free_left : Bitset.t;  (* live slots whose pair_left is -1 *)
  free : int array;  (* free-slot stack *)
  mutable free_top : int;
  vis : Bitset.t;  (* augment scratch: left nodes visited this search *)
  gone : Bitset.t;  (* make_room scratch: slots retired this sweep *)
  mutable size : int;
  mutable matching : int;
  mutable retired : int;
  mutable repairs : int;
  mutable last : info;
}

let create ?(window = 1024) () =
  if window < 2 then invalid_arg "Streaming_chains.create: window must be >= 2";
  {
    window;
    dim = 0;
    lengths = [||];
    tail_seq = [||];
    tail_stamp = [||];
    tops = [||];
    chain_of = Array.make window (-1);
    rank_of = Array.make window 0;
    seq_of = Array.make window 0;
    anc = Array.init window (fun _ -> Bitset.create window);
    pair_left = Array.make window (-1);
    pair_right = Array.make window (-1);
    live = Bitset.create window;
    free_left = Bitset.create window;
    free = Array.init window (fun i -> window - 1 - i);
    free_top = window;
    vis = Bitset.create window;
    gone = Bitset.create window;
    size = 0;
    matching = 0;
    retired = 0;
    repairs = 0;
    last = no_info;
  }

let size t = t.size
let chains t = t.dim
let width t = t.size - t.matching
let exact t = t.retired = 0
let live t = Bitset.cardinal t.live
let retired t = t.retired
let repairs t = t.repairs
let last_info t = t.last
let chain_length t c =
  if c < 0 || c >= t.dim then invalid_arg "Streaming_chains.chain_length";
  t.lengths.(c)

(* Words held live by the structure, by construction
   O(window² / word_size + chains · (window + chains)): the slot arrays,
   the per-slot ancestor bitsets, the chain arrays with each chain's
   rank ring, and the tail stamps. Independent of the number of
   elements inserted. *)
let live_words t =
  let bitset_words = (t.window + Sys.int_size - 1) / Sys.int_size + 2 in
  (6 * (t.window + 1)) (* chain_of rank_of seq_of pair_* free *)
  + ((t.window + 4) * bitset_words) (* anc + live + free_left + vis + gone *)
  + (4 * (Array.length t.lengths + 1)) (* chain arrays *)
  + (t.dim * (t.window + 1)) (* rank rings *)
  + Array.fold_left (fun acc s -> acc + Array.length s + 1) 0 t.tail_stamp

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
  Bitset.remove t.live v;
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

(* Frontier retirement: when the window fills, drop the oldest half of the
   live prefix (each live chain has advanced past it, or soon will), oldest
   first, preferring elements that are no longer a chain tail. Emitted
   stamps are unaffected — only the matching's re-routing horizon shrinks,
   so [width] decays from exact to an upper bound. *)
let make_room t =
  Bitset.clear t.gone;
  let count = Bitset.cardinal t.live in
  let order = Array.make count 0 in
  let k = ref 0 in
  Bitset.iter
    (fun v ->
      order.(!k) <- v;
      incr k)
    t.live;
  Array.sort (fun a b -> compare t.seq_of.(a) t.seq_of.(b)) order;
  let target = t.window / 2 in
  let remaining = ref count in
  Array.iter
    (fun v ->
      if !remaining > target && not (is_tail t v) then begin
        retire_slot t v;
        decr remaining
      end)
    order;
  (* Everything live is a chain tail (dim ≥ window/2): retire oldest tails
     unconditionally until a slot frees up. *)
  if t.free_top = 0 then
    Array.iter
      (fun v ->
        if !remaining > target && Bitset.mem t.live v then begin
          retire_slot t v;
          decr remaining
        end)
      order;
  (* Drop the retired slots' bits from every surviving ancestor row in
     one word-parallel sweep — the "closure row" retirement of the
     streaming pipeline. *)
  Bitset.iter (fun u -> Bitset.diff_into ~dst:t.anc.(u) t.gone) t.live

let merge_base t preds =
  let base = Array.make t.dim 0 in
  List.iter
    (fun p ->
      let k = min (Array.length p) t.dim in
      for i = 0 to k - 1 do
        if p.(i) < 0 || p.(i) > t.lengths.(i) then
          invalid_arg "Streaming_chains.insert: stamp from another structure";
        if p.(i) > base.(i) then base.(i) <- p.(i)
      done)
    preds;
  base

(* The new element's live ancestors: for each chain, the live slot
   holding rank [base.(c)] and its row (see the type's invariants) —
   O(chains · window/word) words, no per-slot test. *)
let ancestors_of_base t base s =
  let a = t.anc.(s) in
  for c = 0 to Array.length base - 1 do
    if base.(c) > 0 then begin
      let u = slot_of_rank t c base.(c) in
      if u >= 0 then begin
        Bitset.union_into ~dst:a t.anc.(u);
        Bitset.add a u
      end
    end
  done;
  a

(* The repair search's adjacency ({!Matching.augment_from}): right node
   [r]'s unvisited left neighbours from [from] up, each marked visited
   before [f] sees it; [f] may visit more, so each step re-reads the
   visited set. *)
let rec scan_row t r f from =
  let u = Bitset.first_diff ~from t.anc.(r) t.vis in
  u >= 0
  && begin
       Bitset.add t.vis u;
       f r u || scan_row t r f (u + 1)
     end

let insert t ~preds =
  let retired_now = t.retired in
  if t.free_top = 0 then make_room t;
  let base = merge_base t preds in
  t.free_top <- t.free_top - 1;
  let s = t.free.(t.free_top) in
  let anc = ancestors_of_base t base s in
  (* Patience tier: the lowest unmatched ancestor (a matching-chain
     tail) takes the new element directly. *)
  let direct = Bitset.first_inter anc t.free_left in
  let visits = ref 0 in
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
         matched edges inside the live window. A successful path ends
         at the one free left node it visited, which it uses up. *)
      t.repairs <- t.repairs + 1;
      Bitset.clear t.vis;
      let grew =
        Matching.augment_from
          ~find:(fun r f -> scan_row t r f 0)
          ~pair_left:t.pair_left ~pair_right:t.pair_right s
      in
      visits := Bitset.cardinal t.vis;
      if grew then
        Bitset.remove t.free_left (Bitset.first_inter t.vis t.free_left);
      grew
    end
  in
  if matched then t.matching <- t.matching + 1;
  (* Chain placement: extendable chains are exactly those whose full
     length is already counted by [base] (the down-set meets every chain
     in a prefix). Among the candidates, only a tail that is {e maximal}
     among the candidate tails may be extended — covering a non-maximal
     tail would strand the maximal one below the new element and force an
     extra chain later. Prefer the matched predecessor's chain when it
     qualifies (keeping placement chains aligned with matching chains),
     then the most recently extended maximal candidate (patience rule). *)
  let candidate =
    let cands = ref [] in
    for c = t.dim - 1 downto 0 do
      if t.lengths.(c) > 0 && base.(c) = t.lengths.(c) then cands := c :: !cands
    done;
    let cands = !cands in
    (* tail(c) < tail(c') iff tail(c')'s stamp already counts all of
       chain c — the one-coordinate chain-prefix test. *)
    let counts_all s c =
      c < Array.length s && s.(c) >= t.lengths.(c)
    in
    let maximal c =
      List.for_all (fun c' -> c' = c || not (counts_all t.tail_stamp.(c') c)) cands
    in
    match cands with
    | [] -> -1
    | _ -> (
        let u = t.pair_right.(s) in
        let pref =
          if matched && u >= 0 then
            let c = t.chain_of.(u) in
            if is_tail t u && List.mem c cands && maximal c then c else -1
          else -1
        in
        if pref >= 0 then pref
        else begin
          let best = ref (-1) in
          List.iter
            (fun c ->
              if maximal c && (!best < 0 || t.tail_seq.(c) > t.tail_seq.(!best))
              then best := c)
            cands;
          (* A maximal candidate always exists: the tails form a finite
             strict order. *)
          !best
        end)
  in
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
  let out = Array.make t.dim 0 in
  Array.blit base 0 out 0 (Array.length base);
  t.lengths.(c) <- t.lengths.(c) + 1;
  out.(c) <- t.lengths.(c);
  t.tail_seq.(c) <- t.size;
  t.tail_stamp.(c) <- out;
  t.tops.(c).(t.lengths.(c) mod t.window) <- s;
  t.chain_of.(s) <- c;
  t.rank_of.(s) <- t.lengths.(c);
  t.seq_of.(s) <- t.size;
  Bitset.add t.live s;
  Bitset.add t.free_left s;
  t.size <- t.size + 1;
  t.last <-
    {
      chain = c;
      opened;
      matched;
      visited = !visits;
      retired = t.retired - retired_now;
    };
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
