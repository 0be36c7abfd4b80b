module Trace = Synts_sync.Trace

type stats = { messages : int; entries_sent : int; full_entries : int }

let simulate trace =
  let n = Trace.n trace in
  (* [last.(i*n + j)] is the row of i's vector as of its last payload to
     j: i's zero home row until then, the same semantics as "never
     sent". Rows of a whole-trace sweep never move, so a row index
     stands in for a copy of the vector. *)
  let last = Array.init (n * n) (fun cell -> cell / n) in
  let entries = ref 0 in
  (* [a] transmits its current vector to [b]: count the entries that
     differ from the last payload on this channel, then remember the
     vector as the new last payload. *)
  let exchange clocks a b =
    let cell = (a * n) + b and now = Sync_clock.row clocks a in
    entries :=
      !entries + Stamp_store.diff_count (Sync_clock.store clocks) last.(cell) now;
    last.(cell) <- now
  in
  let swept =
    Sync_clock.sweep ~who:"Singhal_kshemkalyani.simulate" ~dim:(max n 1) trace
      (fun clocks ~src ~dst ->
        (* Program message carries src's diff; the ack carries dst's diff
           (of dst's pre-merge vector, as in the paper's Figure 5 line
           04). *)
        exchange clocks src dst;
        exchange clocks dst src;
        Sync_clock.stamp clocks ~src ~dst ~a:src ~b:dst)
  in
  let mcount = Trace.message_count trace in
  ( Sync_clock.vectors swept trace,
    {
      messages = mcount;
      entries_sent = !entries;
      full_entries = 2 * n * mcount;
    } )

(* Seed implementation, kept as the equivalence oracle for the slab path. *)
let simulate_reference trace =
  let n = Trace.n trace in
  let local = Array.init n (fun _ -> Vector.zero n) in
  (* last_sent.(i).(j) is a copy of i's vector as of the last payload i sent
     to j; only entries differing from it are transmitted. *)
  let last_sent = Array.init n (fun _ -> Array.make n [||]) in
  let changed_entries src dst v =
    let prev = last_sent.(src).(dst) in
    let count = ref 0 in
    for k = 0 to n - 1 do
      let old = if prev = [||] then 0 else prev.(k) in
      if v.(k) <> old then incr count
    done;
    last_sent.(src).(dst) <- Vector.copy v;
    !count
  in
  let out = Array.make (Trace.message_count trace) [||] in
  let entries = ref 0 in
  Array.iter
    (fun (m : Trace.message) ->
      let src = m.Trace.src and dst = m.Trace.dst in
      entries := !entries + changed_entries src dst local.(src);
      entries := !entries + changed_entries dst src local.(dst);
      let v = Vector.merge local.(src) local.(dst) in
      Vector.incr v src;
      Vector.incr v dst;
      local.(src) <- Vector.copy v;
      local.(dst) <- v;
      out.(m.Trace.id) <- Vector.copy v)
    (Trace.messages trace);
  let messages = Trace.message_count trace in
  (out, { messages; entries_sent = !entries; full_entries = 2 * n * messages })

let average_entries_per_message stats =
  if stats.messages = 0 then 0.0
  else float_of_int stats.entries_sent /. float_of_int stats.messages
