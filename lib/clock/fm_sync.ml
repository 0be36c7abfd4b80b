module Trace = Synts_sync.Trace

(* Fidge–Mattern is the synchronous-clock rule with one bump per
   endpoint, each on its own component. *)
let timestamp_store ?store ?rows trace =
  Sync_clock.sweep ?store ?rows ~who:"Fm_sync.timestamp_store"
    ~dim:(max (Trace.n trace) 1) trace (fun clocks ~src ~dst ->
      Sync_clock.stamp clocks ~src ~dst ~a:src ~b:dst)

let timestamp_trace trace = Sync_clock.vectors (timestamp_store trace) trace

(* Seed implementation, kept as the equivalence oracle for the slab path. *)
let timestamp_trace_reference trace =
  let n = Trace.n trace in
  let local = Array.init n (fun _ -> Vector.zero n) in
  let out = Array.make (Trace.message_count trace) [||] in
  Array.iter
    (fun (m : Trace.message) ->
      let src = m.Trace.src and dst = m.Trace.dst in
      let v = Vector.merge local.(src) local.(dst) in
      Vector.incr v src;
      Vector.incr v dst;
      local.(src) <- Vector.copy v;
      local.(dst) <- v;
      out.(m.Trace.id) <- Vector.copy v)
    (Trace.messages trace);
  out

let precedes = Vector.lt
let entries_per_message ~n = 2 * n
