module Decomposition = Synts_graph.Decomposition
module Trace = Synts_sync.Trace
module Vector = Synts_clock.Vector
module Stamp_store = Synts_clock.Stamp_store
module Sync_clock = Synts_clock.Sync_clock
module Tm = Synts_telemetry.Telemetry

let m_stamps =
  Tm.Counter.v ~help:"Message stamps issued by the online algorithm"
    "core.online.stamps"

let m_entries =
  Tm.Counter.v ~help:"Vector entries across all online stamps (sum of d)"
    "core.online.vector_entries"

let group decomposition u v =
  match Decomposition.group_of_edge decomposition u v with
  | g -> g
  | exception Not_found ->
      invalid_arg
        (Printf.sprintf
           "Online: channel (%d,%d) is not in the edge decomposition" u v)

let timestamp_store ?store ?rows decomposition trace =
  if Trace.n trace > Decomposition.graph_vertices decomposition then
    invalid_arg "Online.timestamp_store: more processes than topology vertices";
  let d = Decomposition.size decomposition in
  let swept =
    Sync_clock.sweep ?store ?rows ~who:"Online.timestamp_store" ~dim:d trace
      (fun clocks ~src ~dst ->
        let g = group decomposition src dst in
        Sync_clock.stamp clocks ~src ~dst ~a:g ~b:g)
  in
  let mcount = Trace.message_count trace in
  Tm.Counter.add m_stamps mcount;
  Tm.Counter.add m_entries (mcount * d);
  swept

let timestamp_trace decomposition trace =
  Sync_clock.vectors (timestamp_store decomposition trace) trace

(* Seed implementation, kept verbatim as the qcheck oracle for the slab
   kernel (one merge + two copies per message). *)
let timestamp_trace_reference decomposition trace =
  let n = Trace.n trace in
  if n > Decomposition.graph_vertices decomposition then
    invalid_arg "Online.timestamp_trace: more processes than topology vertices";
  let d = Decomposition.size decomposition in
  let local = Array.init n (fun _ -> Vector.zero d) in
  let out = Array.make (Trace.message_count trace) [||] in
  Array.iter
    (fun (m : Trace.message) ->
      let src = m.Trace.src and dst = m.Trace.dst in
      let v = Vector.merge local.(src) local.(dst) in
      Vector.incr v (group decomposition src dst);
      local.(src) <- Vector.copy v;
      local.(dst) <- v;
      Tm.Counter.incr m_stamps;
      Tm.Counter.add m_entries d;
      out.(m.Trace.id) <- Vector.copy v)
    (Trace.messages trace);
  out

let timestamp_trace_protocol decomposition trace =
  let n = Trace.n trace in
  let clocks = Array.init n (fun pid -> Edge_clock.create decomposition ~pid) in
  let out = Array.make (Trace.message_count trace) [||] in
  Array.iter
    (fun (m : Trace.message) ->
      let src = m.Trace.src and dst = m.Trace.dst in
      let payload = Edge_clock.on_send clocks.(src) ~dst in
      let `Ack ack, ts_receiver = Edge_clock.receive clocks.(dst) ~src payload in
      let ts_sender = Edge_clock.on_ack clocks.(src) ~dst ack in
      assert (Vector.equal ts_sender ts_receiver);
      out.(m.Trace.id) <- ts_receiver)
    (Trace.messages trace);
  out

let stamper decomposition =
  let n = Decomposition.graph_vertices decomposition in
  let d = Decomposition.size decomposition in
  (* The stream is unbounded but only the n clocks matter; once the slab
     holds [watermark] rows every clock is settled back to its home row
     and the stamp rows are dropped, so the store stays O(n·d)
     forever. *)
  let watermark = max 64 (4 * (n + 1)) in
  let clocks = Sync_clock.create ~capacity:(watermark + 1) ~n d in
  let store = Sync_clock.store clocks in
  fun ~src ~dst ->
    if src < 0 || src >= n || dst < 0 || dst >= n then
      invalid_arg "Online.stamper: process out of range";
    if Stamp_store.rows store >= watermark then Sync_clock.settle clocks;
    let g = group decomposition src dst in
    let row = Sync_clock.stamp clocks ~src ~dst ~a:g ~b:g in
    Tm.Counter.incr m_stamps;
    Tm.Counter.add m_entries d;
    Stamp_store.get store row

(* Seed implementation of the streaming stamper, kept as the qcheck
   oracle for the settling slab version. *)
let stamper_reference decomposition =
  let n = Decomposition.graph_vertices decomposition in
  let d = Decomposition.size decomposition in
  let local = Array.init n (fun _ -> Vector.zero d) in
  fun ~src ~dst ->
    if src < 0 || src >= n || dst < 0 || dst >= n then
      invalid_arg "Online.stamper: process out of range";
    let v = Vector.merge local.(src) local.(dst) in
    Vector.incr v (group decomposition src dst);
    local.(src) <- Vector.copy v;
    local.(dst) <- v;
    Tm.Counter.incr m_stamps;
    Tm.Counter.add m_entries d;
    Vector.copy v

let precedes = Vector.lt
let concurrent = Vector.concurrent
