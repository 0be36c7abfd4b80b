module Poset = Synts_poset.Poset
module Realizer = Synts_poset.Realizer
module Dilworth = Synts_poset.Dilworth
module Message_poset = Synts_sync.Message_poset
module Vector = Synts_clock.Vector
module Tracer = Synts_trace.Tracer

let width_bound ~n = n / 2

(* When tracing, the pipeline is run phase by phase (matching, chain
   extraction, extension construction) through the primitives Realizer
   composes — identical results by construction, but each phase lands as
   its own span on the offline recorder's pipeline clock, with span
   durations measuring work units (elements, matched pairs, chains). *)
let traced_realizer p =
  let n = Poset.size p in
  if n = 0 then [ [||] ]
  else begin
    let phase name work f =
      let tick = Tracer.pipeline_tick () in
      let result = f () in
      let dur = float_of_int (work result) in
      Tracer.complete ~cat:"poset" ~tick ~dur name;
      Tracer.pipeline_advance dur;
      result
    in
    let m = phase "matching" (fun m -> m.Synts_poset.Matching.size) (fun () -> Dilworth.matching p) in
    let chains =
      phase "chain-extraction" List.length (fun () -> Dilworth.chains_of_matching n m)
    in
    phase "extension"
      (fun exts -> List.length exts * n)
      (fun () -> Realizer.of_chain_partition p chains)
  end

let timestamp_poset p =
  let realizer =
    if Tracer.enabled () then traced_realizer p else Realizer.dilworth p
  in
  let vecs = Realizer.vectors realizer in
  (* Shift ranks to 1-based so the all-zero vector stays strictly below
     every timestamp — the Section 5 internal-event stamps use zero as the
     "no preceding message" bottom element. *)
  Array.map (Array.map succ) vecs

let timestamp_trace trace =
  let p =
    if Tracer.enabled () then begin
      let tick = Tracer.pipeline_tick () in
      let p = Message_poset.of_trace trace in
      let dur = float_of_int (Poset.size p) in
      Tracer.complete ~cat:"poset" ~tick ~dur "closure";
      Tracer.pipeline_advance dur;
      p
    end
    else Message_poset.of_trace trace
  in
  timestamp_poset p

let dimension_used trace =
  max 1 (Dilworth.width (Message_poset.of_trace trace))

(* ---------- streaming pipeline ---------- *)

module Streaming_chains = Synts_poset.Streaming_chains

module Stream = struct
  (* A message's immediate predecessors are the last messages at its two
     endpoints, so per process the stream keeps that message's stamp and
     chain — the handle {!Streaming_chains.pred} takes. *)
  type t = {
    chains : Streaming_chains.t;
    n : int;
    last : Vector.t array;  (* per process, last message stamp *)
    last_chain : int array;  (* and its chain; -1 before the first *)
    mutable messages : int;
  }

  let create ?window ~n () =
    if n < 1 then invalid_arg "Offline.Stream.create: n must be >= 1";
    {
      chains = Streaming_chains.create ?window ();
      n;
      last = Array.make n [||];
      last_chain = Array.make n (-1);
      messages = 0;
    }

  let processes t = t.n
  let last t p = t.last.(p)
  let messages t = t.messages
  let dimension t = max 1 (Streaming_chains.chains t.chains)
  let width t = Streaming_chains.width t.chains
  let exact_width t = Streaming_chains.exact t.chains
  let live t = Streaming_chains.live t.chains
  let retired t = Streaming_chains.retired t.chains
  let repairs t = Streaming_chains.repairs t.chains
  let last_info t = Streaming_chains.last_info t.chains

  let live_words t =
    Streaming_chains.live_words t.chains + (2 * (t.n + 1)) + 8

  (* [Streaming_chains.live_words] never decreases. *)
  let peak_live_words = live_words

  (* Each observe lands as up to four spans on the pipeline clock —
     insert (chain placement), repair (the augmenting search, when the
     patience tier missed), retire (window eviction, when it happened)
     and emit (stamp materialisation) — so [synts trace report] shows
     p50/p90/p99 per-phase cost of the streaming pipeline. *)
  let trace_phases t (info : Streaming_chains.info) =
    let span name dur =
      if dur > 0.0 then begin
        let tick = Tracer.pipeline_tick () in
        Tracer.complete ~cat:"offline-stream" ~tick ~dur name;
        Tracer.pipeline_advance dur
      end
    in
    let dim = float_of_int (dimension t) in
    span "insert" dim;
    span "repair" (float_of_int info.Streaming_chains.visited);
    span "retire" (float_of_int info.Streaming_chains.retired);
    span "emit" dim

  (* Name process [p]'s last message as a predecessor of the next. *)
  let name_last t p =
    let chain = t.last_chain.(p) in
    if chain >= 0 then Streaming_chains.pred t.chains t.last.(p) ~chain

  let observe t ~src ~dst =
    if src < 0 || src >= t.n || dst < 0 || dst >= t.n || src = dst then
      invalid_arg "Offline.Stream.observe: bad channel";
    name_last t src;
    name_last t dst;
    let v = Streaming_chains.insert t.chains in
    let chain = Streaming_chains.last_chain t.chains in
    t.last.(src) <- v;
    t.last.(dst) <- v;
    t.last_chain.(src) <- chain;
    t.last_chain.(dst) <- chain;
    t.messages <- t.messages + 1;
    if Tracer.enabled () then
      trace_phases t (Streaming_chains.last_info t.chains);
    v

  let pad v dim =
    if Vector.size v >= dim then v
    else begin
      let w = Vector.zero dim in
      Array.blit v 0 w 0 (Vector.size v);
      w
    end

  let precedes t u v =
    let dim = max (dimension t) (max (Vector.size u) (Vector.size v)) in
    Vector.lt (pad u dim) (pad v dim)

  let concurrent t u v =
    let dim = max (dimension t) (max (Vector.size u) (Vector.size v)) in
    Vector.concurrent (pad u dim) (pad v dim)
end

let stream_trace ?window trace =
  let stream = Stream.create ?window ~n:(Synts_sync.Trace.n trace) () in
  let stamps =
    Array.map
      (fun (m : Synts_sync.Trace.message) ->
        Stream.observe stream ~src:m.Synts_sync.Trace.src
          ~dst:m.Synts_sync.Trace.dst)
      (Synts_sync.Trace.messages trace)
  in
  (* Early stamps may predate later chains; pad to one final width so the
     result is directly comparable with Vector.lt, like the batch path. *)
  let dim = Stream.dimension stream in
  Array.map (fun v -> Stream.pad v dim) stamps

let precedes u v =
  let d = max (Vector.size u) (Vector.size v) in
  Vector.lt (Stream.pad u d) (Stream.pad v d)

let concurrent u v =
  let d = max (Vector.size u) (Vector.size v) in
  Vector.concurrent (Stream.pad u d) (Stream.pad v d)
