(* The benchmark harness.

   Running `dune exec bench/main.exe` regenerates the paper-reproduction
   "evaluation" in two parts:

   1. the experiment tables E1..E10 (one per paper claim/figure family;
      these are the rows recorded in EXPERIMENTS.md), and
   2. bechamel timing benchmarks — one group per cost claim: the Figure 7
      decomposition algorithm, online stamping throughput (ours vs. the
      Fidge-Mattern, Singhal-Kshemkalyani and Lamport baselines), the
      offline Dilworth-realizer pipeline, O(d) vs. O(N) precedence tests
      vs. the O(M) direct-dependency search, the brute-force oracle, and
      the packet-level protocol ablation. *)

open Bechamel
open Toolkit
module Rng = Synts_util.Rng
module Graph = Synts_graph.Graph
module Topology = Synts_graph.Topology
module Vertex_cover = Synts_graph.Vertex_cover
module Decomposition = Synts_graph.Decomposition
module Trace = Synts_sync.Trace
module Message_poset = Synts_sync.Message_poset
module Dilworth = Synts_poset.Dilworth
module Realizer = Synts_poset.Realizer
module Vector = Synts_clock.Vector
module Fm_sync = Synts_clock.Fm_sync
module Lamport = Synts_clock.Lamport
module Plausible = Synts_clock.Plausible
module Direct_dependency = Synts_clock.Direct_dependency
module Singhal_kshemkalyani = Synts_clock.Singhal_kshemkalyani
module Online = Synts_core.Online
module Offline = Synts_core.Offline
module Workload = Synts_workload.Workload
module Oracle = Synts_check.Oracle
module Experiments = Synts_experiments.Experiments
module Telemetry = Synts_telemetry.Telemetry

let seed = 42

(* ---------- Part 1: experiment tables ---------- *)

let print_tables () =
  Format.printf "==================================================@.";
  Format.printf " Part 1: experiment tables (seed %d)@." seed;
  Format.printf "==================================================@.@.";
  List.iter
    (fun t -> Format.printf "%a@." Experiments.pp_table t)
    (Experiments.all ~seed)

(* ---------- Part 2: timing benchmarks ---------- *)

let bench_topologies =
  [
    ("star:64", Topology.star 64);
    ("cs:4x60", Topology.client_server ~servers:4 ~clients:60);
    ("tree:64", Topology.random_tree (Rng.create seed) 64);
    ("complete:32", Topology.complete 32);
  ]

let trace_of g messages =
  Workload.random (Rng.create (seed + 1)) ~topology:g ~messages ()

let decomposition_tests =
  let tests =
    List.concat_map
      (fun (name, g) ->
        [
          Test.make
            ~name:(Printf.sprintf "paper/%s" name)
            (Staged.stage (fun () -> ignore (Decomposition.paper g)));
          Test.make
            ~name:(Printf.sprintf "sequential/%s" name)
            (Staged.stage (fun () -> ignore (Decomposition.sequential g)));
          Test.make
            ~name:(Printf.sprintf "vertex-cover/%s" name)
            (Staged.stage (fun () ->
                 ignore
                   (Decomposition.of_vertex_cover g (Vertex_cover.two_approx g))));
        ])
      bench_topologies
  in
  Test.make_grouped ~name:"decomposition" tests

(* B2: whole-trace stamping throughput (2000 messages). *)
let stamping_tests =
  let tests =
    List.concat_map
      (fun (name, g) ->
        let d = Decomposition.best g in
        let trace = trace_of g 2000 in
        [
          Test.make
            ~name:(Printf.sprintf "ours-d%d/%s" (Decomposition.size d) name)
            (Staged.stage (fun () -> ignore (Online.timestamp_trace d trace)));
          Test.make
            ~name:(Printf.sprintf "fm-N%d/%s" (Graph.n g) name)
            (Staged.stage (fun () -> ignore (Fm_sync.timestamp_trace trace)));
          Test.make
            ~name:(Printf.sprintf "sk/%s" name)
            (Staged.stage (fun () ->
                 ignore (Singhal_kshemkalyani.simulate trace)));
          Test.make
            ~name:(Printf.sprintf "lamport/%s" name)
            (Staged.stage (fun () -> ignore (Lamport.timestamp_trace trace)));
        ])
      bench_topologies
  in
  Test.make_grouped ~name:"stamping-2000msg" tests

(* B3: the offline pipeline on a 300-message trace. *)
let offline_tests =
  let g = Topology.gnp (Rng.create seed) 16 0.3 in
  let trace = trace_of g 300 in
  let poset = Message_poset.of_trace trace in
  Test.make_grouped ~name:"offline-300msg"
    [
      Test.make ~name:"message-poset"
        (Staged.stage (fun () -> ignore (Message_poset.of_trace trace)));
      Test.make ~name:"width"
        (Staged.stage (fun () -> ignore (Dilworth.width poset)));
      Test.make ~name:"realizer"
        (Staged.stage (fun () -> ignore (Realizer.dilworth poset)));
      Test.make ~name:"full-offline"
        (Staged.stage (fun () -> ignore (Offline.timestamp_trace trace)));
    ]

(* B4: a single precedence test: O(d) vs. O(N) vs. O(M) search. *)
let precedence_tests =
  let small = (Array.init 4 Fun.id, Array.init 4 (fun i -> i + 1)) in
  let big = (Array.init 128 Fun.id, Array.init 128 (fun i -> i + 1)) in
  let g = Topology.client_server ~servers:4 ~clients:124 in
  let trace = trace_of g 2000 in
  let log = Direct_dependency.of_trace trace in
  Test.make_grouped ~name:"precedence-test"
    [
      Test.make ~name:"ours-d4"
        (Staged.stage (fun () ->
             let u, v = small in
             ignore (Vector.lt u v)));
      Test.make ~name:"fm-N128"
        (Staged.stage (fun () ->
             let u, v = big in
             ignore (Vector.lt u v)));
      Test.make ~name:"direct-dep-search-M2000"
        (Staged.stage (fun () -> ignore (Direct_dependency.precedes log 3 1990)));
    ]

(* B5: the quadratic/cubic oracle, to justify using it only as a test
   oracle. *)
let oracle_tests =
  let g = Topology.gnp (Rng.create seed) 12 0.4 in
  let trace = trace_of g 400 in
  Test.make_grouped ~name:"oracle-400msg"
    [
      Test.make ~name:"bitset-closure"
        (Staged.stage (fun () -> ignore (Oracle.message_poset trace)));
    ]

(* B6 (ablation): the packet-faithful protocol vs. the collapsed sweep. *)
let protocol_tests =
  let g = Topology.client_server ~servers:4 ~clients:28 in
  let d = Decomposition.best g in
  let trace = trace_of g 2000 in
  Test.make_grouped ~name:"protocol-ablation"
    [
      Test.make ~name:"collapsed-sweep"
        (Staged.stage (fun () -> ignore (Online.timestamp_trace d trace)));
      Test.make ~name:"explicit-msg-ack"
        (Staged.stage (fun () ->
             ignore (Online.timestamp_trace_protocol d trace)));
    ]

(* B7 (ablation): plausible clocks cost the same as ours at equal size but
   give up exactness; measure stamping at r = d. *)
let plausible_tests =
  let g = Topology.client_server ~servers:4 ~clients:60 in
  let trace = trace_of g 2000 in
  Test.make_grouped ~name:"plausible-ablation"
    [
      Test.make ~name:"plausible-r4"
        (Staged.stage (fun () -> ignore (Plausible.timestamp_trace ~r:4 trace)));
      Test.make ~name:"plausible-r64"
        (Staged.stage (fun () ->
             ignore (Plausible.timestamp_trace ~r:64 trace)));
    ]

(* B8 (extension): adaptive stamping vs. full-knowledge stamping. *)
let adaptive_tests =
  let g = Topology.client_server ~servers:4 ~clients:60 in
  let d = Decomposition.best g in
  let trace = trace_of g 2000 in
  let adaptive_stamp () =
    let s = Synts_core.Adaptive_stamper.create (Graph.n g) in
    Array.iter
      (fun (m : Trace.message) ->
        ignore
          (Synts_core.Adaptive_stamper.stamp s ~src:m.Trace.src
             ~dst:m.Trace.dst))
      (Trace.messages trace)
  in
  Test.make_grouped ~name:"adaptive-ablation"
    [
      Test.make ~name:"static-decomposition"
        (Staged.stage (fun () -> ignore (Online.timestamp_trace d trace)));
      Test.make ~name:"adaptive-growth" (Staged.stage adaptive_stamp);
    ]

(* B9 (extension): streaming internal-event stamps. *)
let stream_tests =
  let g = Topology.star 16 in
  let d = Decomposition.best g in
  let trace =
    Workload.random
      (Rng.create (seed + 2))
      ~topology:g ~messages:1000 ~internal_prob:0.5 ()
  in
  let message_ts = Online.timestamp_trace d trace in
  let streaming () =
    let s =
      Synts_core.Event_stream.create ~dimension:(Decomposition.size d)
        ~n:(Graph.n g)
    in
    let mid = ref 0 in
    let last = Array.make (Graph.n g) [||] in
    let record proc ts =
      ignore
        (Synts_core.Event_stream.record_message s ~proc ~prev:last.(proc) ts);
      last.(proc) <- ts
    in
    List.iter
      (fun step ->
        match step with
        | Trace.Local p ->
            ignore (Synts_core.Event_stream.record_internal s ~proc:p)
        | Trace.Send (src, dst) ->
            let ts = message_ts.(!mid) in
            incr mid;
            record src ts;
            record dst ts)
      (Trace.steps trace);
    ignore (Synts_core.Event_stream.finish s ~prev:(Array.get last))
  in
  Test.make_grouped ~name:"internal-events"
    [
      Test.make ~name:"batch"
        (Staged.stage (fun () ->
             ignore (Synts_core.Internal_events.of_trace_with message_ts trace)));
      Test.make ~name:"streaming" (Staged.stage streaming);
    ]

(* B11: scaling series — stamping cost per 1000 messages as N grows, ours
   (client-server topology, d = 4 constant) vs. Fidge–Mattern (d = N).
   The crossover shape is the paper's practical argument. *)
let scaling_tests =
  let sizes = [ 8; 16; 32; 64; 128 ] in
  let setup n =
    let g = Topology.client_server ~servers:4 ~clients:(n - 4) in
    (g, Decomposition.best g, trace_of g 1000)
  in
  let prepared = List.map (fun n -> (n, setup n)) sizes in
  let ours =
    Test.make_indexed ~name:"ours-cs4" ~args:sizes (fun n ->
        let _, d, trace = List.assoc n prepared in
        Staged.stage (fun () -> ignore (Online.timestamp_trace d trace)))
  in
  let fm =
    Test.make_indexed ~name:"fm-cs4" ~args:sizes (fun n ->
        let _, _, trace = List.assoc n prepared in
        Staged.stage (fun () -> ignore (Fm_sync.timestamp_trace trace)))
  in
  Test.make_grouped ~name:"scaling-1000msg" [ ours; fm ]

(* B10: the full protocol stack — rendezvous over the simulated network,
   600 messages, with and without timestamping. *)
let network_tests =
  let g = Topology.client_server ~servers:2 ~clients:10 in
  let d = Decomposition.best g in
  let trace = trace_of g 600 in
  let scripts = Synts_net.Script.of_trace trace in
  Test.make_grouped ~name:"network-600msg"
    [
      Test.make ~name:"rendezvous-plain"
        (Staged.stage (fun () -> ignore (Synts_net.Rendezvous.run scripts)));
      Test.make ~name:"rendezvous-timestamped"
        (Staged.stage (fun () ->
             ignore (Synts_net.Rendezvous.run ~decomposition:d scripts)));
    ]

(* B11: fault-injection overhead — the same timestamped 600-message run
   bare, with an armed-but-empty injector (pays checksum framing and
   retransmit timers), and under a busy plan (duplication, corruption
   with rejection + retransmission, delay spikes, one crash-recover).
   The injector is created inside the thunk so every iteration replays
   the identical fault schedule from a fresh tally. *)
let fault_tests =
  let g = Topology.client_server ~servers:2 ~clients:10 in
  let d = Decomposition.best g in
  let trace = trace_of g 600 in
  let scripts = Synts_net.Script.of_trace trace in
  let busy =
    match
      Synts_fault.Plan.of_string "recover:1@50+40; dup:0.1; corrupt:0.1; spike:0.1*4"
    with
    | Ok p -> p
    | Error e -> failwith e
  in
  Test.make_grouped ~name:"fault-overhead"
    [
      Test.make ~name:"no-faults"
        (Staged.stage (fun () ->
             ignore (Synts_net.Rendezvous.run ~decomposition:d scripts)));
      Test.make ~name:"empty-plan"
        (Staged.stage (fun () ->
             ignore
               (Synts_net.Rendezvous.run ~decomposition:d
                  ~faults:(Synts_fault.Injector.create [])
                  scripts)));
      Test.make ~name:"busy-plan"
        (Staged.stage (fun () ->
             ignore
               (Synts_net.Rendezvous.run ~decomposition:d
                  ~faults:(Synts_fault.Injector.create busy)
                  scripts)));
    ]

(* B12: telemetry overhead — the instrumented online stamper with the
   global switch on vs. off. Acceptance: within 10%. The hot loop only
   pays integer counter adds, so the two rows should be near-identical. *)
let telemetry_tests =
  let g = Topology.client_server ~servers:4 ~clients:60 in
  let d = Decomposition.best g in
  let trace = trace_of g 2000 in
  Test.make_grouped ~name:"telemetry-overhead"
    [
      Test.make ~name:"online-instrumented"
        (Staged.stage (fun () ->
             Telemetry.set_enabled true;
             ignore (Online.timestamp_trace d trace)));
      Test.make ~name:"online-uninstrumented"
        (Staged.stage (fun () ->
             Telemetry.set_enabled false;
             ignore (Online.timestamp_trace d trace)));
    ]

(* B13: every clock scheme through the one unified Stamper driver —
   apples-to-apples cost of the whole send/receive protocol including
   wire encoding, per 1000 messages. *)
let stamper_tests =
  let g = Topology.client_server ~servers:4 ~clients:28 in
  let trace = trace_of g 1000 in
  let tests =
    List.map
      (fun ((module M : Synts_clock.Stamper.S) as s) ->
        Test.make ~name:M.name
          (Staged.stage (fun () -> ignore (Synts_clock.Stamper.run s trace))))
      (Synts_core.Stampers.all g)
  in
  Test.make_grouped ~name:"stamper-drivers-1000msg" tests

(* B14: the slab kernels with buffers preallocated and reused across
   runs — the minor-words column is the zero-allocation claim: with a
   warm store the whole 2000-message sweep must allocate nothing per
   message (the *-reuse rows read ~0 w/run; the reference rows show what
   the seed implementations paid). *)
let slab_kernel_tests =
  let module Stamp_store = Synts_clock.Stamp_store in
  let g = Topology.client_server ~servers:4 ~clients:28 in
  let trace = trace_of g 2000 in
  let d = Decomposition.best g in
  let mcount = Trace.message_count trace in
  let ours_store = Stamp_store.create ~capacity:(mcount + 33) (Decomposition.size d) in
  let ours_rows = Array.make mcount (-1) in
  let fm_store = Stamp_store.create ~capacity:(mcount + 2) (Graph.n g) in
  let fm_rows = Array.make mcount (-1) in
  Test.make_grouped ~name:"slab-kernel-2000msg"
    [
      Test.make ~name:"ours-store-reuse"
        (Staged.stage (fun () ->
             ignore
               (Online.timestamp_store ~store:ours_store ~rows:ours_rows d
                  trace)));
      Test.make ~name:"ours-reference"
        (Staged.stage (fun () ->
             ignore (Online.timestamp_trace_reference d trace)));
      Test.make ~name:"fm-store-reuse"
        (Staged.stage (fun () ->
             ignore (Fm_sync.timestamp_store ~store:fm_store ~rows:fm_rows trace)));
      Test.make ~name:"fm-reference"
        (Staged.stage (fun () ->
             ignore (Fm_sync.timestamp_trace_reference trace)));
      Test.make ~name:"sk-slab"
        (Staged.stage (fun () ->
             ignore (Singhal_kshemkalyani.simulate trace)));
      Test.make ~name:"sk-reference"
        (Staged.stage (fun () ->
             ignore (Singhal_kshemkalyani.simulate_reference trace)));
    ]

(* B15: Hopcroft–Karp fed by comparability bit-rows vs. the seed's
   materialised edge list, on the same 300-message poset as B3. *)
let dilworth_pipeline_tests =
  let g = Topology.gnp (Rng.create seed) 16 0.3 in
  let trace = trace_of g 300 in
  let poset = Message_poset.of_trace trace in
  Test.make_grouped ~name:"dilworth-pipeline-300msg"
    [
      Test.make ~name:"chains-bitset"
        (Staged.stage (fun () -> ignore (Dilworth.min_chain_partition poset)));
      Test.make ~name:"chains-edge-list"
        (Staged.stage (fun () ->
             ignore (Dilworth.min_chain_partition_reference poset)));
      Test.make ~name:"antichain-bitset"
        (Staged.stage (fun () -> ignore (Dilworth.max_antichain poset)));
    ]

(* B16: trace-recording overhead — the span-recorder call sites in the
   session and rendezvous layers with the global switch on vs. off.
   Recording off must cost one boolean test per site, so the off rows
   must sit within bench-diff noise of the pre-tracing baselines; the on
   rows price a ring store per span. *)
let trace_overhead_tests =
  let module Tracer = Synts_trace.Tracer in
  (* Session observes also maintain the frontier and incremental width
     (quadratic in the feed length), so the feed is kept short enough for
     the per-span ring-store delta to be measurable above that floor. *)
  let g = Topology.client_server ~servers:3 ~clients:20 in
  let d = Decomposition.best g in
  let trace = trace_of g 500 in
  let feed () =
    let session = Synts_session.Session.of_decomposition d in
    Array.iter
      (fun (m : Trace.message) ->
        ignore
          (Synts_session.Session.observe session
             (Synts_session.Session.Message
                { src = m.Trace.src; dst = m.Trace.dst })))
      (Trace.messages trace)
  in
  let gn = Topology.client_server ~servers:2 ~clients:10 in
  let dn = Decomposition.best gn in
  let scripts = Synts_net.Script.of_trace (trace_of gn 600) in
  let rendezvous () = ignore (Synts_net.Rendezvous.run ~decomposition:dn scripts) in
  let traced f () =
    Tracer.set_enabled true;
    Tracer.clear ();
    f ();
    Tracer.set_enabled false
  in
  Test.make_grouped ~name:"trace-overhead"
    [
      Test.make ~name:"session-feed-recording" (Staged.stage (traced feed));
      Test.make ~name:"session-feed-off" (Staged.stage feed);
      Test.make ~name:"rendezvous-recording" (Staged.stage (traced rendezvous));
      Test.make ~name:"rendezvous-off" (Staged.stage rendezvous);
    ]

(* B17: the serve-path engine — an ordered 1024-event workload on
   cs:4x28 (d = 4) in 32-event batches, and on gnp:64:0.3 (d near
   N - 2, the serve benchmark's bulk-gnp topology) in 64-event
   batches. observe-batch builds a vector per stamp (the in-process sink
   API); row-path is what the daemon runs per Observe: the sweep, which
   writes the Outcomes reply as it stamps, and the reply's checksum
   frame. The engines persist across iterations; [finish] at the end of
   each feed keeps the internal-event stream and resolved queue from
   growing run over run. *)
let serve_engine_tests =
  let module Ingest = Synts_ingest.Ingest in
  let module Engine = Synts_server.Engine in
  let module Wire = Synts_clock.Wire in
  let rows ~suffix g ~batch =
    let d = Decomposition.best g in
    let events =
      Array.of_list
        (List.map Ingest.event_of_step (Trace.steps (trace_of g 1024)))
    in
    let batches =
      let n = Array.length events in
      let rec cut i acc =
        if i >= n then List.rev acc
        else
          let len = min batch (n - i) in
          cut (i + len) (Array.sub events i len :: acc)
      in
      cut 0 []
    in
    let observe_batch =
      let eng = Engine.create d in
      fun () ->
        List.iter (fun b -> ignore (Engine.observe_batch eng b)) batches;
        ignore (Engine.finish eng)
    in
    let row_path =
      let eng = Engine.create d in
      let body = Wire.writer 4096 and frame = Wire.writer 4096 in
      fun () ->
        List.iter
          (fun b ->
            Wire.reset body;
            Engine.sweep eng body b;
            Wire.reset frame;
            Wire.put_frame frame body)
          batches;
        ignore (Engine.finish eng)
    in
    [
      Test.make ~name:("observe-batch" ^ suffix) (Staged.stage observe_batch);
      Test.make ~name:("row-path" ^ suffix) (Staged.stage row_path);
    ]
  in
  Test.make_grouped ~name:"serve-engine-1024ev"
    (rows ~suffix:"" (Topology.client_server ~servers:4 ~clients:28) ~batch:32
    @ rows ~suffix:"-gnp:64:0.3"
        (Topology.gnp (Rng.create seed) 64 0.3)
        ~batch:64)

(* B18: the model checker's exploration engine — the default N=3
   scenario swept exhaustively with and without DPOR (the dpor row must
   stay well under the naive row: the 6x state reduction is the claim),
   plus a crash/recover exploration pricing the fault-injection branch
   of the transition relation. *)
let model_explore_tests =
  let module Protocol = Synts_model.Protocol in
  let module Checker = Synts_model.Checker in
  let clean = Protocol.compile_exn Protocol.default in
  let faulty = Protocol.compile_exn { Protocol.default with faults = 1 } in
  let explore ~dpor model () = ignore (Checker.check ~dpor model) in
  Test.make_grouped ~name:"model-explore"
    [
      Test.make ~name:"n3e6-dpor" (Staged.stage (explore ~dpor:true clean));
      Test.make ~name:"n3e6-naive" (Staged.stage (explore ~dpor:false clean));
      Test.make ~name:"n3e6-faults1-dpor"
        (Staged.stage (explore ~dpor:true faulty));
    ]

(* The input [synts serve --offline] sees under servebench's offline-cs
   workload, fed to the sink in process: cs:8x248, window 1024,
   32-event batches in which each event is internal with probability
   0.1 and otherwise a message on a uniform channel and direction. One
   run is what the daemon does between two drains: 64
   [Offline_sink.observe_batch] calls, then [Offline_sink.drain]. The
   sink is built, and fed 2^18 events, before the row is timed, so runs
   see a full window and a settled chain count, and then cycle through
   the same batches. *)
let offline_sink_batches () =
  let module Ingest = Synts_ingest.Ingest in
  let module Offline_sink = Synts_ingest.Offline_sink in
  let g = Topology.client_server ~servers:8 ~clients:248 in
  let n = Graph.n g in
  let edges = Array.of_list (Graph.edges g) in
  let rng = Rng.create seed in
  let event () =
    if Rng.chance rng 0.1 then Ingest.Internal { proc = Rng.int rng n }
    else
      let u, v = Rng.pick_array rng edges in
      if Rng.bool rng then Ingest.Message { src = u; dst = v }
      else Ingest.Message { src = v; dst = u }
  in
  let batches = Array.init 8192 (fun _ -> Array.init 32 (fun _ -> event ())) in
  let sink = Offline_sink.create ~window:1024 ~n () in
  let next = ref 0 in
  let run () =
    for _ = 1 to 64 do
      ignore (Offline_sink.observe_batch sink batches.(!next));
      next := (!next + 1) mod 8192
    done;
    ignore (Offline_sink.drain sink)
  in
  for _ = 1 to 128 do
    run ()
  done;
  run

(* B19: the streaming offline pipeline vs the batch Figure 9 path. The
   batch row is only feasible at small message counts (its closure bits
   and realizer are O(M²)); the stream rows scale the same one-pass
   pipeline to 12k and 100k messages with memory pinned by the live
   window — the minor-words column is the bounded-memory claim, the
   ns column the throughput crossover recorded in EXPERIMENTS.md.
   Traces are generated lazily so the 100k workload is only built when
   this group is measured; the sink row's input and warm-up
   ([offline_sink_batches]) are built just before it is timed. *)
let offline_stream_tests =
  let g = Topology.client_server ~servers:4 ~clients:60 in
  let small = lazy (trace_of g 1200) in
  let mid = lazy (trace_of g 12_000) in
  let big = lazy (trace_of g 100_000) in
  let batch t () = ignore (Offline.timestamp_trace (Lazy.force t)) in
  let stream t () = ignore (Offline.stream_trace (Lazy.force t)) in
  Test.make_grouped ~name:"offline-stream"
    [
      Test.make ~name:"batch-1200" (Staged.stage (batch small));
      Test.make ~name:"stream-1200" (Staged.stage (stream small));
      Test.make ~name:"stream-12k" (Staged.stage (stream mid));
      Test.make ~name:"stream-100k" (Staged.stage (stream big));
      Test.make_with_resource ~name:"sink-cs:8x248-64x32ev" Test.uniq
        ~allocate:offline_sink_batches ~free:ignore
        (Staged.stage (fun run -> run ()));
    ]

(* B20: observability overhead — the daemon's request path (per-batch
   stamp-latency histogram, per-connection counters, dedup tallies) with
   the telemetry switch off, on, and on while an admin scraper polls
   Stats + Metrics between passes. The acceptance bar from the
   observability PR is <= 5% between the instrumented/idle rows and the
   uninstrumented row; `synts bench-diff` guards the committed baseline. *)
let obs_overhead_tests =
  let module Ingest = Synts_ingest.Ingest in
  let module Service = Synts_server.Service in
  let module Protocol = Synts_server.Protocol in
  let module Admin = Synts_obs.Admin in
  let module Admin_service = Synts_server.Admin_service in
  let g = Topology.client_server ~servers:4 ~clients:28 in
  let d = Decomposition.best g in
  let events =
    Array.of_list
      (List.map Ingest.event_of_step (Trace.steps (trace_of g 1024)))
  in
  let batches =
    let n = Array.length events and batch = 32 in
    let rec cut i acc =
      if i >= n then List.rev acc
      else
        let len = min batch (n - i) in
        cut (i + len) (Array.sub events i len :: acc)
    in
    cut 0 []
  in
  (* One long-lived service per row (created lazily so its registry and
     connection only exist while this group is measured); the sequence
     number keeps increasing across iterations, as a real client's
     would. *)
  let feed ~telemetry ~scrape =
    let state =
      lazy
        (let s = Service.create d in
         at_exit (fun () -> Service.stop s);
         (s, Service.attach s, ref 0))
    in
    fun () ->
      let s, conn, seq = Lazy.force state in
      Telemetry.set_enabled telemetry;
      List.iter
        (fun b ->
          ignore
            (Service.handle s conn (Protocol.Observe { seq = !seq; events = b }));
          incr seq)
        batches;
      if scrape then begin
        ignore (Admin_service.handle s Admin.Stats);
        ignore (Admin_service.handle s (Admin.Metrics Admin.Prom))
      end;
      Telemetry.set_enabled true
  in
  Test.make_grouped ~name:"obs-overhead"
    [
      Test.make ~name:"service-uninstrumented"
        (Staged.stage (feed ~telemetry:false ~scrape:false));
      Test.make ~name:"service-instrumented"
        (Staged.stage (feed ~telemetry:true ~scrape:false));
      Test.make ~name:"service-admin-scrape"
        (Staged.stage (feed ~telemetry:true ~scrape:true));
    ]

(* B22: churn overhead — the epoch-tagged churn harness on a static
   membership vs. the same run with three membership deltas (each one a
   reshard: incremental repair, remap append, per-process view
   catch-up, stale-frame translation on receipt), plus the raw
   membership maintenance cost alone (build + 4 deltas on a 32-ring,
   exercising the incremental-repair path without the protocol).
   Exactness checking is off in the harness rows so the delta is pure
   protocol + epoch machinery. *)
let churn_tests =
  let g = Topology.ring 8 in
  let plan =
    match
      Synts_fault.Plan.of_string "join:8:8-0,8-4@20; leave:3@45; flap:5@70+10"
    with
    | Ok p -> p
    | Error e -> failwith e
  in
  let harness ?faults () =
    match
      Synts_fault.Churn.run ~seed:7 ?faults ~check:false ~graph:g
        ~messages:200 ()
    with
    | Ok _ -> ()
    | Error e -> failwith e
  in
  let module Membership = Synts_graph.Membership in
  let deltas =
    [
      Membership.Join { proc = 32; edges = [ (32, 0); (32, 16) ] };
      Membership.Leave 5;
      Membership.Add_edge (2, 7);
      Membership.Remove_edge (10, 11);
    ]
  in
  Test.make_grouped ~name:"churn-overhead"
    [
      Test.make ~name:"static-200msg" (Staged.stage (fun () -> harness ()));
      Test.make ~name:"churn-200msg"
        (Staged.stage (fun () ->
             harness ~faults:(Synts_fault.Injector.create ~seed:7 plan) ()));
      Test.make ~name:"membership-4-deltas"
        (Staged.stage (fun () ->
             let m = Membership.of_graph (Topology.ring 32) in
             List.iter
               (fun d ->
                 match Membership.apply m d with
                 | Ok _ -> ()
                 | Error e -> failwith e)
               deltas));
    ]

let all_groups =
  [
    ("decomposition", decomposition_tests);
    ("stamping-2000msg", stamping_tests);
    ("offline-300msg", offline_tests);
    ("precedence-test", precedence_tests);
    ("oracle-400msg", oracle_tests);
    ("protocol-ablation", protocol_tests);
    ("plausible-ablation", plausible_tests);
    ("adaptive-ablation", adaptive_tests);
    ("internal-events", stream_tests);
    ("network-600msg", network_tests);
    ("fault-overhead", fault_tests);
    ("churn-overhead", churn_tests);
    ("scaling-1000msg", scaling_tests);
    ("telemetry-overhead", telemetry_tests);
    ("stamper-drivers-1000msg", stamper_tests);
    ("slab-kernel-2000msg", slab_kernel_tests);
    ("dilworth-pipeline-300msg", dilworth_pipeline_tests);
    ("trace-overhead", trace_overhead_tests);
    ("model-explore", model_explore_tests);
    ("serve-engine-1024ev", serve_engine_tests);
    ("offline-stream", offline_stream_tests);
    ("obs-overhead", obs_overhead_tests);
  ]

(* ---------- measurement + reporting ---------- *)

module Bench_io = Synts_bench_io.Bench_io

let ols =
  Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]

let estimate_of results name =
  match Hashtbl.find_opt results name with
  | None -> nan
  | Some r -> (
      match Analyze.OLS.estimates r with Some [ e ] -> e | _ -> nan)

let pretty_ns estimate =
  if Float.is_nan estimate then "     n/a   "
  else if estimate > 1_000_000.0 then
    Printf.sprintf "%8.3f ms" (estimate /. 1_000_000.0)
  else if estimate > 1_000.0 then
    Printf.sprintf "%8.3f us" (estimate /. 1_000.0)
  else Printf.sprintf "%8.1f ns" estimate

let pretty_words estimate =
  if Float.is_nan estimate then "n/a"
  else Printf.sprintf "%10.1f w" estimate

let strip_group_prefix gname name =
  let prefix = gname ^ "/" in
  let k = String.length prefix in
  if String.length name >= k && String.sub name 0 k = prefix then
    String.sub name k (String.length name - k)
  else name

(* Measure one bechamel group against the monotonic clock and the
   minor-allocation counter; returns (test, metrics) rows in name order. *)
let measure_group cfg (gname, group) =
  let raw =
    Benchmark.all cfg
      [ Instance.monotonic_clock; Instance.minor_allocated ]
      group
  in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  let allocs = Analyze.all ols Instance.minor_allocated raw in
  let names =
    Hashtbl.fold (fun name _ acc -> name :: acc) times [] |> List.sort compare
  in
  List.map
    (fun name ->
      let ns = estimate_of times name in
      let words = estimate_of allocs name in
      Format.printf "  %-55s %s/run %s/run@." name (pretty_ns ns)
        (pretty_words words);
      let sane x = if Float.is_finite x then x else 0.0 in
      ( strip_group_prefix gname name,
        { Bench_io.ns_per_run = sane ns; minor_words_per_run = sane words } ))
    names

let run_benchmarks ~quick () =
  Format.printf "==================================================@.";
  Format.printf
    " Part 2: timing benchmarks (bechamel%s, monotonic clock + minor words)@."
    (if quick then ", quick smoke tier" else "");
  Format.printf "==================================================@.@.";
  let cfg =
    if quick then Benchmark.cfg ~limit:150 ~quota:(Time.second 0.05) ()
    else Benchmark.cfg ~limit:1500 ~quota:(Time.second 0.4) ()
  in
  List.map
    (fun (gname, group) ->
      let rows = measure_group cfg (gname, group) in
      Format.printf "@.";
      (gname, rows))
    all_groups

(* ---------- entry point ---------- *)

let usage () =
  prerr_endline
    "usage: bench/main.exe [--quick] [--json FILE] [--no-tables]\n\n\
    \  --quick      smoke tier: tiny measurement quota, skips the \n\
    \               experiment tables (used by the @bench-smoke alias)\n\
    \  --json FILE  write per-test ns/run and minor-words/run estimates\n\
    \               to FILE (synts-bench/1 schema; see synts bench-diff)\n\
    \  --no-tables  skip Part 1 (the experiment tables)";
  exit 2

type config = { quick : bool; json_path : string option; tables : bool }

let parse_args () =
  let rec go cfg = function
    | [] -> cfg
    | "--quick" :: rest -> go { cfg with quick = true; tables = false } rest
    | "--json" :: path :: rest -> go { cfg with json_path = Some path } rest
    | "--no-tables" :: rest -> go { cfg with tables = false } rest
    | _ -> usage ()
  in
  go
    { quick = false; json_path = None; tables = true }
    (List.tl (Array.to_list Sys.argv))

let () =
  let cfg = parse_args () in
  if cfg.tables then print_tables ();
  let groups = run_benchmarks ~quick:cfg.quick () in
  (match cfg.json_path with
  | None -> ()
  | Some path ->
      Bench_io.save path
        {
          Bench_io.mode = (if cfg.quick then "quick" else "full");
          seed;
          groups;
        };
      Format.printf "wrote %s@." path);
  Telemetry.set_enabled true;
  Format.printf "done.@."
