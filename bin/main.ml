(* The synts command-line interface.

   synts figures [ID ...]        reproduce the paper's figures
   synts experiments [ID ...]    run the experiment suite (EXPERIMENTS.md rows)
   synts decompose TOPO          edge-decompose a topology
   synts simulate TOPO           run a workload and print timestamps
   synts verify TOPO             validate all schemes against the oracle *)

module Rng = Synts_util.Rng
module Graph = Synts_graph.Graph
module Topology = Synts_graph.Topology
module Vertex_cover = Synts_graph.Vertex_cover
module Decomposition = Synts_graph.Decomposition
module Trace = Synts_sync.Trace
module Diagram = Synts_sync.Diagram
module Message_poset = Synts_sync.Message_poset
module Dilworth = Synts_poset.Dilworth
module Vector = Synts_clock.Vector
module Online = Synts_core.Online
module Offline = Synts_core.Offline
module Internal_events = Synts_core.Internal_events
module Workload = Synts_workload.Workload
module Validate = Synts_check.Validate
module Experiments = Synts_experiments.Experiments
module Telemetry = Synts_telemetry.Telemetry
module Lint = Synts_lint.Lint
module Finding = Synts_lint.Finding
module Epoch_lint = Synts_lint.Epoch_lint
module Fault_plan = Synts_fault.Plan
module Injector = Synts_fault.Injector
module Churn = Synts_fault.Churn
module Membership = Synts_graph.Membership
module Tracer = Synts_trace.Tracer
module Tracelog = Synts_trace.Tracelog
module Chrome = Synts_trace.Chrome
module Trace_report = Synts_trace.Report

open Cmdliner

(* The flags every subcommand shares (--seed, --metrics, --format,
   topology arguments) live in one place: Synts_cli.Cli.Flags. *)
include Synts_cli.Cli.Flags

(* ---------- trace output ---------- *)

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a causal trace of the run and write it to FILE: Chrome \
           trace-event JSON (Perfetto-loadable, with sync_precedes flow \
           arrows) when FILE ends in .json, synts-tracelog JSONL \
           otherwise. Inspect with $(b,synts trace report).")

let start_tracing () =
  Tracer.set_enabled true;
  Tracer.clear ()

let warn_dropped dropped =
  if dropped > 0 then
    Printf.eprintf
      "synts: %d trace spans dropped (ring buffer overflow); the file holds \
       only a suffix of the run\n"
      dropped

let write_trace path =
  let spans = Tracer.to_list () in
  let dropped = Tracer.dropped Tracer.default in
  warn_dropped dropped;
  if Filename.check_suffix path ".json" then Chrome.save path ~dropped spans
  else Tracelog.save path ~dropped spans

let topology_t =
  Arg.(
    required
    & pos 0 (some topology_conv) None
    & info [] ~docv:"TOPOLOGY"
        ~doc:
          "Topology spec: star:N, triangle, complete:N, path:N, ring:N, \
           grid:RxC, cs:SxC (client-server), triangles:T, btree:AxD, \
           tree:N, gnp:N:P, connected:N:P, hypercube:D, fig4, fig2b — or \
           @FILE for a saved adjacency list.")

(* ---------- figures ---------- *)

let figures_cmd =
  let ids_t =
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Figure ids (f1 f2 f3 f4 f6 f8 f9); all when omitted.")
  in
  let run ids =
    let ids = if ids = [] then Experiments.figure_ids else ids in
    let rc =
      List.fold_left
        (fun rc id ->
          match Experiments.figure id with
          | Ok text ->
              print_string text;
              print_newline ();
              rc
          | Error e ->
              prerr_endline e;
              1)
        0 ids
    in
    exit rc
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Reproduce the paper's figures textually.")
    Term.(const run $ ids_t)

(* ---------- experiments ---------- *)

let experiments_cmd =
  let ids_t =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID" ~doc:"Experiment ids (e1..e10); all when omitted.")
  in
  let run seed ids metrics trace =
    if metrics <> None then begin
      Telemetry.set_enabled true;
      Telemetry.reset ()
    end;
    if trace <> None then start_tracing ();
    let tables = Experiments.all ~seed in
    let wanted =
      if ids = [] then tables
      else
        List.filter
          (fun t ->
            List.mem (String.lowercase_ascii t.Experiments.id) ids
            || List.mem t.Experiments.id ids)
          tables
    in
    if wanted = [] then begin
      prerr_endline "no matching experiments";
      exit 1
    end;
    List.iter
      (fun t -> Format.printf "%a@." Experiments.pp_table t)
      wanted;
    Option.iter dump_metrics metrics;
    Option.iter write_trace trace
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Run the experiment suite and print EXPERIMENTS.md tables.")
    Term.(const run $ seed_t $ ids_t $ metrics_t $ trace_t)

(* ---------- decompose ---------- *)

let decompose_cmd =
  let method_t =
    Arg.(
      value
      & opt (enum [ ("paper", `Paper); ("vc", `Vc); ("sequential", `Sequential);
                    ("exact", `Exact); ("best", `Best) ])
          `Paper
      & info [ "method" ] ~docv:"METHOD"
          ~doc:"paper (Fig. 7), vc (vertex-cover stars), sequential, exact, best.")
  in
  let dot_t =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of text.")
  in
  let run seed spec method_ dot =
    let g = realize_topology seed spec in
    let d =
      match method_ with
      | `Paper -> Some (Decomposition.paper g)
      | `Sequential -> Some (Decomposition.sequential g)
      | `Best -> Some (Decomposition.best g)
      | `Exact -> Decomposition.exact g
      | `Vc -> (
          match Decomposition.of_vertex_cover g (Vertex_cover.two_approx g) with
          | Ok d -> Some d
          | Error e ->
              prerr_endline e;
              exit 1)
    in
    match d with
    | None ->
        prerr_endline "exact search budget exhausted; try a smaller topology";
        exit 1
    | Some d ->
        if dot then print_string (Synts_export.Dot.decomposition g d)
        else begin
          Format.printf "topology %s: N=%d, M=%d@." (topo_to_string spec)
            (Graph.n g) (Graph.m g);
          Format.printf "%a@." (Decomposition.pp ?labels:None) d;
          Format.printf "timestamp size d = %d (Fidge-Mattern would use %d)@."
            (Decomposition.size d) (Graph.n g)
        end
  in
  Cmd.v
    (Cmd.info "decompose" ~doc:"Edge-decompose a communication topology.")
    Term.(const run $ seed_t $ topology_t $ method_t $ dot_t)

(* ---------- simulate ---------- *)

let simulate_cmd =
  let messages_t =
    Arg.(value & opt int 20 & info [ "messages"; "m" ] ~docv:"M" ~doc:"Message count.")
  in
  let internal_t =
    Arg.(
      value & opt float 0.0
      & info [ "internal" ] ~docv:"P" ~doc:"Internal-event probability.")
  in
  let offline_t =
    Arg.(value & flag & info [ "offline" ] ~doc:"Use the offline (Dilworth realizer) algorithm.")
  in
  let diagram_t =
    Arg.(value & flag & info [ "diagram" ] ~doc:"Render the time diagram.")
  in
  let save_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Also write the trace to FILE.")
  in
  let loss_t =
    Arg.(
      value & opt float 0.0
      & info [ "loss" ] ~docv:"P"
          ~doc:
            "Packet-loss probability for the network replay that populates \
             the $(b,--metrics) snapshot (exercises retransmissions).")
  in
  let topo_pos_t =
    Arg.(
      value
      & pos 0 (some topology_conv) None
      & info [] ~docv:"TOPOLOGY"
          ~doc:
            "Topology spec (see $(b,synts decompose --help)); \
             alternatively pass $(b,--topology).")
  in
  let topo_opt_t =
    Arg.(
      value
      & opt (some topology_conv) None
      & info [ "topology" ] ~docv:"TOPOLOGY"
          ~doc:"Topology spec, as a named alternative to the positional \
                argument.")
  in
  let run seed pos_spec opt_spec messages internal offline diagram save metrics
      loss tracefile =
    check_loss loss;
    let spec =
      match (pos_spec, opt_spec) with
      | Some s, None | None, Some s -> s
      | Some _, Some _ ->
          prerr_endline
            "synts simulate: give the topology once (positional or \
             --topology, not both)";
          exit 1
      | None, None ->
          prerr_endline "synts simulate: a TOPOLOGY (or --topology) is required";
          exit 1
    in
    if metrics <> None then begin
      Telemetry.set_enabled true;
      Telemetry.reset ()
    end;
    if tracefile <> None then start_tracing ();
    let g = realize_topology seed spec in
    let trace =
      Workload.random (Rng.create (seed + 1)) ~topology:g ~messages
        ~internal_prob:internal ()
    in
    Option.iter (fun path -> Synts_sync.Trace_io.save path trace) save;
    let d = Decomposition.best g in
    if tracefile <> None then begin
      (* Cover the session layer too: feed the observation stream through
         a monitoring session so the written trace carries session-level
         message spans (stamps, per-observe cell cost) alongside the
         poset/net spans the stamping and replay below record. *)
      let session = Synts_session.Session.of_decomposition d in
      List.iter
        (fun step ->
          ignore
            (Synts_session.Session.observe session
               (match step with
               | Trace.Send (src, dst) ->
                   Synts_session.Session.Message { src; dst }
               | Trace.Local proc -> Synts_session.Session.Internal { proc })))
        (Trace.steps trace);
      ignore (Synts_session.Session.finish_events session)
    end;
    let ts =
      if offline then Offline.timestamp_trace trace
      else Online.timestamp_trace d trace
    in
    if diagram then print_string (Diagram.render_with_timestamps trace ts)
    else
      Array.iter
        (fun (m : Trace.message) ->
          Format.printf "m%-3d P%d->P%d  %s@." (m.Trace.id + 1)
            (m.Trace.src + 1) (m.Trace.dst + 1)
            (Vector.to_string ts.(m.Trace.id)))
        (Trace.messages trace);
    let p = Message_poset.of_trace trace in
    Format.printf
      "@.%d messages, vector size %d, poset width %d, %s algorithm@."
      (Trace.message_count trace)
      (if Array.length ts > 0 then Vector.size ts.(0) else 0)
      (Dilworth.width p)
      (if offline then "offline" else "online");
    if metrics <> None || tracefile <> None then begin
      (* Replay the computation over the simulated network so the metrics
         snapshot and the recorded trace also cover the protocol layer:
         packet counters, retransmissions, transit spans, the
         delivery-latency histogram and per-message piggyback bytes.
         Deterministic from the same seed. *)
      let scripts = Synts_net.Script.of_trace trace in
      ignore (Synts_net.Rendezvous.run ~seed ~loss ~decomposition:d scripts)
    end;
    (match metrics with
    | None -> ()
    | Some fmt ->
        print_newline ();
        dump_metrics fmt);
    Option.iter write_trace tracefile
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Generate a random synchronous computation and timestamp it.")
    Term.(
      const run $ seed_t $ topo_pos_t $ topo_opt_t $ messages_t $ internal_t
      $ offline_t $ diagram_t $ save_t $ metrics_t $ loss_t $ trace_t)

(* ---------- analyze ---------- *)

let analyze_cmd =
  let file_t =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A trace file (see synts simulate --save).")
  in
  let diagram_t =
    Arg.(value & flag & info [ "diagram" ] ~doc:"Render the time diagram.")
  in
  let offline_t =
    Arg.(value & flag & info [ "offline" ] ~doc:"Use the offline algorithm.")
  in
  let orphan_t =
    Arg.(
      value
      & opt (some (pair ~sep:':' int int)) None
      & info [ "orphan" ] ~docv:"PROC:SURVIVES"
          ~doc:
            "Report orphaned messages after process $(b,PROC) crashes \
             keeping its first $(b,SURVIVES) message participations.")
  in
  let run file diagram offline orphan =
    match Synts_sync.Trace_io.load file with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok trace ->
        let topology = Trace.topology trace in
        let d = Decomposition.best topology in
        let ts =
          if offline then Offline.timestamp_trace trace
          else Online.timestamp_trace d trace
        in
        Format.printf
          "%s: %d processes, %d messages, %d internal events, vector size %d@."
          file (Trace.n trace)
          (Trace.message_count trace)
          (Trace.internal_count trace)
          (if Array.length ts > 0 then Vector.size ts.(0) else 0);
        if diagram then print_string (Diagram.render_with_timestamps trace ts);
        let verdict = Validate.message_timestamps trace ts in
        Format.printf "timestamps encode the message order: %s@."
          (if Validate.ok verdict then "yes" else "NO");
        (match orphan with
        | None -> ()
        | Some (proc, survives) ->
            let failure = { Synts_detect.Orphan.proc; survives } in
            let show ids =
              String.concat ", "
                (List.map (fun m -> Printf.sprintf "m%d" (m + 1)) ids)
            in
            Format.printf "crash of P%d keeping %d messages:@." (proc + 1)
              survives;
            Format.printf "  lost     : %s@."
              (show (Synts_detect.Orphan.lost_messages trace failure));
            Format.printf "  orphaned : %s@."
              (show (Synts_detect.Orphan.orphans trace ts failure));
            Format.printf "  rollback : %s@."
              (String.concat ", "
                 (List.map
                    (fun p -> Printf.sprintf "P%d" (p + 1))
                    (Synts_detect.Orphan.rollback_processes trace ts failure))))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Load a saved trace, timestamp it and answer queries.")
    Term.(const run $ file_t $ diagram_t $ offline_t $ orphan_t)

(* ---------- monitor ---------- *)

let monitor_cmd =
  let file_t =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A trace file to feed through a session.")
  in
  let adaptive_t =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:"Pretend the topology is unknown (adaptive stamping).")
  in
  let window_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "window" ] ~docv:"W" ~doc:"Sliding window for statistics.")
  in
  let run file adaptive window =
    match Synts_sync.Trace_io.load file with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok trace ->
        let session =
          if adaptive then
            Synts_session.Session.adaptive ?window ~n:(Trace.n trace) ()
          else Synts_session.Session.of_topology ?window (Trace.topology trace)
        in
        ignore
          (Synts_ingest.Ingest.feed_trace
             (Synts_session.Session.ingest session)
             trace);
        let resolved = Synts_session.Session.finish_events session in
        Format.printf "monitored %d messages, %d internal events@."
          (Synts_session.Session.messages_observed session)
          (List.length resolved);
        Format.printf "vector size        : %d (FM would use %d)@."
          (Synts_session.Session.dimension session)
          (Trace.n trace);
        Format.printf "poset width so far : %d@."
          (Synts_session.Session.width session);
        Format.printf "concurrency ratio  : %.3f@."
          (Synts_session.Session.concurrency_ratio session);
        Format.printf "longest causal chain: %d@."
          (Synts_session.Session.longest_chain session);
        Format.printf "frontier (%d maximal messages):@."
          (List.length (Synts_session.Session.frontier session));
        List.iter
          (fun (id, v) ->
            Format.printf "  m%d %s@." (id + 1) (Vector.to_string v))
          (Synts_session.Session.frontier session)
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:"Feed a trace through a monitoring session and print the live \
             statistics.")
    Term.(const run $ file_t $ adaptive_t $ window_t)

(* ---------- offline ---------- *)

let offline_cmd =
  let file_t =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "A saved trace file (synts-trace format, see $(b,synts simulate \
             --save)). Omit it and pass $(b,--topology) to stamp a \
             generated workload instead.")
  in
  let gen_topology_t =
    Arg.(
      value
      & opt (some topology_conv) None
      & info [ "topology" ] ~docv:"TOPOLOGY"
          ~doc:"Generate and stamp a random workload over this topology.")
  in
  let messages_t =
    Arg.(
      value & opt int 1000
      & info [ "messages"; "m" ] ~docv:"M"
          ~doc:"Message count for the generated workload.")
  in
  let internal_t =
    Arg.(
      value & opt float 0.1
      & info [ "internal" ] ~docv:"P"
          ~doc:"Internal-event probability for the generated workload.")
  in
  let stream_t =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Stamp with the streaming Dilworth pipeline — one pass, memory \
             bounded by $(b,--window) — instead of the batch Figure 9 \
             path (closure + matching over the whole poset).")
  in
  let window_t =
    Arg.(
      value & opt int 1024
      & info [ "window" ] ~docv:"W"
          ~doc:"Live-window bound of the streaming pipeline (with \
                $(b,--stream)).")
  in
  let check_t =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Also run the batch path and require the same \
             precedes/concurrent verdict on every message pair \
             (order-equivalence); exit non-zero on any mismatch. Only \
             feasible at batch scale (a few thousand messages).")
  in
  let timings_t =
    Arg.(
      value & flag
      & info [ "timings" ] ~doc:"Print wall-clock stamping throughput.")
  in
  let print_t =
    Arg.(value & flag & info [ "print" ] ~doc:"Print every message stamp.")
  in
  let run seed file gen_topology messages internal stream window check timings
      print_stamps tracefile =
    if tracefile <> None then start_tracing ();
    let tr =
      match (file, gen_topology) with
      | Some path, _ -> (
          match Synts_sync.Trace_io.load path with
          | Ok tr -> tr
          | Error e ->
              prerr_endline e;
              exit 1)
      | None, Some spec ->
          check_loss internal;
          let g = realize_topology seed spec in
          Workload.random
            (Rng.create (seed + 1))
            ~topology:g ~messages ~internal_prob:internal ()
      | None, None ->
          prerr_endline "synts offline: provide a FILE or --topology SPEC";
          exit 2
    in
    let m = Trace.message_count tr in
    let t0 = Unix.gettimeofday () in
    let stats = ref None in
    let ts =
      if stream then begin
        let s = Offline.Stream.create ~window ~n:(Trace.n tr) () in
        let out =
          Array.map
            (fun (msg : Trace.message) ->
              Offline.Stream.observe s ~src:msg.Trace.src ~dst:msg.Trace.dst)
            (Trace.messages tr)
        in
        stats := Some s;
        out
      end
      else Offline.timestamp_trace tr
    in
    let dt = Unix.gettimeofday () -. t0 in
    Format.printf
      "%s: %d processes, %d messages, %s path, vector size %d (⌊N/2⌋ = %d)@."
      (match file with Some p -> p | None -> "generated workload")
      (Trace.n tr) m
      (if stream then "streaming" else "batch")
      (if Array.length ts > 0 then Vector.size ts.(m - 1) else 0)
      (Offline.width_bound ~n:(Trace.n tr));
    (match !stats with
    | None -> ()
    | Some s ->
        Format.printf "width %d%s, retired %d, repairs %d@."
          (Offline.Stream.width s)
          (if Offline.Stream.exact_width s then "" else " (upper bound)")
          (Offline.Stream.retired s)
          (Offline.Stream.repairs s);
        Format.printf "peak live memory: %d words (window %d)@."
          (Offline.Stream.peak_live_words s)
          window);
    if timings then
      Format.printf "stamped in %.3f s (%.0f stamps/s)@." dt
        (if dt > 0. then float_of_int m /. dt else 0.);
    if print_stamps then
      Array.iter
        (fun (msg : Trace.message) ->
          Format.printf "m%-3d P%d->P%d  %s@." (msg.Trace.id + 1)
            (msg.Trace.src + 1) (msg.Trace.dst + 1)
            (Vector.to_string ts.(msg.Trace.id)))
        (Trace.messages tr);
    Option.iter write_trace tracefile;
    if check then begin
      let oracle =
        if stream then Offline.timestamp_trace tr
        else Offline.stream_trace ~window tr
      in
      let mismatches = ref 0 in
      for i = 0 to m - 1 do
        for j = i + 1 to m - 1 do
          if
            Offline.precedes ts.(i) ts.(j) <> Offline.precedes oracle.(i) oracle.(j)
            || Offline.precedes ts.(j) ts.(i)
               <> Offline.precedes oracle.(j) oracle.(i)
          then incr mismatches
        done
      done;
      Format.printf "order-equivalence stream vs batch: %s (%d pairs)@."
        (if !mismatches = 0 then "exact"
         else Printf.sprintf "%d MISMATCHES" !mismatches)
        (m * (m - 1) / 2);
      if !mismatches > 0 then exit 1
    end
  in
  Cmd.v
    (Cmd.info "offline"
       ~doc:
         "Timestamp a completed trace with the offline algorithm — batch \
          (Figure 9) or the bounded-memory streaming pipeline \
          ($(b,--stream)).")
    Term.(
      const run $ seed_t $ file_t $ gen_topology_t $ messages_t $ internal_t
      $ stream_t $ window_t $ check_t $ timings_t $ print_t $ trace_t)

(* ---------- protocol ---------- *)

(* ---------- serve / load ---------- *)

let address_conv =
  let parse s =
    Synts_server.Server.address_of_string s
    |> Result.map_error (fun e -> `Msg e)
  in
  Arg.conv (parse, Synts_server.Server.pp_address)

let address_arg ~name ~doc default =
  Arg.(value & opt address_conv default & info [ name ] ~docv:"ADDR" ~doc)

let serve_cmd =
  let addr_t =
    address_arg ~name:"listen"
      ~doc:
        "Listen address: $(i,HOST:PORT) for TCP, anything else is a Unix \
         socket path."
      (Synts_server.Server.Unix_socket "synts.sock")
  in
  let check_t =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Log every ingested event so clients can request a bit-exact \
             replay through the oracle ($(b,synts load --verify)).")
  in
  let topology_t =
    Arg.(
      required
      & pos 0 (some topology_conv) None
      & info [] ~docv:"TOPO" ~doc:"Topology the observed system runs on.")
  in
  let offline_t =
    Arg.(
      value & flag
      & info [ "offline" ]
          ~doc:
            "Stamp with the streaming offline pipeline (bounded-memory \
             rank vectors, order-equivalent to the batch Figure 9 path) \
             instead of the Fig. 5 engine. $(b,--check) then \
             verifies order-equivalence against the batch oracle rather \
             than bit-exactness.")
  in
  let window_t =
    Arg.(
      value & opt int 1024
      & info [ "window" ] ~docv:"W"
          ~doc:"Live-window bound of the offline pipeline (with \
                $(b,--offline)).")
  in
  let admin_t =
    Arg.(
      value
      & opt (some address_conv) None
      & info [ "admin" ] ~docv:"ADDR"
          ~doc:
            "Also listen on ADDR for the introspection channel — a \
             second plane in the same frame envelope answering \
             $(b,health), $(b,metrics), $(b,stats) and $(b,tracedump), \
             scraped by $(b,synts top).")
  in
  let run seed topo address check offline window admin metrics =
    let g = realize_topology seed topo in
    (* The offline backend reads only the process count, so it gets the
       empty decomposition over the same processes, not a Fig. 7 run. *)
    let d =
      if offline then Decomposition.make_exn (Graph.empty (Graph.n g)) []
      else Decomposition.best g
    in
    if offline then
      Format.printf "synts serve: %s (N=%d) on %a, offline stream (window %d)%s@."
        (topo_to_string topo)
        (Decomposition.graph_vertices d)
        Synts_server.Server.pp_address address window
        (if check then ", equivalence checking on" else "")
    else
      Format.printf "synts serve: %s (N=%d, d=%d) on %a%s@."
        (topo_to_string topo)
        (Decomposition.graph_vertices d)
        (Decomposition.size d) Synts_server.Server.pp_address address
        (if check then ", oracle checking on" else "");
    Option.iter
      (fun a ->
        Format.printf "admin channel on %a (synts top --connect)@."
          Synts_server.Server.pp_address a)
      admin;
    Synts_server.Server.serve ~check ~offline ~window ?admin address d;
    Format.printf "synts serve: shut down@.";
    Option.iter dump_metrics metrics
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the streaming stamping daemon.")
    Term.(const run $ seed_t $ topology_t $ addr_t $ check_t
          $ offline_t $ window_t $ admin_t $ metrics_t)

let load_cmd =
  let addr_t =
    address_arg ~name:"connect"
      ~doc:"Daemon address (must match the server's $(b,--listen))."
      (Synts_server.Server.Unix_socket "synts.sock")
  in
  let clients_t =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let batches_t =
    Arg.(
      value & opt int 64
      & info [ "batches" ] ~docv:"B" ~doc:"Observe batches per client.")
  in
  let batch_t =
    Arg.(
      value & opt int 32
      & info [ "batch" ] ~docv:"K" ~doc:"Events per batch.")
  in
  let internal_t =
    Arg.(
      value & opt float 0.1
      & info [ "internal" ] ~docv:"P"
          ~doc:"Internal-event probability in the generated workload.")
  in
  let spawn_t =
    Arg.(
      value & flag
      & info [ "spawn" ]
          ~doc:
            "Run the daemon in-process (own domain) on the $(b,--connect) \
             address instead of dialling an external one; shut it down \
             when the run ends.")
  in
  let verify_t =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "After the run, ask the server to replay its whole arrival \
             log through the single-domain oracle and exit non-zero on \
             any mismatch (the server needs $(b,--check); implied for \
             $(b,--spawn)).")
  in
  let topology_t =
    Arg.(
      required
      & pos 0 (some topology_conv) None
      & info [] ~docv:"TOPO"
          ~doc:"Topology (must match the server's decomposition).")
  in
  let run seed topo address clients batches batch internal spawn verify
      format metrics =
    check_loss internal;
    let g = realize_topology seed topo in
    let d = Decomposition.best g in
    let handle =
      if spawn then
        Some (Synts_server.Server.spawn ~check:(verify || spawn)
                address d)
      else None
    in
    let report =
      Synts_server.Load.run ~clients ~batches ~batch ~internal_prob:internal
        ~seed address d
    in
    let verified =
      if verify then begin
        let c = Synts_server.Client.connect address in
        let r = Synts_server.Client.verify_server c in
        Synts_server.Client.close c;
        Some r
      end
      else None
    in
    (match handle with
    | Some h ->
        let c = Synts_server.Client.connect address in
        Synts_server.Client.shutdown c;
        Synts_server.Server.join h
    | None -> ());
    (match format with
    | `Text ->
        Format.printf "%a@." Synts_server.Load.pp_report report;
        Option.iter
          (function
            | Ok (ok, checked) ->
                Format.printf "oracle check    %s (%d messages)@."
                  (if ok then "exact" else "MISMATCH")
                  checked
            | Error e -> Format.printf "oracle check    unavailable: %s@." e)
          verified
    | `Json ->
        let verified_json =
          match verified with
          | None -> "null"
          | Some (Ok (ok, _)) -> string_of_bool ok
          | Some (Error _) -> "null"
        in
        Format.printf
          {|{"clients":%d,"batches":%d,"events":%d,"messages":%d,"seconds":%.6f,"events_per_sec":%.1f,"p50_ms":%.4f,"p95_ms":%.4f,"p99_ms":%.4f,"server_dropped":%d,"server_pending":%d,"verified":%s}@.|}
          report.Synts_server.Load.clients report.Synts_server.Load.batches
          report.Synts_server.Load.events report.Synts_server.Load.messages
          report.Synts_server.Load.seconds
          report.Synts_server.Load.events_per_sec
          report.Synts_server.Load.p50_ms report.Synts_server.Load.p95_ms
          report.Synts_server.Load.p99_ms
          report.Synts_server.Load.server_dropped
          report.Synts_server.Load.server_pending verified_json);
    Option.iter dump_metrics metrics;
    match verified with
    | Some (Ok (false, _)) | Some (Error _) -> exit 1
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Drive a stamping daemon with a seeded multi-client workload.")
    Term.(
      const run $ seed_t $ topology_t $ addr_t $ clients_t $ batches_t
      $ batch_t $ internal_t $ spawn_t $ verify_t
      $ report_format_t $ metrics_t)

(* ---------- top ---------- *)

(* One rendered frame of `synts top`: health header, event totals with
   rates derived from the previous sample, latency quantiles, the
   engine's load, per-connection counters and — for the offline
   backend — the streaming pipeline's watermarks. *)
let render_top ppf ~prev ~dt (ok, hbackend, procs, dim)
    (s : Synts_obs.Admin.stats) =
  let open Synts_obs.Admin in
  let events = s.messages + s.internal in
  let rate now before =
    match before with
    | Some b when dt > 0. -> float_of_int (now - b) /. dt
    | _ -> 0.
  in
  let ev_rate =
    rate events
      (Option.map (fun (p : stats) -> p.messages + p.internal) prev)
  in
  let msg_rate =
    rate s.messages (Option.map (fun (p : stats) -> p.messages) prev)
  in
  Format.fprintf ppf "synts top — %s  %s  N=%d  d=%d@." hbackend
    (if ok then "up" else "DOWN")
    procs dim;
  Format.fprintf ppf
    "events    %d total (%d messages, %d internal)  %.0f ev/s  %.0f msg/s@."
    events s.messages s.internal ev_rate msg_rate;
  Format.fprintf ppf
    "batches   %d  clients %d  dedup %d  errors %d  dropped %d  pending %d@."
    s.batches s.clients s.dedup_hits s.errors s.dropped s.pending;
  Format.fprintf ppf "stamp lat p50 %.3f ms  p90 %.3f ms  p99 %.3f ms@."
    s.p50_ms s.p90_ms s.p99_ms;
  Option.iter
    (fun l ->
      Format.fprintf ppf "engine    events %d  cells %d  messages %d@."
        l.swept l.cells l.stamped)
    s.load;
  (match s.stream with
  | None -> ()
  | Some st ->
      Format.fprintf ppf
        "stream    chains %d  live %d  retired %d  width %d%s  repairs %d@."
        st.chains st.live st.retired st.width
        (if st.exact then "" else " (bound)")
        st.repairs);
  match s.conns with
  | [] -> ()
  | conns ->
      Format.fprintf ppf "conns     %d active@." (List.length conns);
      List.iter
        (fun c ->
          Format.fprintf ppf
            "  c%-2d     in %d  out %d  dedup %d  last_seq %d@." c.conn
            c.events_in c.stamps_out c.dedup_hits c.last_seq)
        conns

let top_cmd =
  let module Admin_client = Synts_server.Admin_client in
  let connect_t =
    address_arg ~name:"connect"
      ~doc:"Admin address of the daemon (its $(b,--admin))."
      (Synts_server.Server.Unix_socket "synts-admin.sock")
  in
  let interval_t =
    Arg.(
      value & opt float 1.0
      & info [ "interval"; "i" ] ~docv:"SECS" ~doc:"Refresh interval.")
  in
  let once_t =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Render a single sample and exit (no screen clearing).")
  in
  let spawn_t =
    Arg.(
      value & flag
      & info [ "spawn" ]
          ~doc:
            "Self-contained mode (the obs smoke tier): run the daemon \
             in-process with the admin channel on $(b,--connect) and the \
             data plane on $(b,--data), drive a seeded load, exercise all \
             four admin verbs, then render and exit — non-zero unless the \
             daemon reports healthy and stamped a non-zero message count.")
  in
  let data_t =
    address_arg ~name:"data"
      ~doc:"Data-plane listen address for $(b,--spawn)."
      (Synts_server.Server.Unix_socket "synts-top.sock")
  in
  let topo_t =
    Arg.(
      value
      & pos 0 (some topology_conv) None
      & info [] ~docv:"TOPO" ~doc:"Topology for $(b,--spawn).")
  in
  let clients_t =
    Arg.(
      value & opt int 3
      & info [ "clients" ] ~docv:"N"
          ~doc:"Client connections for the $(b,--spawn) load.")
  in
  let batches_t =
    Arg.(
      value & opt int 16
      & info [ "batches" ] ~docv:"B"
          ~doc:"Batches per client for the $(b,--spawn) load.")
  in
  let batch_t =
    Arg.(
      value & opt int 8
      & info [ "batch" ] ~docv:"K"
          ~doc:"Events per batch for the $(b,--spawn) load.")
  in
  let sample admin =
    let a = Admin_client.connect admin in
    Fun.protect
      ~finally:(fun () -> Admin_client.close a)
      (fun () -> (Admin_client.health a, Admin_client.stats a))
  in
  let run seed topo admin interval once spawn data clients batches
      batch =
    if spawn then begin
      let topo =
        match topo with
        | Some t -> t
        | None ->
            prerr_endline "synts top --spawn: a TOPO argument is required";
            exit 2
      in
      let g = realize_topology seed topo in
      let d = Decomposition.best g in
      start_tracing ();
      let handle =
        Synts_server.Server.spawn ~check:false ~admin data d
      in
      let finish () =
        let c = Synts_server.Client.connect data in
        Synts_server.Client.shutdown c;
        Synts_server.Server.join handle
      in
      (try
         ignore
           (Synts_server.Load.run ~clients ~batches ~batch ~seed data d)
       with e ->
         finish ();
         raise e);
      let a = Admin_client.connect admin in
      let health = Admin_client.health a in
      let prom = Admin_client.metrics a Synts_obs.Admin.Prom in
      let json = Admin_client.metrics a Synts_obs.Admin.Json in
      let stats = Admin_client.stats a in
      let t_dropped, t_spans, _jsonl = Admin_client.tracedump a in
      Admin_client.close a;
      finish ();
      render_top Format.std_formatter ~prev:None ~dt:0. health stats;
      Format.printf "metrics   %d prometheus bytes, %d json bytes@."
        (String.length prom) (String.length json);
      Format.printf "tracedump %d spans (%d dropped)@." t_spans t_dropped;
      let ok, _, _, _ = health in
      if (not ok) || stats.Synts_obs.Admin.messages = 0 then begin
        prerr_endline "synts top --spawn: daemon unhealthy or stamped nothing";
        exit 1
      end
    end
    else begin
      let prev = ref None and t_prev = ref (Unix.gettimeofday ()) in
      let rec loop () =
        let health, stats = sample admin in
        let now = Unix.gettimeofday () in
        let dt = now -. !t_prev in
        if not once then print_string "\027[H\027[2J";
        render_top Format.std_formatter ~prev:!prev ~dt health stats;
        Format.print_flush ();
        if not once then begin
          prev := Some stats;
          t_prev := now;
          Unix.sleepf interval;
          loop ()
        end
      in
      loop ()
    end
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live daemon introspection: poll a $(b,synts serve --admin) \
          channel and render event rates, stamp-latency quantiles, the \
          engine's load, per-connection counters, loss/backpressure and \
          the streaming pipeline's watermarks.")
    Term.(
      const run $ seed_t $ topo_t $ connect_t $ interval_t $ once_t $ spawn_t
      $ data_t $ clients_t $ batches_t $ batch_t)

let protocol_cmd =
  let file_t =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "A process-system file: one `P<id>: intents` line per process, \
             intents separated by dots — !k (send to k), ?k (receive from \
             k), ?* (receive from anyone), # (internal event). // comments.")
  in
  let min_delay_t =
    Arg.(value & opt float 1.0 & info [ "min-delay" ] ~docv:"D")
  in
  let max_delay_t =
    Arg.(value & opt float 10.0 & info [ "max-delay" ] ~docv:"D")
  in
  let diagram_t =
    Arg.(value & flag & info [ "diagram" ] ~doc:"Render the induced diagram.")
  in
  let run seed file min_delay max_delay diagram =
    let text = In_channel.with_open_text file In_channel.input_all in
    match Synts_net.Script.parse_system text with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok scripts ->
        let n = Array.length scripts in
        (* The topology is whatever channels the scripts mention. *)
        let g =
          let edges = ref [] in
          Array.iteri
            (fun src script ->
              List.iter
                (function
                  | Synts_net.Script.Send_to dst ->
                      edges := (src, dst) :: !edges
                  | _ -> ())
                script)
            scripts;
          Graph.of_edges n !edges
        in
        let d = Decomposition.best g in
        let o =
          Synts_net.Rendezvous.run ~seed ~min_delay ~max_delay
            ~decomposition:d scripts
        in
        Format.printf
          "executed %d messages over the simulated network (%d packets, \
           makespan %.1f), vectors of size %d@."
          (Trace.message_count o.Synts_net.Rendezvous.trace)
          o.Synts_net.Rendezvous.packets o.Synts_net.Rendezvous.makespan
          (Decomposition.size d);
        (match o.Synts_net.Rendezvous.deadlocked with
        | [] -> ()
        | stuck ->
            Format.printf "DEADLOCK: %s never completed@."
              (String.concat ", "
                 (List.map (fun p -> Printf.sprintf "P%d" p) stuck)));
        (match o.Synts_net.Rendezvous.timestamps with
        | Some ts when diagram ->
            print_string
              (Diagram.render_with_timestamps o.Synts_net.Rendezvous.trace ts)
        | Some ts ->
            Array.iter
              (fun (m : Trace.message) ->
                Format.printf "m%-3d P%d->P%d  %s@." (m.Trace.id + 1)
                  (m.Trace.src + 1) (m.Trace.dst + 1)
                  (Vector.to_string ts.(m.Trace.id)))
              (Trace.messages o.Synts_net.Rendezvous.trace)
        | None -> ());
        if o.Synts_net.Rendezvous.deadlocked <> [] then exit 2
  in
  Cmd.v
    (Cmd.info "protocol"
       ~doc:
         "Run a process-system file over the simulated asynchronous \
          network with the REQ/ACK rendezvous protocol.")
    Term.(
      const run $ seed_t $ file_t $ min_delay_t $ max_delay_t $ diagram_t)

(* ---------- lint ---------- *)

let lint_cmd =
  let file_t =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "A saved trace file (synts-trace format) or a process-system \
             file (P<id>: intents). Omit it and pass $(b,--topology) to \
             lint a generated workload instead.")
  in
  let gen_topology_t =
    Arg.(
      value
      & opt (some topology_conv) None
      & info [ "topology" ] ~docv:"TOPOLOGY"
          ~doc:"Generate and lint a random workload over this topology.")
  in
  let messages_t =
    Arg.(
      value & opt int 40
      & info [ "messages"; "m" ] ~docv:"M"
          ~doc:"Message count for the generated workload.")
  in
  let internal_t =
    Arg.(
      value & opt float 0.2
      & info [ "internal" ] ~docv:"P"
          ~doc:"Internal-event probability for the generated workload.")
  in
  let format_t = report_format_t in
  let fail_on_t =
    Arg.(
      value
      & opt (enum [ ("error", `Error); ("warning", `Warning); ("never", `Never) ])
          `Error
      & info [ "fail-on" ] ~docv:"SEV"
          ~doc:
            "Exit non-zero when a finding at or above this severity exists: \
             $(b,error) (default), $(b,warning), or $(b,never).")
  in
  let explain_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "explain" ] ~docv:"RULE_ID"
          ~doc:
            "Print the rule's rationale and the paper theorem/definition it \
             enforces, then exit. Unknown ids exit non-zero with \
             suggestions.")
  in
  let run seed file gen_topology messages internal format fail_on explain
      metrics =
    match explain with
    | Some rule -> (
        match Synts_lint.Rules.explain rule with
        | Ok text -> print_string text
        | Error msg ->
            prerr_endline ("synts lint: " ^ msg);
            exit 2)
    | None ->
        if metrics <> None then begin
          Telemetry.set_enabled true;
          Telemetry.reset ()
        end;
        let findings =
          match file with
          | Some path when Synts_model.Witness.is_witness_text
                             (In_channel.with_open_text path
                                In_channel.input_all) -> (
              (* A model-checker witness: re-derive the verdict from its
                 raw materials. Deadlock witnesses carry the system to
                 re-explore; protocol witnesses carry the schedule and the
                 stamps under suspicion. *)
              let text = In_channel.with_open_text path In_channel.input_all in
              match Synts_model.Witness.of_string text with
              | Error e ->
                  [
                    Synts_lint.Rules.finding "trace/parse"
                      Synts_lint.Finding.Global
                      (Printf.sprintf "%s: %s" path e);
                  ]
              | Ok w when w.Synts_model.Witness.rule = "model/deadlock" ->
                  Lint.audit_scripts w.Synts_model.Witness.scripts
              | Ok w -> (
                  match Synts_model.Witness.trace w with
                  | Error e ->
                      [
                        Synts_lint.Rules.finding "trace/parse"
                          Synts_lint.Finding.Global
                          (Printf.sprintf "%s: %s" path e);
                      ]
                  | Ok trace ->
                      Lint.audit_stamped trace w.Synts_model.Witness.stamps))
          | Some path -> (
              let text = In_channel.with_open_text path In_channel.input_all in
              match Synts_sync.Trace_io.of_string text with
              | Ok trace -> Lint.audit trace
              | Error trace_err -> (
                  (* Not a trace; maybe a process-system file. *)
                  match Synts_net.Script.parse_system text with
                  | Ok scripts -> Lint.audit_scripts scripts
                  | Error _ ->
                      [
                        Synts_lint.Rules.finding "trace/parse"
                          Synts_lint.Finding.Global
                          (Printf.sprintf "%s: %s" path trace_err);
                      ]))
          | None -> (
              match gen_topology with
              | None ->
                  prerr_endline
                    "synts lint: provide a FILE or --topology SPEC";
                  exit 2
              | Some spec ->
                  check_loss internal;
                  let g = realize_topology seed spec in
                  let trace =
                    Workload.random
                      (Rng.create (seed + 1))
                      ~topology:g ~messages ~internal_prob:internal ()
                  in
                  Lint.audit trace)
        in
        Lint.record findings;
        (match format with
        | `Text -> Format.printf "%a" Lint.pp_report findings
        | `Json ->
            print_string (Lint.to_json findings);
            print_newline ());
        Option.iter
          (fun fmt ->
            print_newline ();
            dump_metrics fmt)
          metrics;
        exit (Lint.exit_code ~fail_on findings)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze a trace, topology decomposition or CSP \
          process system: well-formedness, crown-freedom, Def. 2 coverage \
          and size bounds, rendezvous deadlocks, and a sanitized \
          online-stamping replay.")
    Term.(
      const run $ seed_t $ file_t $ gen_topology_t $ messages_t $ internal_t
      $ format_t $ fail_on_t $ explain_t $ metrics_t)

(* ---------- model ---------- *)

let model_cmd =
  let module Protocol = Synts_model.Protocol in
  let module Checker = Synts_model.Checker in
  let module Witness = Synts_model.Witness in
  let file_t =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "A synts-model config file, or a process-system file (P<id>: \
             intents) to check directly. Omitted: the built-in \
             deadlock-free scenario for --procs/--events.")
  in
  let procs_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "procs"; "n" ] ~docv:"N" ~doc:"Process count (default 3).")
  in
  let events_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "events"; "e" ] ~docv:"E"
          ~doc:"Scenario rendezvous count (default 6).")
  in
  let faults_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "faults" ] ~docv:"K"
          ~doc:
            "Crash/recover pairs the explorer may inject anywhere in the \
             schedule (default 0).")
  in
  let mutate_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutate" ] ~docv:"MUTATION"
          ~doc:
            "Seed a protocol bug: $(b,skip-increment), $(b,stale-ack) or \
             $(b,forget-checkpoint). The checker must find and shrink a \
             witness.")
  in
  let dpor_t =
    Arg.(
      value
      & vflag true
          [
            ( true,
              info [ "dpor" ]
                ~doc:
                  "Sleep-set partial-order reduction plus state hashing \
                   (default)." );
            ( false,
              info [ "no-dpor" ]
                ~doc:
                  "Plain schedule-tree enumeration: no sleep sets, no \
                   state hashing — the baseline the reduction factor is \
                   measured against." );
          ])
  in
  let compare_t =
    Arg.(
      value & flag
      & info [ "compare-dpor" ]
          ~doc:
            "Run both with and without reduction and report the state \
             reduction factor.")
  in
  let budget_t =
    Arg.(
      value
      & opt int Checker.default_budget
      & info [ "budget" ] ~docv:"STATES"
          ~doc:"State budget per exploration (truncates beyond it).")
  in
  let witness_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "witness" ] ~docv:"FILE"
          ~doc:
            "Write the shrunk counterexample (synts-witness format) here; \
             feed it back to $(b,synts lint) for an independent verdict.")
  in
  let confirm_witness w =
    if w.Witness.rule = "model/deadlock" then begin
      let fs = Lint.audit_scripts w.Witness.scripts in
      let has id =
        List.exists (fun f -> f.Synts_lint.Finding.rule = id) fs
      in
      if has "csp/deadlock" then Some "csp lint confirms: csp/deadlock"
      else if has "csp/may-deadlock" then
        Some "csp lint confirms: csp/may-deadlock"
      else Some "csp lint does NOT reproduce the deadlock"
    end
    else
      match Checker.replay w with
      | Error e -> Some ("replay failed: " ^ e)
      | Ok r ->
          Some
            (Printf.sprintf
               "sanitizer finds %d error(s); CSP runtime disagrees on %d/%d \
                stamps"
               (Synts_lint.Finding.errors r.Checker.sanitizer)
               r.Checker.runtime_divergences r.Checker.runtime_messages)
  in
  let run file procs events faults mutate dpor compare budget witness_path
      format metrics =
    if metrics <> None then begin
      Telemetry.set_enabled true;
      Telemetry.reset ()
    end;
    let fail msg =
      prerr_endline ("synts model: " ^ msg);
      exit 2
    in
    let base =
      match file with
      | None -> Protocol.default
      | Some path -> (
          let text = In_channel.with_open_text path In_channel.input_all in
          match Protocol.of_string text with
          | Ok cfg -> cfg
          | Error model_err -> (
              match Synts_net.Script.parse_system text with
              | Ok scripts ->
                  {
                    Protocol.default with
                    Protocol.system = Some scripts;
                    procs = Array.length scripts;
                  }
              | Error _ -> fail (path ^ ": " ^ model_err)))
    in
    let override v field = Option.fold ~none:field ~some:Fun.id v in
    let mutation =
      match mutate with
      | None -> base.Protocol.mutation
      | Some s -> (
          match Protocol.mutation_of_string s with
          | Ok m -> Some m
          | Error e -> fail e)
    in
    let cfg =
      {
        base with
        Protocol.procs = override procs base.Protocol.procs;
        events = override events base.Protocol.events;
        faults = override faults base.Protocol.faults;
        mutation;
      }
    in
    let m =
      match Protocol.compile cfg with Ok m -> m | Error e -> fail e
    in
    let naive =
      if compare then Some (Checker.check ~budget ~dpor:false m) else None
    in
    let r = Checker.check ~budget ~dpor m in
    let reduction =
      Option.map
        (fun (nv : Checker.report) ->
          float_of_int nv.Checker.stats.Synts_explorer.Explorer.expanded
          /. float_of_int (max 1 r.Checker.stats.Synts_explorer.Explorer.expanded))
        naive
    in
    Option.iter
      (fun path ->
        match r.Checker.violation with
        | Some v -> Witness.save path v.Checker.witness
        | None -> ())
      witness_path;
    let confirmation =
      Option.bind r.Checker.violation (fun v ->
          confirm_witness v.Checker.witness)
    in
    (match format with
    | `Json ->
        let stats_json (x : Checker.report) =
          let s = x.Checker.stats in
          Printf.sprintf
            {|{"dpor":%b,"states":%d,"transitions":%d,"hash_hits":%d,"sleep_pruned":%d,"terminals":%d,"truncated":%b}|}
            x.Checker.dpor s.Synts_explorer.Explorer.expanded
            s.Synts_explorer.Explorer.transitions
            s.Synts_explorer.Explorer.hash_hits
            s.Synts_explorer.Explorer.sleep_pruned x.Checker.terminals
            s.Synts_explorer.Explorer.truncated
        in
        let violation_json =
          match r.Checker.violation with
          | None -> "null"
          | Some v ->
              Printf.sprintf {|{"rule":%S,"detail":%S,"schedule_length":%d}|}
                v.Checker.rule v.Checker.detail
                (Witness.events v.Checker.witness)
        in
        Printf.printf
          {|{"procs":%d,"faults":%d,"mutation":%s,"budget":%d,"run":%s,%s"oracle_checked":%d,"violation":%s}|}
          (Protocol.n m) cfg.Protocol.faults
          (match cfg.Protocol.mutation with
          | None -> "null"
          | Some mu -> Printf.sprintf "%S" (Protocol.mutation_to_string mu))
          budget (stats_json r)
          (match (naive, reduction) with
          | Some nv, Some f ->
              Printf.sprintf {|"baseline":%s,"reduction":%.2f,|}
                (stats_json nv) f
          | _ -> "")
          r.Checker.oracle_checked violation_json;
        print_newline ()
    | `Text ->
        Format.printf "model: %d processes, %d fault budget, mutation %s@."
          (Protocol.n m) cfg.Protocol.faults
          (match cfg.Protocol.mutation with
          | None -> "none"
          | Some mu -> Protocol.mutation_to_string mu);
        (match cfg.Protocol.churn with
        | [] ->
            Format.printf
              "decomposition: %d vector component(s) over the script \
               topology@."
              (Decomposition.size (Protocol.decomposition m))
        | churn ->
            Format.printf
              "churn: %d delta(s), %d epoch(s) —%s@." (List.length churn)
              (List.length churn + 1)
              (String.concat ""
                 (List.map
                    (fun (at, spec) -> Printf.sprintf " @%d %s" at spec)
                    churn)));
        let report_line label (x : Checker.report) =
          let s = x.Checker.stats in
          Format.printf
            "%s: %d states, %d transitions (%d hash hits, %d sleep-set \
             pruned), %d terminal schedule(s)%s@."
            label s.Synts_explorer.Explorer.expanded
            s.Synts_explorer.Explorer.transitions
            s.Synts_explorer.Explorer.hash_hits
            s.Synts_explorer.Explorer.sleep_pruned x.Checker.terminals
            (if s.Synts_explorer.Explorer.truncated then
               " [budget exhausted]"
             else "")
        in
        Option.iter (report_line "no-dpor ") naive;
        report_line (if r.Checker.dpor then "dpor     " else "no-dpor ") r;
        Option.iter
          (fun f -> Format.printf "reduction: %.1fx fewer states with DPOR@." f)
          reduction;
        (match r.Checker.violation with
        | None ->
            Format.printf
              "verdict: no schedule violates exactness, agreement or \
               deadlock-freedom (%d terminal(s), %d oracle-checked)@."
              r.Checker.terminals r.Checker.oracle_checked
        | Some v ->
            Format.printf "VIOLATION %s: %s@." v.Checker.rule v.Checker.detail;
            Format.printf "witness: %d action(s) after shrinking@."
              (Witness.events v.Checker.witness);
            Option.iter
              (fun path -> Format.printf "witness written to %s@." path)
              witness_path;
            Option.iter (Format.printf "cross-check: %s@.") confirmation));
    Option.iter
      (fun fmt ->
        print_newline ();
        dump_metrics fmt)
      metrics;
    if r.Checker.violation <> None then exit 1
  in
  Cmd.v
    (Cmd.info "model"
       ~doc:
         "Exhaustively model-check the Fig. 5 msg/ack protocol: explore \
          every rendezvous interleaving, wildcard matching choice and \
          crash/recover placement of a small configuration, verifying \
          stamp exactness, sender/receiver agreement and \
          deadlock-freedom; shrink any violation to a minimal witness \
          schedule replayable through the CSP runtime and synts lint.")
    Term.(
      const run $ file_t $ procs_t $ events_t $ faults_t $ mutate_t $ dpor_t
      $ compare_t $ budget_t $ witness_t $ report_format_t $ metrics_t)

(* ---------- verify ---------- *)

let verify_cmd =
  let messages_t =
    Arg.(value & opt int 60 & info [ "messages"; "m" ] ~docv:"M" ~doc:"Messages per run.")
  in
  let runs_t =
    Arg.(value & opt int 10 & info [ "runs" ] ~docv:"R" ~doc:"Number of runs.")
  in
  let run seed spec messages runs =
    let g = realize_topology seed spec in
    let d = Decomposition.best g in
    let rng = Rng.create (seed + 1) in
    let failures = ref 0 in
    for r = 1 to runs do
      let trace =
        Workload.random (Rng.split rng) ~topology:g ~messages
          ~internal_prob:0.25 ()
      in
      let online = Validate.message_timestamps trace (Online.timestamp_trace d trace) in
      let offline = Validate.message_timestamps trace (Offline.timestamp_trace trace) in
      let internal = Validate.internal_stamps trace (Internal_events.of_trace d trace) in
      let ok = Validate.ok online && Validate.ok offline && Validate.ok internal in
      if not ok then incr failures;
      Format.printf "run %2d: online %a | offline %a | internal %a@." r
        Validate.pp online Validate.pp offline Validate.pp internal
    done;
    if !failures = 0 then
      Format.printf "@.all %d runs verified against the brute-force oracle@."
        runs
    else begin
      Format.printf "@.%d runs FAILED@." !failures;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Validate online, offline and internal-event timestamps against \
             the oracle.")
    Term.(const run $ seed_t $ topology_t $ messages_t $ runs_t)

(* ---------- metrics ---------- *)

let metrics_cmd =
  let topology_opt_t =
    Arg.(
      value
      & pos 0 topology_conv (Spec (Topology.Client_server (4, 12)))
      & info [] ~docv:"TOPOLOGY"
          ~doc:"Topology for the demo run (default cs:4x12).")
  in
  let messages_t =
    Arg.(
      value & opt int 200
      & info [ "messages"; "m" ] ~docv:"M" ~doc:"Message count.")
  in
  let loss_t =
    Arg.(
      value & opt float 0.05
      & info [ "loss" ] ~docv:"P"
          ~doc:"Packet-loss probability for the network leg.")
  in
  let format_t =
    Arg.(
      value & opt metrics_format_conv `Prom
      & info [ "format"; "f" ] ~docv:"FMT" ~doc:"Output: $(b,prom) or $(b,json).")
  in
  let list_t =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the registered metric names and exit.")
  in
  let run seed spec messages loss format list =
    if list then
      List.iter
        (fun (name, help) -> Format.printf "%-45s %s@." name help)
        (Telemetry.metric_names ())
    else begin
      check_loss loss;
      Telemetry.set_enabled true;
      Telemetry.reset ();
      let g = realize_topology seed spec in
      let d = Decomposition.best g in
      let trace =
        Workload.random (Rng.create (seed + 1)) ~topology:g ~messages
          ~internal_prob:0.2 ()
      in
      (* Session layer: feed the whole observation stream, exercise the
         precedence queries, flush deferred internal events. *)
      let session = Synts_session.Session.of_decomposition d in
      let stamps =
        List.filter_map
          (fun step ->
            match
              Synts_session.Session.observe session
                (match step with
                | Trace.Send (src, dst) ->
                    Synts_session.Session.Message { src; dst }
                | Trace.Local proc -> Synts_session.Session.Internal { proc })
            with
            | Synts_session.Session.Stamped v -> Some v
            | Synts_session.Session.Deferred _ -> None)
          (Trace.steps trace)
      in
      ignore (Synts_session.Session.finish_events session);
      (match stamps with
      | a :: b :: _ ->
          ignore (Synts_session.Session.precedes session a b);
          ignore (Synts_session.Session.concurrent session a b)
      | _ -> ());
      (* Network layer: replay the computation over the lossy simulated
         network (REQ/ACK rendezvous, retransmissions, piggybacking). *)
      let scripts = Synts_net.Script.of_trace trace in
      ignore (Synts_net.Rendezvous.run ~seed ~loss ~decomposition:d scripts);
      (* CSP layer: a small effects-runtime pipeline. *)
      let module R = Synts_csp.Runtime.Make (struct
        type msg = int
      end) in
      let g3 = Topology.path 3 in
      let items = 8 in
      let programs =
        [|
          (fun api ->
            for i = 1 to items do
              ignore (api.R.send 1 i)
            done);
          R.Pattern.relay ~next:2 ~items ~transform:(fun x -> x + 1);
          (fun api ->
            for _ = 1 to items do
              api.R.internal ();
              ignore (api.R.recv ())
            done);
        |]
      in
      ignore (R.run ~seed ~decomposition:(Decomposition.best g3) ~n:3 programs);
      dump_metrics format
    end
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a seeded demo across the session, network and CSP layers and \
          dump the telemetry snapshot (deterministic: same seed, same \
          output).")
    Term.(
      const run $ seed_t $ topology_opt_t $ messages_t $ loss_t $ format_t
      $ list_t)

(* ---------- trace ---------- *)

(* The seeded demo behind `synts trace record`: one computation pushed
   through every traced layer — session stamping, the lossy REQ/ACK
   network replay, a small CSP pipeline and the offline Dilworth
   pipeline — so one recording exercises all four tick domains.
   Deterministic: same seed, byte-identical tracelog. *)
let layered_demo ~seed ~spec ~messages ~internal_prob ~loss =
  let g = realize_topology seed spec in
  let d = Decomposition.best g in
  let trace =
    Workload.random (Rng.create (seed + 1)) ~topology:g ~messages
      ~internal_prob ()
  in
  let session = Synts_session.Session.of_decomposition d in
  List.iter
    (fun step ->
      ignore
        (Synts_session.Session.observe session
           (match step with
           | Trace.Send (src, dst) -> Synts_session.Session.Message { src; dst }
           | Trace.Local proc -> Synts_session.Session.Internal { proc })))
    (Trace.steps trace);
  ignore (Synts_session.Session.finish_events session);
  let scripts = Synts_net.Script.of_trace trace in
  ignore (Synts_net.Rendezvous.run ~seed ~loss ~decomposition:d scripts);
  let module R = Synts_csp.Runtime.Make (struct
    type msg = int
  end) in
  let items = 8 in
  let programs =
    [|
      (fun api ->
        for i = 1 to items do
          ignore (api.R.send 1 i)
        done);
      R.Pattern.relay ~next:2 ~items ~transform:(fun x -> x + 1);
      (fun api ->
        for _ = 1 to items do
          api.R.internal ();
          ignore (api.R.recv ())
        done);
    |]
  in
  ignore
    (R.run ~seed
       ~decomposition:(Decomposition.best (Topology.path 3))
       ~n:3 programs);
  ignore (Offline.timestamp_trace trace)

let trace_record_cmd =
  let topology_opt_t =
    Arg.(
      value
      & pos 0 topology_conv (Spec (Topology.Client_server (4, 12)))
      & info [] ~docv:"TOPOLOGY"
          ~doc:"Topology for the demo run (default cs:4x12).")
  in
  let messages_t =
    Arg.(
      value & opt int 120
      & info [ "messages"; "m" ] ~docv:"M" ~doc:"Message count.")
  in
  let internal_t =
    Arg.(
      value & opt float 0.2
      & info [ "internal" ] ~docv:"P" ~doc:"Internal-event probability.")
  in
  let loss_t =
    Arg.(
      value & opt float 0.05
      & info [ "loss" ] ~docv:"P"
          ~doc:"Packet-loss probability for the network leg.")
  in
  let output_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Where to write the trace: Chrome trace-event JSON when FILE \
             ends in .json, synts-tracelog JSONL otherwise.")
  in
  let run seed spec messages internal loss output =
    check_loss loss;
    start_tracing ();
    layered_demo ~seed ~spec ~messages ~internal_prob:internal ~loss;
    write_trace output;
    Format.printf "recorded %d spans (%d dropped) -> %s@."
      (Tracer.length Tracer.default)
      (Tracer.dropped Tracer.default)
      output
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Run a seeded demo across the session, network, CSP and offline \
          pipeline layers with the span recorder on, and write the trace \
          (deterministic: same seed, byte-identical file).")
    Term.(
      const run $ seed_t $ topology_opt_t $ messages_t $ internal_t $ loss_t
      $ output_t)

let trace_file_t =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE"
        ~doc:
          "A recorded trace, in either format (synts-tracelog JSONL or \
           Chrome trace-event JSON); sniffed automatically.")

let trace_export_cmd =
  let format_t =
    Arg.(
      value
      & opt (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Chrome
      & info [ "format"; "f" ] ~docv:"FMT"
          ~doc:
            "$(b,chrome) (Perfetto-loadable trace-event JSON with \
             sync_precedes flow arrows) or $(b,jsonl) (synts-tracelog).")
  in
  let output_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file; stdout if omitted.")
  in
  let run file format output =
    match Trace_report.load file with
    | Error e ->
        prerr_endline ("synts trace export: " ^ e);
        exit 1
    | Ok (spans, dropped) ->
        warn_dropped dropped;
        let text =
          match format with
          | `Chrome -> Chrome.to_string ~dropped spans
          | `Jsonl -> Tracelog.to_string ~dropped spans
        in
        (match output with
        | None -> print_string text
        | Some path ->
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc text))
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Convert a recorded trace between the JSONL and Chrome formats.")
    Term.(const run $ trace_file_t $ format_t $ output_t)

let trace_report_cmd =
  let run file =
    match Trace_report.load file with
    | Error e ->
        prerr_endline ("synts trace report: " ^ e);
        exit 1
    | Ok (spans, dropped) -> print_string (Trace_report.render ~dropped spans)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Per-layer logical-time attribution from a recorded trace: span \
          statistics with p50/p90/p99, message and stamp-cost summaries, \
          and the width of the message poset over time.")
    Term.(const run $ trace_file_t)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:
         "Causal tracing: record span logs keyed by logical ticks, export \
          them as Perfetto-loadable Chrome trace-event JSON or streaming \
          JSONL, and profile where logical time went.")
    [ trace_record_cmd; trace_export_cmd; trace_report_cmd ]

(* ---------- chaos ---------- *)

let chaos_cmd =
  let messages_t =
    Arg.(
      value & opt int 60
      & info [ "messages"; "m" ] ~docv:"M" ~doc:"Message count.")
  in
  let internal_t =
    Arg.(
      value & opt float 0.0
      & info [ "internal" ] ~docv:"P" ~doc:"Internal-event probability.")
  in
  let loss_t =
    Arg.(
      value & opt float 0.0
      & info [ "loss" ] ~docv:"P"
          ~doc:"Packet-loss probability ($(b,1.0) allowed: drop everything).")
  in
  let fault_t =
    Arg.(
      value & opt_all string []
      & info [ "fault"; "f" ] ~docv:"CLAUSE"
          ~doc:
            "One fault-plan clause; repeatable. Grammar: $(b,crash:P\\@T), \
             $(b,recover:P\\@T+D), $(b,partition:A,B\\@T1-T2), \
             $(b,dup:PROB), $(b,corrupt:PROB), $(b,spike:PROB*FACTOR).")
  in
  let plan_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "A whole fault plan as one string of $(b,;)-separated clauses \
             (combined with any $(b,--fault) clauses).")
  in
  let retransmit_t =
    Arg.(
      value & opt float 40.0
      & info [ "retransmit" ] ~docv:"T"
          ~doc:"Initial retransmission timeout (doubles per attempt).")
  in
  let max_retransmits_t =
    Arg.(
      value & opt int 60
      & info [ "max-retransmits" ] ~docv:"K"
          ~doc:"Attempts before a sender gives up on a rendezvous.")
  in
  let chaos_format_t =
    (* -f is taken by --fault here, so no short alias. *)
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"Report as $(b,text) or $(b,json).")
  in
  let no_checksum_t =
    Arg.(
      value & flag
      & info [ "no-checksum" ]
          ~doc:
            "Disable the wire checksum: corrupted packets are accepted \
             instead of rejected, demonstrating how exactness degrades \
             (the lint verdict catches the divergence).")
  in
  let run seed topo messages internal loss fault_specs plan_spec retransmit
      max_retransmits no_checksum format metrics tracefile =
    check_loss loss;
    check_loss internal;
    let parse_clauses = function
      | Ok acc, spec -> (
          match Fault_plan.of_string spec with
          | Ok fs -> Ok (acc @ fs)
          | Error e -> Error e)
      | (Error _ as e), _ -> e
    in
    let plan =
      List.fold_left
        (fun acc s -> parse_clauses (acc, s))
        (Ok [])
        (Option.to_list plan_spec @ fault_specs)
    in
    let plan =
      match plan with
      | Ok p -> p
      | Error e ->
          prerr_endline ("synts chaos: " ^ e);
          exit 2
    in
    if metrics <> None then begin
      Telemetry.set_enabled true;
      Telemetry.reset ()
    end;
    if tracefile <> None then start_tracing ();
    let g = realize_topology seed topo in
    let n = Graph.n g in
    (match Fault_plan.validate ~n plan with
    | Ok () -> ()
    | Error e ->
        prerr_endline ("synts chaos: " ^ e);
        exit 2);
    if Fault_plan.has_churn plan then begin
      prerr_endline
        "synts chaos: the plan contains membership churn clauses \
         (join/leave/flap) — the packet-level chaos runner keeps a fixed \
         topology; run the plan under `synts churn` instead";
      exit 2
    end;
    let workload =
      Workload.random (Rng.create (seed + 1)) ~topology:g ~messages
        ~internal_prob:internal ()
    in
    let d = Decomposition.best g in
    let scripts = Synts_net.Script.of_trace workload in
    let injector = Injector.create ~seed plan in
    let o =
      Synts_net.Rendezvous.run ~seed ~loss ~retransmit ~max_retransmits
        ~faults:injector ~checksum:(not no_checksum) ~decomposition:d scripts
    in
    let delivered = Trace.message_count o.trace in
    let planned = Trace.message_count workload in
    let stamps = Option.value ~default:[||] o.timestamps in
    let oracle = Online.timestamp_trace d o.trace in
    let mismatches = ref 0 in
    Array.iteri
      (fun i v ->
        if i >= Array.length oracle || not (Vector.equal v oracle.(i)) then
          incr mismatches)
      stamps;
    let findings =
      Synts_lint.Sanitizer.check_trace d o.trace stamps
      @ List.map
          (fun kind ->
            Synts_lint.Rules.finding "fault/unobserved"
              Synts_lint.Finding.Global
              (Printf.sprintf
                 "plan declares %s faults but none fired during the run" kind))
          (Injector.unobserved injector)
    in
    if metrics <> None then Lint.record findings;
    (* Exit-code contract (doc/CLI.md): 0 clean; 1 exactness loss — the
       delivered stamps diverge from the offline oracle or a sanitizer
       rule fired at error severity; 2 plan parse/validation or usage
       errors (raised above, before the run); 3 any other error-severity
       finding. *)
    let exactness_lost =
      !mismatches > 0
      || List.exists
           (fun f ->
             f.Finding.severity = Finding.Error
             && String.length f.Finding.rule >= 4
             && String.sub f.Finding.rule 0 4 = "san/")
           findings
    in
    let code =
      if exactness_lost then 1 else if Finding.errors findings > 0 then 3 else 0
    in
    (match format with
    | `Json ->
        let breakdown_json =
          String.concat ","
            (List.map
               (fun (kind, consulted, fired) ->
                 Printf.sprintf
                   {|{"kind":%S,"consulted":%d,"fired":%d,"observed":%b}|}
                   kind consulted fired (fired > 0))
               (Injector.breakdown injector))
        in
        let procs_json ps =
          String.concat "," (List.map string_of_int ps)
        in
        Printf.printf
          {|{"topology":%S,"seed":%d,"plan":%S,"messages":{"planned":%d,"delivered":%d,"undelivered":%d},"packets":{"sent":%d,"lost":%d,"duplicated":%d,"corrupted":%d},"processes":{"gave_up":[%s],"crashed":[%s],"recovered":[%s],"deadlocked":[%s]},"faults":[%s],"makespan":%.1f,"stamps":{"total":%d,"oracle_matched":%d,"exact":%b},"lint":%s,"exactness_lost":%b,"exit_code":%d}|}
          (topo_to_string topo) seed
          (Fault_plan.to_string plan)
          planned delivered (planned - delivered) o.packets o.lost
          o.duplicated o.corrupted (procs_json o.gave_up)
          (procs_json o.crashed) (procs_json o.recovered)
          (procs_json o.deadlocked) breakdown_json o.makespan
          (Array.length stamps)
          (Array.length stamps - !mismatches)
          (!mismatches = 0) (Lint.to_json findings) exactness_lost code;
        print_newline ()
    | `Text ->
        let pp_procs = function
          | [] -> ""
          | ps ->
              Printf.sprintf " [%s]"
                (String.concat " " (List.map (Printf.sprintf "P%d") ps))
        in
        Format.printf "chaos %s  seed %d  plan: %s@." (topo_to_string topo)
          seed
          (if plan = [] then "(none)" else Fault_plan.to_string plan);
        Format.printf "messages  : %d delivered, %d undelivered (%d planned)@."
          delivered (planned - delivered) planned;
        Format.printf
          "packets   : %d sent, %d lost, %d duplicated, %d corrupted@."
          o.packets o.lost o.duplicated o.corrupted;
        Format.printf
          "processes : %d gave up%s, %d crashed%s, %d recovered%s, %d \
           deadlocked%s@."
          (List.length o.gave_up) (pp_procs o.gave_up) (List.length o.crashed)
          (pp_procs o.crashed)
          (List.length o.recovered)
          (pp_procs o.recovered)
          (List.length o.deadlocked)
          (pp_procs o.deadlocked);
        Format.printf "faults    : %s@."
          (match Injector.breakdown injector with
          | [] -> "(none injected)"
          | bk ->
              String.concat " "
                (List.map
                   (fun (k, consulted, fired) ->
                     Printf.sprintf "%s=%d/%d" k fired consulted)
                   bk));
        Format.printf "makespan  : %.1f@." o.makespan;
        Format.printf "stamps    : %d/%d match the offline oracle%s@."
          (Array.length stamps - !mismatches)
          (Array.length stamps)
          (if !mismatches = 0 then "" else " — EXACTNESS LOST");
        Format.printf "@.%a@." Lint.pp_report findings);
    (match metrics with
    | None -> ()
    | Some fmt ->
        print_newline ();
        dump_metrics fmt);
    Option.iter write_trace tracefile;
    exit code
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a workload under a declarative fault plan (crashes, \
          recoveries, partitions, duplication, corruption, delay spikes) \
          and report delivered/aborted/recovered tallies, timestamp \
          exactness against the offline oracle, and lint findings. \
          Deterministic from --seed. Exit codes: 0 clean, 1 exactness \
          lost, 2 plan parse/validation or usage error, 3 other \
          error-severity findings. Plans with membership churn clauses \
          are rejected (exit 2) — run those under $(b,synts churn).")
    Term.(
      const run $ seed_t $ topology_t $ messages_t $ internal_t $ loss_t
      $ fault_t $ plan_t $ retransmit_t $ max_retransmits_t $ no_checksum_t
      $ chaos_format_t $ metrics_t $ trace_t)

(* ---------- churn ---------- *)

let churn_cmd =
  let messages_t =
    Arg.(
      value & opt int 60
      & info [ "messages"; "m" ] ~docv:"M" ~doc:"Message count.")
  in
  let fault_t =
    Arg.(
      value & opt_all string []
      & info [ "fault"; "f" ] ~docv:"CLAUSE"
          ~doc:
            "One plan clause; repeatable. Beyond the $(b,synts chaos) \
             grammar this command executes the churn clauses: \
             $(b,join:P:U-V,..\\@T), $(b,join:P\\@T), $(b,leave:P\\@T), \
             $(b,flap:P\\@T+D), composable with $(b,crash:P\\@T), \
             $(b,recover:P\\@T+D) and $(b,partition:A,B\\@T1-T2).")
  in
  let plan_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "A whole plan as one string of $(b,;)-separated clauses \
             (combined with any $(b,--fault) clauses).")
  in
  let no_check_t =
    Arg.(
      value & flag
      & info [ "no-check" ]
          ~doc:
            "Skip the internal exactness check (translating every \
             delivered stamp into the final epoch and comparing all \
             ordered pairs against the tracked causal past).")
  in
  let churn_format_t =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"Report as $(b,text) or $(b,json).")
  in
  let run seed topo messages fault_specs plan_spec no_check format metrics =
    let parse_clauses = function
      | Ok acc, spec -> (
          match Fault_plan.of_string spec with
          | Ok fs -> Ok (acc @ fs)
          | Error e -> Error e)
      | (Error _ as e), _ -> e
    in
    let plan =
      match
        List.fold_left
          (fun acc s -> parse_clauses (acc, s))
          (Ok [])
          (Option.to_list plan_spec @ fault_specs)
      with
      | Ok p -> p
      | Error e ->
          prerr_endline ("synts churn: " ^ e);
          exit 2
    in
    if metrics <> None then begin
      Telemetry.set_enabled true;
      Telemetry.reset ()
    end;
    let g = realize_topology seed topo in
    (match Fault_plan.validate ~n:(Graph.n g) plan with
    | Ok () -> ()
    | Error e ->
        prerr_endline ("synts churn: " ^ e);
        exit 2);
    let injector = Injector.create ~seed plan in
    let mem, o =
      match
        Churn.run ~seed ~faults:injector ~check:(not no_check) ~graph:g
          ~messages ()
      with
      | Ok r -> r
      | Error e ->
          prerr_endline ("synts churn: " ^ e);
          exit 3
    in
    let findings =
      Epoch_lint.audit mem
      @ List.map
          (fun kind ->
            Synts_lint.Rules.finding "fault/unobserved"
              Synts_lint.Finding.Global
              (Printf.sprintf
                 "plan declares %s faults but none fired during the run" kind))
          (Injector.unobserved injector)
    in
    if metrics <> None then Lint.record findings;
    (* Exit-code contract, shared with synts chaos (doc/CLI.md): 0
       clean; 1 exactness loss — a checked ordered pair's stamp order
       disagreed with causality across an epoch boundary; 2 plan
       parse/validation errors, including deltas the membership rejected
       at runtime; 3 other error-severity findings (epoch/* audit). *)
    let exactness_lost = o.Churn.mismatches > 0 in
    let code =
      if exactness_lost then 1
      else if o.Churn.delta_failures > 0 then 2
      else if Finding.errors findings > 0 then 3
      else 0
    in
    (match format with
    | `Json ->
        let breakdown_json =
          String.concat ","
            (List.map
               (fun (kind, consulted, fired) ->
                 Printf.sprintf
                   {|{"kind":%S,"consulted":%d,"fired":%d,"observed":%b}|}
                   kind consulted fired (fired > 0))
               (Injector.breakdown injector))
        in
        Printf.printf
          {|{"topology":%S,"seed":%d,"plan":%S,"messages":{"requested":%d,"delivered":%d,"skipped":%d,"blocked":%d},"epochs":{"final":%d,"width":%d,"deltas_applied":%d,"delta_failures":%d,"repairs":%d,"recomputes":%d,"live_components":%d,"frozen_components":%d},"frames":{"translated":%d,"view_syncs":%d},"processes":{"crashes":%d,"recoveries":%d},"faults":[%s],"exactness":{"checked":%b,"comparisons":%d,"mismatches":%d,"exact":%b},"lint":%s,"exactness_lost":%b,"exit_code":%d}|}
          (topo_to_string topo) seed
          (Fault_plan.to_string plan)
          messages o.Churn.delivered o.Churn.skipped o.Churn.blocked
          o.Churn.final_epoch o.Churn.final_width o.Churn.deltas_applied
          o.Churn.delta_failures (Membership.repairs mem)
          (Membership.recomputes mem)
          (Membership.live_components mem)
          (Membership.frozen_components mem)
          o.Churn.translated_frames o.Churn.view_syncs o.Churn.crashes
          o.Churn.recoveries breakdown_json (not no_check)
          o.Churn.comparisons o.Churn.mismatches (Churn.exact o)
          (Lint.to_json findings) exactness_lost code;
        print_newline ()
    | `Text ->
        Format.printf "churn %s  seed %d  plan: %s@." (topo_to_string topo)
          seed
          (if plan = [] then "(none)" else Fault_plan.to_string plan);
        Format.printf
          "messages  : %d delivered, %d skipped (no live channel), %d \
           blocked (partition) of %d requested@."
          o.Churn.delivered o.Churn.skipped o.Churn.blocked messages;
        Format.printf
          "epochs    : reached epoch %d (width %d), %d delta(s) applied, %d \
           rejected@."
          o.Churn.final_epoch o.Churn.final_width o.Churn.deltas_applied
          o.Churn.delta_failures;
        Format.printf
          "membership: %d live + %d frozen component(s), %d incremental \
           repair(s), %d full recompute(s)@."
          (Membership.live_components mem)
          (Membership.frozen_components mem)
          (Membership.repairs mem) (Membership.recomputes mem);
        Format.printf
          "frames    : %d stale-epoch frame(s) translated on receipt, %d \
           view catch-up(s)@."
          o.Churn.translated_frames o.Churn.view_syncs;
        Format.printf "processes : %d crash(es), %d recovery(ies)@."
          o.Churn.crashes o.Churn.recoveries;
        Format.printf "faults    : %s@."
          (match Injector.breakdown injector with
          | [] -> "(none injected)"
          | bk ->
              String.concat " "
                (List.map
                   (fun (k, consulted, fired) ->
                     Printf.sprintf "%s=%d/%d" k fired consulted)
                   bk));
        (if no_check then
           Format.printf "exactness : (unchecked — --no-check)@."
         else
           Format.printf
             "exactness : %d ordered pair(s) checked across epochs, %d \
              mismatch(es)%s@."
             o.Churn.comparisons o.Churn.mismatches
             (if o.Churn.mismatches = 0 then "" else " — EXACTNESS LOST"));
        Format.printf "@.%a@." Lint.pp_report findings);
    (match metrics with
    | None -> ()
    | Some fmt ->
        print_newline ();
        dump_metrics fmt);
    exit code
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Run the Figure 5 protocol under membership churn: join/leave/flap \
          clauses open new epochs (incremental decomposition repair, full \
          recompute only past the min(beta(G), N-2) clamp), stamps travel \
          as epoch-tagged frames and stale frames are translated through \
          the remap chain on receipt; composable with crashes, recoveries \
          and partitions from the same plan grammar. The run is audited by \
          the epoch/* lint rules and (unless --no-check) checked for \
          cross-epoch exactness against the tracked causal past. Exit \
          codes: 0 clean, 1 exactness lost, 2 plan parse/validation error \
          (including deltas rejected at runtime), 3 other error-severity \
          findings. Deterministic from --seed.")
    Term.(
      const run $ seed_t $ topology_t $ messages_t $ fault_t $ plan_t
      $ no_check_t $ churn_format_t $ metrics_t)

let bench_diff_cmd =
  let module Bench_io = Synts_bench_io.Bench_io in
  let old_t =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD"
          ~doc:"Baseline bench JSON (e.g. the committed BENCH_baseline.json).")
  in
  let new_t =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW"
          ~doc:"Fresh bench JSON (from $(b,bench/main.exe --json FILE)).")
  in
  let threshold_t =
    Arg.(
      value & opt float 0.25
      & info [ "threshold"; "t" ] ~docv:"FRAC"
          ~doc:
            "Relative change that counts as a regression/improvement \
             (0.25 = 25%).")
  in
  let run old_path new_path threshold =
    match (Bench_io.load old_path, Bench_io.load new_path) with
    | Error e, _ | _, Error e ->
        Printf.eprintf "bench-diff: %s\n" e;
        exit 2
    | Ok old_run, Ok new_run ->
        let d = Bench_io.diff ~threshold old_run new_run in
        print_string (Bench_io.render_diff ~threshold ~old_run ~new_run d);
        if Bench_io.has_regression d then exit 1
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two bench baseline files (written by $(b,bench/main.exe \
          --json)) and exit non-zero if any test regressed beyond the \
          threshold in time or allocation.")
    Term.(const run $ old_t $ new_t $ threshold_t)

let () =
  let doc =
    "Timestamping messages in synchronous computations (Garg & \
     Skawratananond, ICDCS 2002)"
  in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "synts" ~version:"1.0.0" ~doc)
          [
            figures_cmd; experiments_cmd; decompose_cmd; simulate_cmd;
            analyze_cmd; monitor_cmd; offline_cmd; serve_cmd; load_cmd;
            top_cmd; protocol_cmd;
            verify_cmd; lint_cmd; model_cmd; metrics_cmd; trace_cmd; chaos_cmd;
            churn_cmd; bench_diff_cmd;
          ]))
