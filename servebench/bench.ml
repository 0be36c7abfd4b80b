(* One benchmark run: spawn [synts serve], drive it over one connection
   in a closed loop, check every reply, and report the metrics. *)

module Decomposition = Synts_graph.Decomposition
module Membership = Synts_graph.Membership
module Engine = Synts_server.Engine
module Protocol = Synts_server.Protocol
module Ingest = Synts_ingest.Ingest

type config = {
  workload : Workload.t;
  seed : int;
  seconds : float;
  trace : bool;
  exe : string;  (** The [synts] executable. *)
  dir : string;  (** Where sockets and span files go. *)
  corrupt_after : int option;
      (** Test hook: alter one stamp of the first stamped reply at or
          after this index, as a corrupted reply would arrive. *)
}

let setup_spawns = 15
let warmup_of seconds = Float.max 0.5 (0.1 *. seconds)

(* {1 The closed loop} *)

(* Each daemon's timed phase is cut into [windows] windows; rates and
   latency percentiles are reported as medians over the windows, so a
   burst of interference from outside the benchmark moves them only if
   it lasts through half the phase. *)
let windows = 2

type window = {
  ns : int;
  w_events : int;
  cpu_ns : int;  (** Daemon on-CPU time. *)
  first : int;  (** Its [Observe] round trips: [batch] samples [first, last). *)
  last : int;
}

type segment = {
  batch : Stats.samples;  (** [Observe] round trips, us. *)
  drain : Stats.samples;  (** [Drain] round trips, us. *)
  mutable events : int;
  mutable requests : int;
  mutable wall_ns : int;
  mutable bytes : int;
  mutable windows : window list;
}

let segment () =
  { batch = Stats.samples ~capacity:65536 (); drain = Stats.samples (); events = 0;
    requests = 0; wall_ns = 0; bytes = 0; windows = [] }

let window_median seg f =
  match List.filter_map f seg.windows with
  | [] -> None
  | xs -> Some (Stats.median (Array.of_list xs))

let events_per_s s = float s.events /. (float s.wall_ns *. 1e-9)

type client = {
  conn : Conn.t;
  stream : Workload.stream;
  cursor : Workload.cursor;
  recorder : Check.recorder;
  mutable sent : int;  (** Requests sent: the index of the next one. *)
  mutable exhausted : bool;
  mutable corrupt_after : int option;
}

(* With tracing: the span store; the [read] count at each send from
   request [traced_from] on (the twin's chunking); and a [Hello] round
   trip after every [hello_every] requests, once the replies in flight
   are in, for the transport cost amid the workload's own traffic. *)
type tracing = {
  spans : Spans.t;
  traced_from : int;
  mutable chunks : int array;
  hello_rtt : Stats.samples;  (** ns *)
  mutable hello_due : bool;
}

let hello_every = 64
let hello = Conn.encode Protocol.Hello

let hello_rtt conn =
  let t0 = Spans.now () in
  Conn.send conn hello;
  let frame = Conn.recv conn in
  let ns = Spans.now () - t0 in
  (match Conn.decode frame with
  | Welcome _ -> ()
  | r -> Format.kasprintf failwith "unexpected hello reply: %a" Protocol.pp_response r);
  float ns

let corrupt (reply : Protocol.response) =
  match reply with
  | Outcomes outs -> (
      match Array.find_opt (function Ingest.Stamped _ -> true | _ -> false) outs with
      | Some (Ingest.Stamped v) when Array.length v > 0 ->
          v.(0) <- v.(0) + 1;
          true
      | _ -> false)
  | _ -> false

(* Run requests until [deadline] (monotonic ns), keeping
   [workload.inflight] of them outstanding, then wait for the last
   replies. A round trip runs from the start of encoding the request to
   its decoded reply. *)
let drive ?tracing ?(cpu = fun () -> 0) ?(window_ns = max_int) c ~deadline seg =
  let cap = c.stream.workload.inflight in
  let t0s = Array.make cap 0 and sizes = Array.make cap 0 in
  let head = ref 0 and inflight = ref 0 and stop = ref false in
  let bytes0 = c.conn.bytes_in + c.conn.bytes_out in
  let start = Spans.now () in
  let w_start = ref start and w_events = ref seg.events and w_batch = ref (Stats.count seg.batch)
  and w_cpu = ref (cpu ()) in
  let close_window t =
    let now_cpu = cpu () in
    seg.windows <-
      { ns = t - !w_start; w_events = seg.events - !w_events; cpu_ns = now_cpu - !w_cpu;
        first = !w_batch; last = Stats.count seg.batch }
      :: seg.windows;
    w_start := t;
    w_events := seg.events;
    w_batch := Stats.count seg.batch;
    w_cpu := now_cpu
  in
  let span name f =
    match tracing with
    | None -> f Spans.root
    | Some tr -> Spans.span tr.spans ~name ~req:c.sent f
  in
  let hello_due () = match tracing with Some tr -> tr.hello_due | None -> false in
  while not (!stop && !inflight = 0) do
    (match tracing with
    | Some tr when tr.hello_due && !inflight = 0 ->
        tr.hello_due <- false;
        Stats.add tr.hello_rtt (hello_rtt c.conn)
    | _ -> ());
    if (not !stop) && !inflight < cap && not (hello_due ()) then begin
      let t0 = Spans.now () in
      if t0 >= deadline then stop := true
      else
        match Workload.next c.cursor with
        | None ->
            stop := true;
            c.exhausted <- true
        | Some op ->
            let size =
              match op with Workload.Observe _ -> c.stream.workload.batch | Drain -> -1 | Churn _ -> -2
            in
            (match tracing with
            | None -> Conn.send c.conn (Conn.encode (Workload.request c.stream op))
            | Some tr ->
                let k = c.sent - tr.traced_from in
                tr.chunks <- Check.push tr.chunks k c.conn.reads;
                let b = span Twin.client_encode (fun _ -> Conn.encode (Workload.request c.stream op)) in
                span Twin.client_send (fun _ -> Conn.send c.conn b);
                if (k + 1) mod hello_every = 0 then tr.hello_due <- true);
            let slot = (!head + !inflight) mod cap in
            t0s.(slot) <- t0;
            sizes.(slot) <- size;
            incr inflight;
            c.sent <- c.sent + 1
    end
    else begin
      let reply =
        match tracing with
        | None -> Conn.decode (Conn.recv c.conn)
        | Some tr ->
            let req = c.recorder.replies in
            let frame = Spans.span tr.spans ~name:Twin.client_recv ~req (fun _ -> Conn.recv c.conn) in
            Spans.span tr.spans ~name:Twin.client_decode ~req (fun _ -> Conn.decode frame)
      in
      let t1 = Spans.now () in
      let slot = !head in
      head := (slot + 1) mod cap;
      decr inflight;
      let us = float (t1 - t0s.(slot)) *. 1e-3 in
      (match (sizes.(slot), reply) with
      | k, Outcomes _ when k > 0 ->
          Stats.add seg.batch us;
          seg.events <- seg.events + k
      | -1, Resolved _ -> Stats.add seg.drain us
      | _ -> ());
      seg.requests <- seg.requests + 1;
      if t1 - !w_start >= window_ns then close_window t1;
      (match c.corrupt_after with
      | Some n when c.recorder.replies >= n && corrupt reply -> c.corrupt_after <- None
      | _ -> ());
      match tracing with
      | None -> Check.record c.recorder reply
      | Some tr ->
          Spans.span tr.spans ~name:Twin.check_digest ~req:c.recorder.replies (fun _ ->
              Check.record c.recorder reply)
    end
  done;
  let stop = Spans.now () in
  if stop - !w_start >= window_ns / 2 then close_window stop;
  seg.wall_ns <- seg.wall_ns + (stop - start);
  seg.bytes <- seg.bytes + (c.conn.bytes_in + c.conn.bytes_out - bytes0)

let deadline_after seconds = Spans.now () + int_of_float (seconds *. 1e9)

(* The last reply of every run: flush the remaining internal stamps. *)
let finish c =
  Conn.send c.conn (Conn.encode Protocol.Finish);
  Check.record c.recorder (Conn.decode (Conn.recv c.conn))

(* {1 Runs} *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  notes : string list;  (** Sample counts and check details, for a human. *)
}

let socket_path cfg = Filename.concat cfg.dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))

(* Build everything the run needs before the first spawn. *)
let prepare cfg ~seconds =
  let g = Workload.topology cfg.workload ~seed:cfg.seed in
  let d = Decomposition.best g in
  let stream =
    Workload.make cfg.workload ~seed:cfg.seed ~seconds ~warmup:(warmup_of seconds) d
  in
  (g, d, stream)

(* Run [f] against a started daemon; the daemon is killed if [f] fails. *)
let with_daemon cfg f =
  let daemon, conn, setup =
    Daemon.start ~exe:cfg.exe ~socket:(socket_path cfg) ~seed:cfg.seed cfg.workload
  in
  match f daemon conn setup with
  | x -> x
  | exception e ->
      Daemon.kill daemon;
      raise e

let client cfg stream conn =
  { conn; stream; cursor = Workload.cursor stream;
    recorder = Check.recorder ~seed:cfg.seed ~offline:cfg.workload.offline; sent = 0;
    exhausted = false; corrupt_after = cfg.corrupt_after }

let check_notes (report : Check.report) ~exhausted =
  Printf.sprintf "checked %d replies (%d messages, %d internal events%s): %d failed"
    report.attempted report.messages report.internal
    (if report.pairs > 0 then Printf.sprintf ", %d sampled offline pairs" report.pairs else "")
    report.failed
  :: report.detail
  @ if exhausted then [ "the pre-drawn stream ran out before the time did" ] else []

let percentile_exn name samples p =
  match Stats.percentile (Stats.to_sorted samples) p with
  | Ok r -> r
  | Error e -> failwith (name ^ ": " ^ e)

(* Set-up time of a daemon that is shut down right after its Welcome. *)
let setup_once cfg =
  with_daemon cfg (fun daemon conn s ->
      Daemon.shutdown daemon conn;
      s)

(* The timed phase is shared among [instances] daemons run one after
   another, each on the stream from its start: a daemon's speed varies
   from one process to the next by more than it varies within one. *)
let instances = 5

let merge (a : Check.report) (b : Check.report) =
  { Check.attempted = a.attempted + b.attempted; failed = a.failed + b.failed;
    messages = a.messages + b.messages; internal = a.internal + b.internal;
    pairs = a.pairs + b.pairs; detail = a.detail @ b.detail }

let run_untraced cfg =
  let per_instance = cfg.seconds /. float instances in
  let _g, d, stream = prepare cfg ~seconds:per_instance in
  let seg = segment () in
  let cpu_ns = ref 0 and rss_kb = ref [] and exhausted = ref false in
  let instance () =
    with_daemon cfg (fun daemon conn setup ->
        let c = client cfg stream conn in
        drive c ~deadline:(deadline_after (warmup_of per_instance)) (segment ());
        let cpu () = fst (Daemon.schedstat daemon) in
        let run0 = cpu () in
        let window_ns = int_of_float (per_instance *. 1e9) / windows in
        drive c ~cpu ~window_ns ~deadline:(deadline_after per_instance) seg;
        cpu_ns := !cpu_ns + (cpu () - run0);
        finish c;
        rss_kb := float (Daemon.peak_rss_kb daemon) :: !rss_kb;
        Daemon.shutdown daemon conn;
        exhausted := !exhausted || c.exhausted;
        (setup, Check.verify c.recorder stream d))
  in
  (* Set-ups are spread before, between and after the timed phases. *)
  let before = Array.init ((setup_spawns - instances) / 2) (fun _ -> setup_once cfg) in
  let runs = Array.init instances (fun _ -> instance ()) in
  let after = Array.init ((setup_spawns - instances) / 2) (fun _ -> setup_once cfg) in
  let setups = Array.concat [ before; Array.map fst runs; after ] in
  let report =
    Array.fold_left merge (snd runs.(0)) (Array.sub (Array.map snd runs) 1 (instances - 1))
  in
  let cpu_ns = !cpu_ns in
  (* A window too short for a percentile drops out of its median; when
     all are too short the whole phase is used. *)
  let batch p =
    match
      window_median seg (fun w ->
          match Stats.percentile (Stats.sorted_range seg.batch w.first w.last) p with
          | Ok r -> Some r.value
          | Error _ -> None)
    with
    | Some x -> x
    | None -> (percentile_exn "batch" seg.batch p).value
  in
  let per_window f = Option.get (window_median seg (fun w -> Some (f w))) in
  let drain = percentile_exn "drain" seg.drain 0.5 in
  let events = float seg.events in
  {
    correct = report.failed = 0;
    attempted = report.attempted;
    failed = report.failed;
    metrics =
      [
        ("setup_s", Stats.median setups, "s");
        ("events_per_s",
         per_window (fun w -> float w.w_events /. (float w.ns *. 1e-9)),
         "events/s");
        ("batch_p50_us", batch 0.5, "us");
        ("batch_p99_us", batch 0.99, "us");
        ("drain_p50_us", drain.value, "us");
        ("wire_bytes_per_event", float seg.bytes /. events, "B/event");
        ("server_cpu_us_per_event",
         per_window (fun w -> float w.cpu_ns *. 1e-3 /. float w.w_events),
         "us/event");
        ("server_peak_rss_mb", Stats.median (Array.of_list !rss_kb) /. 1024., "MiB");
        ("ok_frac", float (report.attempted - report.failed) /. float report.attempted, "ratio");
      ];
    notes =
      Printf.sprintf
        "%d daemons; %d Observe round trips (rates and percentiles: medians over %d windows), \
         %d Drain round trips, %d requests, %d events in %.3f s (%.0f events/s, daemon %.3f \
         us/event overall); %d set-ups"
        instances (Stats.count seg.batch) (List.length seg.windows) drain.samples seg.requests seg.events
        (float seg.wall_ns *. 1e-9) (events_per_s seg) (float cpu_ns *. 1e-3 /. events)
        (Array.length setups)
      :: ("events/s per window: "
         ^ String.concat " "
             (List.rev_map
                (fun w -> Printf.sprintf "%.0f" (float w.w_events /. (float w.ns *. 1e-9)))
                seg.windows))
      :: check_notes report ~exhausted:!exhausted;
  }

(* Median wall time of [f ()] over [n] calls, in ms. *)
let median_ms n f =
  Stats.median
    (Array.init n (fun _ ->
         let t0 = Spans.now () in
         ignore (Sys.opaque_identity (f ()));
         float (Spans.now () - t0) *. 1e-6))

let hellos = 2000
let trace_blocks = 10

let run_traced cfg =
  let g, d, stream = prepare cfg ~seconds:cfg.seconds in
  let w = cfg.workload in
  (* Keep full records for about 4096 traced requests. *)
  let keep_every =
    max 1 (int_of_float (float w.peak_events_per_s *. cfg.seconds /. 2. /. float w.batch /. 4096.))
  in
  let spans = Spans.create ~names:Twin.names ~keep_every in
  let decomposition_ms = median_ms 5 (fun () -> Decomposition.best g) in
  let membership_ms = median_ms 5 (fun () -> Membership.create g d) in
  let engine_ms = median_ms 5 (fun () -> Engine.stop (Engine.create d)) in
  let run =
    with_daemon cfg (fun daemon conn _setup ->
        let c = client cfg stream conn in
        drive c ~deadline:(deadline_after (warmup_of cfg.seconds)) (segment ());
        let tr =
          { spans; traced_from = c.sent; chunks = Array.make 4096 0;
            hello_rtt = Stats.samples (); hello_due = false }
        in
        (* Traced and untraced blocks alternate, so that both see the
           same daemon state and their rates differ only by the tracing. *)
        let traced = segment () and untraced = segment () in
        let wait = ref 0 and cpu = ref 0 and traced_to = ref c.sent in
        for b = 0 to (2 * trace_blocks) - 1 do
          let deadline = deadline_after (cfg.seconds /. float (2 * trace_blocks)) in
          if b mod 2 = 0 then begin
            let _, wait0 = Daemon.schedstat daemon in
            drive ~tracing:tr c ~deadline traced;
            wait := !wait + (snd (Daemon.schedstat daemon) - wait0);
            traced_to := c.sent
          end
          else begin
            let from = c.sent and run0, _ = Daemon.schedstat daemon in
            drive c ~deadline untraced;
            cpu := !cpu + (fst (Daemon.schedstat daemon) - run0);
            for k = from to c.sent - 1 do
              tr.chunks <- Check.push tr.chunks (k - tr.traced_from) (-1)
            done
          end
        done;
        finish c;
        Daemon.shutdown daemon conn;
        (c, tr, traced, untraced, !traced_to, !wait, !cpu, Stats.median (Stats.to_sorted tr.hello_rtt)))
  in
  let c, tr, traced, untraced, traced_to, wait_ns, cpu_ns, rtt_ns = run in
  let report = Check.verify c.recorder stream d in
  (* The twin: replay up to the end of the last traced block. *)
  let twin = Twin.create spans stream d in
  let chunk_of k = tr.chunks.(k - tr.traced_from) in
  let replayed =
    Twin.replay twin ~upto:traced_to ~traced_from:tr.traced_from ~chunk_of
      ~deadline:(deadline_after (3. *. cfg.seconds))
  in
  let hello_ns = Twin.hello_ns twin ~n:hellos in
  let tc = twin.counts in
  Twin.release twin;
  let per n x = float x /. float (max 1 n) in
  let self = Spans.self_ns spans and words = Spans.self_words spans in
  (* Accounting: every per-event self time on the request path, plus the
     transport share, against the untraced time per event. *)
  let transport_ns = rtt_ns -. hello_ns in
  let client_ns =
    per traced.events (self Twin.client_encode + self Twin.client_decode + self Twin.check_digest)
  in
  let twin_ns = per tc.events (List.fold_left (fun acc n -> acc + self n) 0 Twin.daemon_path) in
  let accounted = client_ns +. twin_ns +. (transport_ns *. per traced.events traced.requests) in
  let untraced_eps = events_per_s untraced in
  (* Layers this workload's daemon does not run, timed on its inputs. *)
  let probe_observes = max 1 (16384 / w.batch) in
  let probe_events, probe_resolved = Twin.probe_backend spans stream d ~observes:probe_observes in
  if w.churn_every = 0 then Twin.probe_churn spans g d ~seed:cfg.seed ~deltas:8;
  let engine_events, engine_resolved, sink_events =
    if w.offline then (probe_events, probe_resolved, tc.events) else (tc.events, tc.resolved, probe_events)
  in
  let trace_file =
    Filename.concat cfg.dir (Printf.sprintf "trace-%s-seed%d.jsonl" w.name cfg.seed)
  in
  Spans.write spans trace_file;
  let churns = Spans.count spans Twin.membership_apply in
  {
    correct = report.failed = 0 && tc.errors = 0;
    attempted = report.attempted;
    failed = report.failed;
    metrics =
      [
        ("server.transport_us_per_request", transport_ns *. 1e-3, "us");
        ("server.runqueue_us_per_request", per traced.requests wait_ns *. 1e-3, "us");
        ("server.bye_check_ns_per_request", per tc.requests (self Twin.bye_check), "ns");
        ("frame.send_ns_per_frame", per tc.requests (self Twin.frame_send), "ns");
        ("frame.reassembly_ns_per_frame", per tc.frames (self Twin.frame_feed + self Twin.frame_next), "ns");
        ("frame.alloc_words_per_frame", per tc.frames (words Twin.frame_feed + words Twin.frame_next), "words");
        ("wire.frame_ns_per_byte", per tc.response_frame_bytes (self Twin.wire_frame), "ns/B");
        ("wire.unframe_ns_per_byte", per tc.request_bytes (self Twin.wire_unframe), "ns/B");
        ("protocol.decode_ns_per_event", per tc.events (self Twin.protocol_decode), "ns");
        ("protocol.encode_ns_per_event", per tc.events (self Twin.protocol_encode), "ns");
        ("protocol.alloc_words_per_event",
         per tc.events (words Twin.protocol_decode + words Twin.protocol_encode), "words");
        ("protocol.response_bytes_per_event", per tc.events tc.response_bytes, "B");
        ("service.self_ns_per_request", per tc.requests (self Twin.service_handle), "ns");
        ("service.alloc_words_per_request", per tc.requests (words Twin.service_handle), "words");
        ("engine.observe_ns_per_event", per engine_events (self Twin.engine_observe), "ns");
        ("engine.alloc_words_per_event", per engine_events (words Twin.engine_observe), "words");
        ("engine.drain_ns_per_resolved", per engine_resolved (self Twin.engine_drain), "ns");
        ("engine.create_ms", engine_ms, "ms");
        ("offline_sink.observe_ns_per_event", per sink_events (self Twin.sink_observe), "ns");
        ("offline_sink.alloc_words_per_event", per sink_events (words Twin.sink_observe), "words");
        ("membership.create_ms", membership_ms, "ms");
        ("membership.churn_ms_per_delta", per churns (self Twin.membership_apply) *. 1e-6, "ms");
        ("decomposition.best_ms", decomposition_ms, "ms");
        ("client.encode_ns_per_event", per traced.events (self Twin.client_encode), "ns");
        ("client.decode_ns_per_event", per traced.events (self Twin.client_decode), "ns");
        ("client.alloc_words_per_event",
         per traced.events (words Twin.client_encode + words Twin.client_decode), "words");
        ("check.digest_ns_per_event", per traced.events (self Twin.check_digest), "ns");
        ("trace.overhead_frac", 1. -. (events_per_s traced /. untraced_eps), "ratio");
        ("trace.twin_requests", float tc.requests, "count");
        ("accounting.closure_ratio", accounted /. (1e9 /. untraced_eps), "ratio");
      ];
    notes =
      Printf.sprintf
        "traced blocks %.0f events/s, untraced blocks %.0f events/s; twin replayed %d of %d \
         requests, %d of them traced (%d by the client); accounted %.1f ns of %.1f ns per event \
         (client %.1f, daemon path %.1f, transport %.1f; the daemon itself ran %.1f in untraced \
         blocks); spans in %s"
        (events_per_s traced) untraced_eps replayed traced_to tc.requests traced.requests
        accounted (1e9 /. untraced_eps) client_ns twin_ns
        (transport_ns *. per traced.events traced.requests) (per untraced.events cpu_ns) trace_file
      :: check_notes report ~exhausted:c.exhausted;
  }

let run cfg =
  (try Unix.mkdir cfg.dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  if cfg.trace then run_traced cfg else run_untraced cfg

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let to_json r =
  let metric (name, value, unit) =
    Printf.sprintf {|%S: {"value": %s, "unit": %S}|} name (json_number value) unit
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} r.correct
    r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))
