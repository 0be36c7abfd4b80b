module Tm = Synts_telemetry.Telemetry
module Wire = Synts_clock.Wire
module Admin = Synts_obs.Admin
module Merge = Synts_obs.Merge
module Tracer = Synts_trace.Tracer
module Tracelog = Synts_trace.Tracelog
module Ingest = Synts_ingest.Ingest
module Stream = Synts_core.Offline.Stream

let merged_snapshot service =
  Merge.snapshots (Tm.snapshot () :: Service.telemetry_snapshots service)

let stats service =
  let p50_ms, p90_ms, p99_ms = Service.stamp_quantiles service in
  let load =
    match Service.backend service with
    | Service.Online e ->
        let swept, cells, stamped = Engine.load e in
        Some { Admin.swept; cells; stamped }
    | Service.Offline_stream _ -> None
  in
  let conns =
    List.map
      (fun (conn, events_in, stamps_out, dedup_hits, last_seq) ->
        { Admin.conn; events_in; stamps_out; dedup_hits; last_seq })
      (Service.conn_stats service)
  in
  let stream =
    match Service.backend service with
    | Service.Online _ -> None
    | Service.Offline_stream sink ->
        let s = Synts_ingest.Offline_sink.stream sink in
        Some
          {
            Admin.chains = Stream.dimension s;
            live = Stream.live s;
            retired = Stream.retired s;
            width = Stream.width s;
            exact = Stream.exact_width s;
            repairs = Stream.repairs s;
          }
  in
  {
    Admin.backend = Service.backend_name service;
    clients = Service.clients service;
    batches = Service.batches service;
    messages = Service.messages_total service;
    internal = Service.internal_total service;
    dedup_hits = Service.dedup_hits service;
    errors = Service.errors service;
    dropped = Service.dropped service;
    pending = Service.pending service;
    p50_ms;
    p90_ms;
    p99_ms;
    load;
    conns;
    stream;
  }

let handle service (req : Admin.request) : Admin.response =
  match req with
  | Admin.Health ->
      let sink =
        match Service.backend service with
        | Service.Online e -> Engine.ingest e
        | Service.Offline_stream s -> Synts_ingest.Offline_sink.ingest s
      in
      Health_r
        {
          ok = true;
          backend = Service.backend_name service;
          processes = Ingest.processes sink;
          dimension = Ingest.dimension sink;
        }
  | Admin.Metrics fmt ->
      let snap = merged_snapshot service in
      Metrics_r
        (match fmt with
        | Admin.Prom -> Tm.to_prometheus snap
        | Admin.Json -> Tm.to_json snap)
  | Admin.Stats -> Stats_r (stats service)
  | Admin.Tracedump ->
      let spans = Tracer.to_list () in
      let dropped = Tracer.dropped Tracer.default in
      Tracedump_r
        {
          dropped;
          spans = List.length spans;
          jsonl = Tracelog.to_string ~dropped spans;
        }

let handle_raw service raw =
  let reply resp = Wire.frame (Admin.encode_response resp) in
  match Wire.unframe raw with
  | Error e -> reply (Error_r ("bad frame: " ^ e))
  | Ok body -> (
      match Admin.decode_request body with
      | Error e -> reply (Error_r ("bad admin request: " ^ e))
      | Ok req -> reply (handle service req))
