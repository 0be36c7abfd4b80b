module Topology = Synts_graph.Topology
module Decomposition = Synts_graph.Decomposition
module Trace = Synts_sync.Trace
module Wire = Synts_clock.Wire
module Ingest = Synts_ingest.Ingest
module Telemetry = Synts_telemetry.Telemetry
module Log = Synts_obs.Log
module Merge = Synts_obs.Merge
module Admin = Synts_obs.Admin
module Engine = Synts_server.Engine
module Service = Synts_server.Service
module Protocol = Synts_server.Protocol
module Injector = Synts_fault.Injector
module Plan = Synts_fault.Plan
module Gen = Synts_test_support.Gen

let qtest ?(count = 100) name gen print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen f)

let events_of_trace trace =
  Array.of_list (List.map Ingest.event_of_step (Trace.steps trace))

(* ---------- structured log records ---------- *)

let test_log_render_text () =
  Alcotest.(check string) "text line"
    "[WARN] tick=7 engine: queue full cap=65536 dropped=3"
    (Log.render_text Log.Warn ~tick:7 ~component:"engine"
       ~kv:[ ("cap", "65536"); ("dropped", "3") ]
       "queue full")

let test_log_render_jsonl () =
  Alcotest.(check string) "jsonl line"
    "{\"level\": \"info\", \"tick\": 3, \"component\": \"server\", \"msg\": \
     \"said \\\"hi\\\"\", \"batches\": \"2\"}"
    (Log.render_jsonl Log.Info ~tick:3 ~component:"server"
       ~kv:[ ("batches", "2") ]
       "said \"hi\"")

(* Severity filtering and the monotone default tick, observed through a
   custom sink. Defaults are restored so other tests keep stderr text. *)
let test_log_filtering () =
  let lines = ref [] in
  Log.set_sink (Custom (fun l -> lines := l :: !lines));
  Log.set_level Log.Warn;
  Fun.protect
    ~finally:(fun () ->
      Log.set_level Log.Info;
      Log.set_sink (Text stderr))
    (fun () ->
      let before = Log.records () in
      Log.info ~component:"x" "dropped by level";
      Log.warn ~component:"x" ~tick:1 "kept";
      Log.error ~component:"y" "kept too";
      Alcotest.(check int) "two records" (before + 2) (Log.records ());
      Alcotest.(check int) "two lines" 2 (List.length !lines);
      Alcotest.(check bool) "filtered out" false
        (List.exists
           (fun l ->
             let n = String.length "dropped by level" in
             let m = String.length l in
             let rec at i =
               (i + n <= m && String.sub l i n = "dropped by level")
               || (i + n <= m && at (i + 1))
             in
             at 0)
           !lines))

(* ---------- merge semantics ---------- *)

let hist ?(bounds = [| 1.; 2. |]) counts inf sum count min max =
  Telemetry.Histogram_v
    {
      buckets = Array.map2 (fun b c -> (b, c)) bounds counts;
      inf;
      sum;
      count;
      min;
      max;
    }

let empty_hist = hist [| 0; 0 |] 0 0. 0 Float.infinity Float.neg_infinity

let test_merge_values () =
  Alcotest.(check bool) "counters add" true
    (Merge.value (Telemetry.Counter_v 3) (Telemetry.Counter_v 4)
    = Telemetry.Counter_v 7);
  Alcotest.(check bool) "gauges max" true
    (Merge.value (Telemetry.Gauge_v 3) (Telemetry.Gauge_v 9)
    = Telemetry.Gauge_v 9);
  Alcotest.(check bool) "histograms add pointwise" true
    (Merge.value
       (hist [| 1; 0 |] 2 7.5 3 0.5 6.)
       (hist [| 0; 2 |] 1 4.0 3 1.5 2.)
    = hist [| 1; 2 |] 3 11.5 6 0.5 6.);
  Alcotest.(check bool) "empty histogram is the identity" true
    (Merge.value empty_hist (hist [| 1; 1 |] 0 2.5 2 0.5 2.)
    = hist [| 1; 1 |] 0 2.5 2 0.5 2.)

let test_merge_mismatch () =
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Obs.Merge: metric kind mismatch") (fun () ->
      ignore (Merge.value (Telemetry.Counter_v 1) (Telemetry.Gauge_v 1)));
  match
    Merge.value
      (hist ~bounds:[| 1.; 2. |] [| 0; 0 |] 0 0. 0 Float.infinity
         Float.neg_infinity)
      (hist ~bounds:[| 1.; 3. |] [| 0; 0 |] 0 0. 0 Float.infinity
         Float.neg_infinity)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bucket-bounds mismatch must raise"

let test_merge_snapshots_sorted () =
  let merged =
    Merge.snapshots
      [
        [ ("z.late", Telemetry.Counter_v 1); ("a.early", Telemetry.Gauge_v 2) ];
        [ ("m.mid", Telemetry.Counter_v 5); ("z.late", Telemetry.Counter_v 4) ];
      ]
  in
  Alcotest.(check bool) "sorted, summed" true
    (merged
    = [
        ("a.early", Telemetry.Gauge_v 2);
        ("m.mid", Telemetry.Counter_v 5);
        ("z.late", Telemetry.Counter_v 5);
      ]);
  Alcotest.(check bool) "empty" true (Merge.snapshots [] = [])

(* ---------- admin codec ---------- *)

let request_gen =
  QCheck2.Gen.oneofl
    [
      Admin.Health;
      Admin.Metrics Admin.Prom;
      Admin.Metrics Admin.Json;
      Admin.Stats;
      Admin.Tracedump;
    ]

(* Finite floats only: the 8-byte BE IEEE encoding roundtrips any bits,
   but structural equality on NaN would be vacuously false. *)
let qfloat =
  QCheck2.Gen.(map (fun i -> float_of_int i /. 16.) (int_bound 100000))

let load_gen =
  QCheck2.Gen.(
    map
      (fun (swept, cells, stamped) -> { Admin.swept; cells; stamped })
      (triple (int_bound 10000) (int_bound 10000) (int_bound 10000)))

let conn_stat_gen =
  QCheck2.Gen.(
    map2
      (fun (conn, events_in, stamps_out) (dedup_hits, last_seq) ->
        { Admin.conn; events_in; stamps_out; dedup_hits; last_seq })
      (triple (int_bound 64) (int_bound 10000) (int_bound 10000))
      (pair (int_bound 100) (int_range (-1) 10000)))

let stream_stat_gen =
  QCheck2.Gen.(
    map2
      (fun (chains, live, retired) (width, exact, repairs) ->
        { Admin.chains; live; retired; width; exact; repairs })
      (triple (int_bound 100) (int_bound 1000) (int_bound 1000))
      (triple (int_bound 100) bool (int_bound 50)))

let stats_gen =
  QCheck2.Gen.(
    map
      (fun ( (backend, clients, batches, messages),
             (internal, dedup_hits, errors, dropped),
             (pending, p50_ms, p90_ms, p99_ms),
             (load, conns, stream) ) ->
        {
          Admin.backend;
          clients;
          batches;
          messages;
          internal;
          dedup_hits;
          errors;
          dropped;
          pending;
          p50_ms;
          p90_ms;
          p99_ms;
          load;
          conns;
          stream;
        })
      (quad
         (quad (string_size (int_bound 12)) (int_bound 64) (int_bound 10000)
            (int_bound 10000))
         (quad (int_bound 10000) (int_bound 100) (int_bound 100)
            (int_bound 100))
         (quad (int_bound 10000) qfloat qfloat qfloat)
         (triple (option load_gen)
            (list_size (int_bound 4) conn_stat_gen)
            (option stream_stat_gen))))

let response_gen =
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun (ok, processes, dimension) backend ->
            Admin.Health_r { ok; backend; processes; dimension })
          (triple bool (int_bound 1000) (int_bound 100))
          (string_size (int_bound 12));
        map (fun s -> Admin.Metrics_r s) (string_size (int_bound 64));
        map (fun s -> Admin.Stats_r s) stats_gen;
        map2
          (fun (dropped, spans) jsonl ->
            Admin.Tracedump_r { dropped; spans; jsonl })
          (pair (int_bound 100) (int_bound 1000))
          (string_size (int_bound 64));
        map (fun e -> Admin.Error_r e) (string_size (int_bound 40));
      ])

let test_request_roundtrip =
  qtest ~count:100 "admin request codec roundtrips" request_gen
    (Format.asprintf "%a" Admin.pp_request) (fun req ->
      Admin.decode_request (Admin.encode_request req) = Ok req)

let test_response_roundtrip =
  qtest ~count:300 "admin response codec roundtrips" response_gen
    (Format.asprintf "%a" Admin.pp_response) (fun resp ->
      Admin.decode_response (Admin.encode_response resp) = Ok resp)

(* Each admin message in its frame, checked by hand against the layout:
   the header — the version byte 03 and the body's varint checksum — then
   the body, a tag in 0x20-0x24 and the fields. Every body is the hex the
   version-2 codec wrote: only the header moved when the checksum went
   from FNV-1a to the four-lane hash. *)
let golden_admin () =
  let check label (header, golden) body =
    Alcotest.(check string) (label ^ " body") golden (Gen.hex body);
    Alcotest.(check string) label (header ^ golden) (Gen.hex (Wire.frame body))
  in
  List.iter
    (fun (req, golden) ->
      check
        (Format.asprintf "%a" Admin.pp_request req)
        golden (Admin.encode_request req))
    [
      (Admin.Health, ("0384a6e2ea0b", "20"));
      (Admin.Metrics Admin.Json, ("0396f7e0e703", "2101"));
      (Admin.Stats, ("039df485cb05", "22"));
      (Admin.Tracedump, ("039b90a1c202", "23"));
    ];
  let conns =
    [
      {
        Admin.conn = 0;
        events_in = 200;
        stamps_out = 180;
        dedup_hits = 1;
        last_seq = -1;
      };
      {
        Admin.conn = 1;
        events_in = 120;
        stamps_out = 120;
        dedup_hits = 0;
        last_seq = 9;
      };
    ]
  in
  let stats backend ~dropped ~load ~stream =
    Admin.Stats_r
      {
        backend;
        clients = 2;
        batches = 10;
        messages = 300;
        internal = 20;
        dedup_hits = 1;
        errors = 0;
        dropped;
        pending = 4;
        p50_ms = 0.25;
        p90_ms = 1.5;
        p99_ms = 12.75;
        load;
        conns;
        stream;
      }
  in
  List.iter
    (fun (resp, golden) ->
      check (Format.asprintf "%a" Admin.pp_response resp) golden
        (Admin.encode_response resp))
    [
      (* tag 20, ok 01, backend 06 "online", processes 8002, dimension 08 *)
      ( Admin.Health_r
          { ok = true; backend = "online"; processes = 256; dimension = 8 },
        ("038ee6f3b00d", "2001066f6e6c696e65800208") );
      ( Admin.Metrics_r "server_requests 7\n",
        ("03c293dfe802", "21127365727665725f726571756573747320370a") );
      (* ... the three quantiles, then load 01 c002 8014 ac02, the two
         connection rows, stream 00. *)
      ( stats "online" ~dropped:0
          ~load:(Some { Admin.swept = 320; cells = 2560; stamped = 300 })
          ~stream:None,
        ( "03f0f7d8e808",
          "22066f6e6c696e65020aac0214010000043fd0000000000000"
          ^ "3ff8000000000000402980000000000001c0028014ac020200c801b40101"
          ^ "00017878000a00" ) );
      (* ... load 00, the two connection rows, stream 01 and its six
         fields. *)
      ( stats "offline-stream" ~dropped:3 ~load:None
          ~stream:
            (Some
               {
                 Admin.chains = 3;
                 live = 40;
                 retired = 260;
                 width = 3;
                 exact = true;
                 repairs = 2;
               }),
        ( "0386e4ea7b",
          "220e6f66666c696e652d73747265616d020aac0214010003043f"
          ^ "d00000000000003ff80000000000004029800000000000000200c801b40101"
          ^ "00017878000a0103288402030102" ) );
      ( Admin.Tracedump_r { dropped = 0; spans = 1; jsonl = "{}\n" },
        ("03edb2e468", "230001037b7d0a") );
      ( Admin.Error_r "unknown admin request tag 9",
        ( "0389dfb0b80c",
          "241b756e6b6e6f776e2061646d696e20726571756573742074" ^ "61672039"
        ) );
    ]

(* String lengths and list counts read from the wire are bounded by the
   bytes left before anything is allocated for them. *)
let test_admin_oversized () =
  List.iter
    (fun (name, body) ->
      match Admin.decode_response body with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s decoded" name)
    [
      ("metrics max_int bytes", "\x21" ^ Gen.varint max_int ^ "x");
      ("error 2^60 bytes", "\x24" ^ Gen.varint (1 lsl 60) ^ "x");
      ( "stats 2^60 conns",
        "\x22\x00" ^ String.make 8 '\x00' ^ String.make 24 '\x00' ^ "\x00"
        ^ Gen.varint (1 lsl 60) );
    ]

let test_admin_request_total =
  qtest ~count:1000 "admin decode_request is total and canonical"
    (Gen.hostile (QCheck2.Gen.map Admin.encode_request request_gen))
    Gen.hex
    (Gen.total_decoder Admin.decode_request (fun s r ->
         Admin.encode_request r = s))

let test_admin_response_total =
  qtest ~count:1000 "admin decode_response is total and canonical"
    (Gen.hostile (QCheck2.Gen.map Admin.encode_response response_gen))
    Gen.hex
    (Gen.total_decoder Admin.decode_response (fun s r ->
         Admin.encode_response r = s))

(* One tag byte names both the plane and the verb: admin tags start at
   0x20, past the data plane's 0-9, so each plane's decoders refuse
   every body of the other plane. *)
let plane_body_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun r -> `Data (Protocol.encode_request r)) Gen.serve_request;
        map (fun r -> `Data (Protocol.encode_response r)) Gen.serve_response;
        map (fun r -> `Admin (Admin.encode_request r)) request_gen;
        map (fun r -> `Admin (Admin.encode_response r)) response_gen;
      ])

let test_planes_refuse_each_other =
  qtest ~count:500 "planes refuse each other's bodies" plane_body_gen
    (function
      | `Data body -> "data " ^ Gen.hex body
      | `Admin body -> "admin " ^ Gen.hex body)
    (function
      | `Data body ->
          Result.is_error (Admin.decode_request body)
          && Result.is_error (Admin.decode_response body)
      | `Admin body ->
          Result.is_error (Protocol.decode_request body)
          && Result.is_error (Protocol.decode_response body))

(* ---------- the engine registry ---------- *)

let run_engine ~batch events d =
  let e = Engine.create d in
  Fun.protect
    ~finally:(fun () -> Engine.stop e)
    (fun () ->
      let total = Array.length events in
      let off = ref 0 in
      while !off < total do
        let len = min batch (total - !off) in
        ignore (Engine.observe_batch e (Array.sub events !off len));
        off := !off + len
      done;
      ignore (Engine.finish e);
      Engine.telemetry_snapshot e)

(* The engine flushes its counters once per batch; the registry must
   equal a one-batch run's — same names, same counts, same histogram
   buckets — whatever the batching. *)
let test_registry_batch_invariant =
  qtest ~count:60 "registry is batch-size invariant" Gen.computation
    Gen.computation_print (fun c ->
      let g, trace = Gen.build_computation c in
      let d = Decomposition.best g in
      let events = events_of_trace trace in
      run_engine ~batch:7 events d = run_engine ~batch:1024 events d)

(* The same property through the byte-level service path with a fault
   injector duplicating and corrupting deliveries: seq dedup and the
   wire checksum keep the engine's effective stream clean, so its
   registry still equals the clean run's. *)
let faulty_gen = QCheck2.Gen.(pair Gen.computation Gen.rng_seed)

let faulty_print (c, seed) =
  Printf.sprintf "%s inj_seed=%d" (Gen.computation_print c) seed

let test_registry_under_faults =
  qtest ~count:25 "registry survives dup/corrupt delivery" faulty_gen
    faulty_print (fun (c, seed) ->
      let g, trace = Gen.build_computation c in
      let d = Decomposition.best g in
      let events = events_of_trace trace in
      let oracle = run_engine ~batch:9 events d in
      let service = Service.create d in
      Fun.protect
        ~finally:(fun () -> Service.stop service)
        (fun () ->
          let conn = Service.attach service in
          let inj =
            Injector.create ~seed
              [ Plan.Duplicate { prob = 0.3 }; Plan.Corrupt { prob = 0.3 } ]
          in
          let deliver raw =
            let wire =
              if Injector.roll_corrupt inj then Injector.flip_bit inj raw
              else raw
            in
            let reply = Service.handle_raw service conn wire in
            if Injector.roll_duplicate inj then
              Service.handle_raw service conn wire
            else reply
          in
          let decode reply =
            match Wire.unframe reply with
            | Error e -> failwith ("reply frame: " ^ e)
            | Ok body -> (
                match Protocol.decode_response body with
                | Error e -> failwith ("reply decode: " ^ e)
                | Ok r -> r)
          in
          let total = Array.length events in
          let seq = ref 0 and off = ref 0 in
          while !off < total do
            let len = min 9 (total - !off) in
            let req =
              Protocol.Observe
                { seq = !seq; events = Array.sub events !off len }
            in
            let raw = Wire.frame (Protocol.encode_request req) in
            let rec attempt tries =
              if tries > 64 then failwith "no progress against injector";
              match decode (deliver raw) with
              | Protocol.Outcomes _ -> ()
              | Protocol.Error_r _ -> attempt (tries + 1)
              | other ->
                  Format.kasprintf failwith "unexpected %a"
                    Protocol.pp_response other
            in
            attempt 0;
            incr seq;
            off := !off + len
          done;
          (* Head of the list is the service's own registry (latency,
             dedup) — nondeterministic; the property is about the
             engine's registry behind it. *)
          List.tl (Service.telemetry_snapshots service) = [ oracle ]))

let () =
  Alcotest.run "obs"
    [
      ( "log",
        [
          Alcotest.test_case "text rendering" `Quick test_log_render_text;
          Alcotest.test_case "jsonl rendering" `Quick test_log_render_jsonl;
          Alcotest.test_case "level filter + ticks" `Quick test_log_filtering;
        ] );
      ( "merge",
        [
          Alcotest.test_case "value semantics" `Quick test_merge_values;
          Alcotest.test_case "mismatches raise" `Quick test_merge_mismatch;
          Alcotest.test_case "snapshots sort and sum" `Quick
            test_merge_snapshots_sorted;
        ] );
      ( "admin codec",
        [
          test_request_roundtrip;
          test_response_roundtrip;
          test_planes_refuse_each_other;
          Alcotest.test_case "golden frames" `Quick golden_admin;
          Alcotest.test_case "oversized lengths rejected" `Quick
            test_admin_oversized;
          test_admin_request_total;
          test_admin_response_total;
        ] );
      ( "telemetry",
        [ test_registry_batch_invariant; test_registry_under_faults ] );
    ]
