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

let shard_stat_gen =
  QCheck2.Gen.(
    map
      (fun (shard, s_events, s_cells, s_messages) ->
        { Admin.shard; s_events; s_cells; s_messages })
      (quad (int_bound 16) (int_bound 10000) (int_bound 10000)
         (int_bound 10000)))

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
             (shards, conns, stream) ) ->
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
          shards;
          conns;
          stream;
        })
      (quad
         (quad (string_size (int_bound 12)) (int_bound 64) (int_bound 10000)
            (int_bound 10000))
         (quad (int_bound 10000) (int_bound 100) (int_bound 100)
            (int_bound 100))
         (quad (int_bound 10000) qfloat qfloat qfloat)
         (triple
            (list_size (int_bound 4) shard_stat_gen)
            (list_size (int_bound 4) conn_stat_gen)
            (option stream_stat_gen))))

let response_gen =
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun (ok, processes, dimension) (backend, shards) ->
            Admin.Health_r { ok; backend; processes; dimension; shards })
          (triple bool (int_bound 1000) (int_bound 100))
          (pair (string_size (int_bound 12)) (int_bound 16));
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

(* The v0 frames the previous codec produced: the admin family keeps
   its bytes too. *)
let golden_admin () =
  let check label v0 body =
    Alcotest.(check string) (label ^ " v0") v0
      (Gen.hex (Wire.frame ~version:0 body));
    Alcotest.(check string) (label ^ " v1") ("d701" ^ v0)
      (Gen.hex (Wire.frame body))
  in
  List.iter
    (fun (req, v0) ->
      check
        (Format.asprintf "%a" Admin.pp_request req)
        v0 (Admin.encode_request req))
    [
      (Admin.Health, "e19f91b709ad0100");
      (Admin.Metrics Admin.Json, "dd8c9dab04ad010101");
      (Admin.Stats, "bb9991a709ad0102");
      (Admin.Tracedump, "a896919f09ad0103");
    ];
  List.iter
    (fun (resp, v0) ->
      check (Format.asprintf "%a" Admin.pp_response resp) v0
        (Admin.encode_response resp))
    [
      ( Admin.Health_r
          {
            ok = true;
            backend = "sharded:2";
            processes = 256;
            dimension = 8;
            shards = 2;
          },
        "98f4a2fd0cad01000109736861726465643a3280020802" );
      ( Admin.Metrics_r "server_requests 7\n",
        "f7ee8ddf03ad0101127365727665725f726571756573747320370a" );
      ( Admin.Stats_r
          {
            backend = "offline-stream";
            clients = 2;
            batches = 10;
            messages = 300;
            internal = 20;
            dedup_hits = 1;
            errors = 0;
            dropped = 0;
            pending = 4;
            p50_ms = 0.25;
            p90_ms = 1.5;
            p99_ms = 12.75;
            shards =
              [
                {
                  Admin.shard = 0;
                  s_events = 320;
                  s_cells = 2560;
                  s_messages = 300;
                };
              ];
            conns =
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
              ];
            stream =
              Some
                {
                  Admin.chains = 3;
                  live = 40;
                  retired = 260;
                  width = 3;
                  exact = true;
                  repairs = 2;
                };
          },
        "f2fbd5c209ad01020e6f66666c696e652d73747265616d020aac02140100"
        ^ "00043fd00000000000003ff80000000000004029800000000000010"
        ^ "0c0028014ac020200c801b4010100017878000a0103288402030102" );
      ( Admin.Tracedump_r { dropped = 0; spans = 1; jsonl = "{}\n" },
        "c28cbc8404ad01030001037b7d0a" );
      ( Admin.Error_r "unknown admin request tag 9",
        "d1a3e5a60ead01041b756e6b6e6f776e2061646d696e20726571756573"
        ^ "74207461672039" );
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
      ("metrics max_int bytes", "\xad\x01\x01" ^ Gen.varint max_int ^ "x");
      ("error 2^60 bytes", "\xad\x01\x04" ^ Gen.varint (1 lsl 60) ^ "x");
      ( "stats 2^60 shards",
        "\xad\x01\x02\x00" ^ String.make 8 '\x00' ^ String.make 24 '\x00'
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

(* The family header: data-plane bodies and future family versions are
   rejected with a decode error, not misparsed. *)
let test_family_rejection () =
  (match Admin.decode_request (Protocol.encode_request Protocol.Stats) with
  | Error _ -> ()
  | Ok r ->
      Alcotest.fail
        (Format.asprintf "data-plane body decoded as %a" Admin.pp_request r));
  let future =
    let b = Bytes.of_string (Admin.encode_request Admin.Health) in
    Bytes.set b 1 (Char.chr (Admin.current_version + 1));
    Bytes.to_string b
  in
  match Admin.decode_request future with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "future version accepted"

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
          Alcotest.test_case "family header rejection" `Quick
            test_family_rejection;
          Alcotest.test_case "golden frames" `Quick golden_admin;
          Alcotest.test_case "oversized lengths rejected" `Quick
            test_admin_oversized;
          test_admin_request_total;
          test_admin_response_total;
        ] );
      ( "telemetry",
        [ test_registry_batch_invariant; test_registry_under_faults ] );
    ]
