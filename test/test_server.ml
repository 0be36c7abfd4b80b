module Topology = Synts_graph.Topology
module Decomposition = Synts_graph.Decomposition
module Trace = Synts_sync.Trace
module Vector = Synts_clock.Vector
module Wire = Synts_clock.Wire
module Online = Synts_core.Online
module Ingest = Synts_ingest.Ingest
module Offline_sink = Synts_ingest.Offline_sink
module Engine = Synts_server.Engine
module Protocol = Synts_server.Protocol
module Service = Synts_server.Service
module Server = Synts_server.Server
module Client = Synts_server.Client
module Admin_client = Synts_server.Admin_client
module Admin = Synts_obs.Admin
module Frame = Synts_server.Frame
module Session = Synts_session.Session
module Injector = Synts_fault.Injector
module Plan = Synts_fault.Plan
module Workload = Synts_workload.Workload
module Rng = Synts_util.Rng
module Gen = Synts_test_support.Gen

let qtest ?(count = 100) name gen print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen f)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let events_of_trace trace =
  Array.of_list (List.map Ingest.event_of_step (Trace.steps trace))

(* ---------- engine ≡ single-domain oracle ---------- *)

(* Feed a whole trace through a session (the deterministic reference
   sink), collecting message stamps and resolved internal stamps. *)
let session_reference d trace =
  let session = Session.of_decomposition d in
  let outcomes = Ingest.feed_trace (Session.ingest session) trace in
  let stamps = Ingest.message_stamps outcomes in
  let resolved = Session.finish_events session in
  (stamps, List.sort compare resolved)

let engine_run ~batch d trace =
  let engine = Engine.create d in
  Fun.protect
    ~finally:(fun () -> Engine.stop engine)
    (fun () ->
      let events = events_of_trace trace in
      let total = Array.length events in
      let outcomes = Array.make total (Ingest.Deferred (-1)) in
      let resolved = ref [] in
      let off = ref 0 in
      while !off < total do
        let len = min batch (total - !off) in
        let out = Engine.observe_batch engine (Array.sub events !off len) in
        Array.blit out 0 outcomes !off len;
        resolved := Engine.drain engine @ !resolved;
        off := !off + len
      done;
      resolved := Engine.finish engine @ !resolved;
      (Ingest.message_stamps outcomes, List.sort compare !resolved))

(* The oracle is the packet-level Fig. 5 protocol ({!Edge_clock}), which
   shares no code with the engine's kernel; the session runs on that
   kernel and pins the internal-event stamps. *)
let test_engine_matches_oracle =
  qtest ~count:60 "engine = single-domain oracle (stamps + internal)"
    Gen.computation Gen.computation_print (fun c ->
      let g, trace = Gen.build_computation c in
      let d = Decomposition.best g in
      let oracle = Online.timestamp_trace_protocol d trace in
      let ref_stamps, ref_resolved = session_reference d trace in
      let stamps, resolved = engine_run ~batch:7 d trace in
      Array.for_all2 Vector.equal stamps oracle
      && Array.for_all2 Vector.equal stamps ref_stamps
      && resolved = ref_resolved)

let batch_split_gen = QCheck2.Gen.(pair Gen.computation (int_range 1 13))

let batch_split_print (c, batch) =
  Printf.sprintf "%s batch=%d" (Gen.computation_print c) batch

let test_engine_batch_split_invariant =
  qtest ~count:60 "batch boundaries do not change stamps" batch_split_gen
    batch_split_print (fun (c, batch) ->
      let g, trace = Gen.build_computation c in
      let d = Decomposition.best g in
      let whole, _ = engine_run ~batch:max_int d trace in
      let split, _ = engine_run ~batch d trace in
      Array.for_all2 Vector.equal whole split)

(* ---------- protocol codec ---------- *)

let request_gen = Gen.serve_request
let response_gen = Gen.serve_response

let test_request_roundtrip =
  qtest ~count:200 "request codec roundtrips" request_gen
    (Format.asprintf "%a" Protocol.pp_request) (fun req ->
      Protocol.decode_request (Protocol.encode_request req) = Ok req)

let test_response_roundtrip =
  qtest ~count:200 "response codec roundtrips" response_gen
    (Format.asprintf "%a" Protocol.pp_response) (fun resp ->
      Protocol.decode_response (Protocol.encode_response resp) = Ok resp)

(* ---------- wire versioning ---------- *)

let test_wire_versioning () =
  let body = "stamping bytes" in
  let frame = Wire.frame body in
  Alcotest.(check int) "version byte first" Wire.current_version
    (Char.code frame.[0]);
  Alcotest.(check (result string string)) "unframes" (Ok body)
    (Wire.unframe frame);
  (* Frames of other layouts are turned away with an error naming their
     version, not a checksum complaint: the earlier magic-byte layout
     ([d7 01], version 0xd7 to this build), version 2 (this envelope with
     the FNV-1a checksum of the body, as the previous release framed it)
     and a future version 4. *)
  let refuses name version bad =
    match Wire.unframe bad with
    | Error e ->
        Alcotest.(check bool) (name ^ " names the version") true
          (contains ~sub:(Printf.sprintf "unsupported wire version %d" version)
             e)
    | Ok _ -> Alcotest.failf "%s accepted" name
  in
  let rest = String.sub frame 1 (String.length frame - 1) in
  refuses "d7 01 layout" 0xd7 ("\xd7\x01" ^ rest);
  let fnv1a =
    String.fold_left
      (fun h c -> (h lxor Char.code c) * 0x01000193 land 0xffffffff)
      0x811c9dc5
  in
  refuses "version 2" 2 ("\x02" ^ Gen.varint (fnv1a body) ^ body);
  refuses "version 4" 4 ("\x04" ^ rest)

let test_wire_versioned_vectors () =
  let v = [| 3; 0; 7; 12 |] in
  Alcotest.(check bool) "vector roundtrip" true
    (Wire.decode_framed (Wire.encode_framed v) = Ok v)

(* ---------- byte identity and decoder totality ---------- *)

(* One of each request and response in its frame, as the header — the
   version byte 03 and the body's varint checksum — and then the body.
   Every body is the hex the version-2 codec wrote: only the header
   moved when the checksum went from FNV-1a to the four-lane hash. *)
let golden_requests =
  [
    (Protocol.Hello, "03f2b4c2b50b", "00");
    ( Protocol.Observe
        {
          seq = 300;
          events =
            [|
              Ingest.Message { src = 3; dst = 130 };
              Ingest.Internal { proc = 7 };
            |];
        },
      "03948bf0cb0a",
      "01ac0202000382010107" );
    (Protocol.Drain, "03facaa1b20f", "02");
    (Protocol.Finish, "03e9c4dcf406", "03");
    (Protocol.Verify, "03a5d8f9df03", "04");
    (Protocol.Stats, "03dea5e75e", "05");
    ( Protocol.Churn "join:4:4-0,4-2",
      "0380daebcd08",
      "070e6a6f696e3a343a342d302c342d32" );
    (Protocol.Shutdown, "0385d7bea30d", "06");
  ]

let golden_responses =
  [
    (* tag 00, processes 256 (8002), dimension 8, epoch 1. *)
    ( Protocol.Welcome { processes = 256; dimension = 8; epoch = 1 },
      "03c5cfeae10d",
      "0080020801" );
    ( Protocol.Outcomes
        [| Ingest.Stamped [| 0; 1; 127; 128; 16384 |]; Ingest.Deferred 5 |],
      "03a8a9a6f80b",
      "0802000500017f80018080010105" );
    (* Later stamps widen, narrow and step down: deltas against the
       stamp before, a shorter one read as zero-padded. *)
    ( Protocol.Outcomes
        [|
          Ingest.Stamped [| 3; 200 |];
          Ingest.Deferred 7;
          Ingest.Stamped [| 2; 200; 1 |];
          Ingest.Stamped [| 2 |];
        |],
      "03f3faa8ba0f",
      "0804000203c80101070003010002000100" );
    ( Protocol.Resolved
        [
          ( 5,
            {
              Synts_core.Internal_events.proc = 2;
              prev = [| 1; 2 |];
              succ = Some [| 3; 300 |];
              counter = 1;
            } );
          ( 6,
            {
              Synts_core.Internal_events.proc = 0;
              prev = [| 0; 0 |];
              succ = None;
              counter = 0;
            } );
        ],
      "03dbd5f83b",
      "09020502020102010204d4040106000205d7040000" );
    (Protocol.Verified { ok = true; checked = 42 }, "038af7a19b05", "03012a");
    ( Protocol.Stats_r
        {
          clients = 3;
          batches = 1000;
          messages = 64000;
          internal = 7000;
          dropped = 0;
          pending = 12;
        },
      "03d6c8e6fa07",
      "0403e80780f403d836000c" );
    ( Protocol.Epoch_r { epoch = 2; processes = 5; dimension = 3 },
      "0384ead4c502",
      "07020503" );
    ( Protocol.Error_r "sequence gap: got 5, expected 3",
      "03f7b28ab90a",
      "051f73657175656e6365206761703a20676f7420352c20"
      ^ "65787065637465642033" );
    (Protocol.Bye, "0385d7bea30d", "06");
  ]

let check_golden name encode decode pp (msg, header, body) =
  let frame = Wire.frame (encode msg) in
  let label = Format.asprintf "%s %a" name pp msg in
  Alcotest.(check string) (label ^ " body") body (Gen.hex (encode msg));
  Alcotest.(check string) label (header ^ body) (Gen.hex frame);
  match Result.bind (Wire.unframe frame) decode with
  | Ok m when m = msg -> ()
  | _ -> Alcotest.failf "%s: golden frame does not decode back" label

let test_golden_frames () =
  List.iter
    (check_golden "request" Protocol.encode_request Protocol.decode_request
       Protocol.pp_request)
    golden_requests;
  List.iter
    (check_golden "response" Protocol.encode_response Protocol.decode_response
       Protocol.pp_response)
    golden_responses

(* Wire-supplied sizes that once reached [Array.make] / [String.sub]
   unchecked: an Observe announcing 2^60 events (one present) and a
   max_int-long Churn string each raised out of the decoder and took the
   daemon down. *)
let oversized_requests =
  [
    ( "observe 2^60 events",
      "\x01" ^ Gen.varint 0 ^ Gen.varint (1 lsl 60) ^ "\x01\x00" );
    ("churn max_int bytes", "\x07" ^ Gen.varint max_int ^ "join:4");
  ]

let oversized_responses =
  [
    ("outcomes 2^60", "\x08" ^ Gen.varint (1 lsl 60) ^ "\x01\x05");
    ( "vector 2^60",
      "\x08" ^ Gen.varint 1 ^ "\x00" ^ Gen.varint (1 lsl 60) ^ "\x01" );
    ( "delta vector 2^60",
      "\x08" ^ Gen.varint 2 ^ "\x00\x01\x00\x00" ^ Gen.varint (1 lsl 60)
      ^ "\x01" );
    ("resolved 2^60", "\x09" ^ Gen.varint (1 lsl 60));
    ("error max_int bytes", "\x05" ^ Gen.varint max_int ^ "boom");
  ]

(* Well-formed, but the joiner id once made the membership allocate a
   vertex array of 10^12 entries. *)
let oversized_deltas =
  [
    ( "join of process 10^12",
      Protocol.encode_request
        (Protocol.Churn "join:1000000000000:1000000000000-0") );
  ]

let test_oversized_counts_rejected () =
  List.iter
    (fun (name, body) ->
      match Protocol.decode_request body with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s decoded" name)
    oversized_requests;
  List.iter
    (fun (name, body) ->
      match Protocol.decode_response body with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s decoded" name)
    oversized_responses;
  let service = Service.create (Decomposition.best (Topology.star 4)) in
  Fun.protect
    ~finally:(fun () -> Service.stop service)
    (fun () ->
      let conn = Service.attach service in
      List.iter
        (fun (name, body) ->
          match
            Result.bind
              (Wire.unframe (Service.handle_raw service conn (Wire.frame body)))
              Protocol.decode_response
          with
          | Ok (Protocol.Error_r _) -> ()
          | Ok r -> Alcotest.failf "%s answered %a" name Protocol.pp_response r
          | Error e -> Alcotest.failf "%s: unreadable reply (%s)" name e)
        (oversized_requests @ oversized_deltas))

(* The delta-coded reply layouts. Tags 1 and 2 carried plain stamps
   before; they are refused, so an old peer fails loudly instead of
   reading deltas as counts. Each stamp after the first is rebuilt as
   the one before plus a zigzag delta, and every rebuilt component must
   be a message count again. *)
let test_delta_layouts () =
  let rejects name body =
    match Protocol.decode_response body with
    | Error _ -> ()
    | Ok r -> Alcotest.failf "%s decoded as %a" name Protocol.pp_response r
  in
  rejects "old outcomes tag"
    "\x01\x02\x00\x05\x00\x01\x7f\x80\x01\x80\x80\x01\x01\x05";
  rejects "old resolved tag" "\x02\x00";
  (match Protocol.decode_response "\x01\x00" with
  | Error e ->
      Alcotest.(check bool) "names the tag" true
        (contains ~sub:"unknown response tag 1" e)
  | Ok _ -> Alcotest.fail "tag 1 accepted");
  (* [5] then a delta of -7. *)
  rejects "negative component" "\x08\x02\x00\x01\x05\x00\x01\x0d";
  rejects "negative component in resolved"
    "\x09\x01\x00\x00\x01\x05\x01\x01\x0d\x00";
  (* [max_int] then a delta of +1. *)
  rejects "overflowing component"
    ("\x08\x02\x00\x01" ^ Gen.varint max_int ^ "\x00\x01\x02");
  (* [2^61 + 5] then the code of -2^61: the result, 5, is a count, but
     no encoder writes that delta, so accepting it would break
     canonicality. *)
  rejects "delta -2^61"
    ("\x08\x02\x00\x01" ^ Gen.varint ((1 lsl 61) + 5) ^ "\x00\x01"
    ^ Gen.varint max_int);
  let roundtrips name r =
    Alcotest.(check bool) name true
      (Protocol.decode_response (Protocol.encode_response r) = Ok r)
  in
  let big = (1 lsl 61) - 1 in
  roundtrips "largest deltas"
    (Protocol.Outcomes
       [| Ingest.Stamped [| 0; big |]; Ingest.Stamped [| big; 0 |];
          Ingest.Stamped [| 0 |] |]);
  roundtrips "width changes inside a reply"
    (Protocol.Resolved
       [
         ( 1,
           { Synts_core.Internal_events.proc = 0; prev = [| 4 |];
             succ = Some [| 4; 9; 2 |]; counter = 1 } );
         ( 2,
           { Synts_core.Internal_events.proc = 1; prev = [||]; succ = None;
             counter = 0 } );
         ( 3,
           { Synts_core.Internal_events.proc = 2; prev = [| 1; 1 |];
             succ = None; counter = 3 } );
       ]);
  let raises name r =
    match Protocol.encode_response r with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s encoded" name
  in
  raises "delta +2^61"
    (Protocol.Outcomes
       [| Ingest.Stamped [| 0 |]; Ingest.Stamped [| 1 lsl 61 |] |]);
  raises "delta -2^61"
    (Protocol.Outcomes
       [|
         Ingest.Stamped [| 1 lsl 61 |];
         Ingest.Deferred 3;
         Ingest.Stamped [| 0 |];
       |]);
  raises "delta past 2^61 in resolved"
    (Protocol.Resolved
       [
         ( 1,
           { Synts_core.Internal_events.proc = 0; prev = [| max_int |];
             succ = Some [| 0 |]; counter = 1 } );
       ]);
  raises "negative component after the first"
    (Protocol.Outcomes [| Ingest.Stamped [| 3 |]; Ingest.Stamped [| -1 |] |])

let test_decode_request_total =
  qtest ~count:1000 "decode_request is total and canonical"
    (Gen.hostile (QCheck2.Gen.map Protocol.encode_request request_gen))
    Gen.hex
    (Gen.total_decoder Protocol.decode_request (fun s r ->
         Protocol.encode_request r = s))

let test_decode_response_total =
  qtest ~count:1000 "decode_response is total and canonical"
    (Gen.hostile (QCheck2.Gen.map Protocol.encode_response response_gen))
    Gen.hex
    (Gen.total_decoder Protocol.decode_response (fun s r ->
         Protocol.encode_response r = s))

let framed_gen =
  QCheck2.Gen.(
    map Wire.frame
      (oneof
         [
           map Protocol.encode_request request_gen;
           map Protocol.encode_response response_gen;
         ]))

let test_unframe_total =
  qtest ~count:1000 "unframe is total and canonical" (Gen.hostile framed_gen)
    Gen.hex
    (Gen.total_decoder Wire.unframe (fun s body -> s = Wire.frame body))

(* One long-lived service fed junk: raw bytes that fail the checksum, and
   checksummed junk bodies that reach the decoder and the service. Every
   input must be answered with a readable reply, never an exception. *)
let test_handle_raw_total () =
  let service =
    Service.create ~check:true (Decomposition.best (Topology.ring 5))
  in
  Fun.protect
    ~finally:(fun () -> Service.stop service)
    (fun () ->
      let conn = Service.attach service in
      let input =
        QCheck2.Gen.(
          oneof
            [
              Gen.hostile framed_gen;
              map Wire.frame
                (Gen.hostile (map Protocol.encode_request request_gen));
            ])
      in
      QCheck2.Test.check_exn
        (QCheck2.Test.make ~count:2000 ~name:"handle_raw is total"
           ~print:Gen.hex input (fun raw ->
             match Service.handle_raw service conn raw with
             | reply -> (
                 match
                   Result.bind (Wire.unframe reply) Protocol.decode_response
                 with
                 | Ok _ -> true
                 | Error e ->
                     QCheck2.Test.fail_reportf "unreadable reply: %s" e)
             | exception e ->
                 QCheck2.Test.fail_reportf "handle_raw raised %s"
                   (Printexc.to_string e))))

(* ---------- frame reassembly ---------- *)

let length_prefixed frames =
  String.concat ""
    (List.map
       (fun f ->
         let b = Bytes.create 4 in
         Bytes.set_int32_be b 0 (Int32.of_int (String.length f));
         Bytes.to_string b ^ f)
       frames)

let drain_frames buf =
  let rec go acc =
    match Frame.next buf with None -> List.rev acc | Some f -> go (f :: acc)
  in
  go []

(* Bytes allocated so far, read exactly. Under OCaml 5
   [Gc.allocated_bytes] counts the minor heap only up to its last
   collection, so a collection inside a measured span charges the span
   with everything allocated since the one before. [Gc.minor_words] is
   exact, and [Gc.counters] adds what went straight to the major heap:
   its major words less those promoted from the minor heap. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float (Sys.word_size / 8)

(* Many small frames in one read: extraction must not copy the rest of
   the buffer per frame, which made draining quadratic. *)
let test_frame_drain_linear () =
  let count = 1000 in
  let frame = String.make 16 'f' in
  let wire =
    Bytes.of_string (length_prefixed (List.init count (fun _ -> frame)))
  in
  let buf = Frame.buffer () in
  Frame.feed buf wire (Bytes.length wire);
  let before = allocated_bytes () in
  let drained = ref 0 in
  let rec go () =
    match Frame.next buf with
    | None -> ()
    | Some f ->
        if f <> frame then Alcotest.fail "frame corrupted";
        incr drained;
        go ()
  in
  go ();
  let allocated = allocated_bytes () -. before in
  Alcotest.(check int) "all frames" count !drained;
  if allocated > 4. *. float (Bytes.length wire) then
    Alcotest.failf "draining %d bytes of frames allocated %.0f bytes"
      (Bytes.length wire) allocated

let test_frame_split_feeds () =
  let frames =
    [
      "";
      "a";
      String.make 300 'b';
      String.init 5000 (fun i -> Char.chr (i land 0xff));
      "tail";
    ]
  in
  let wire = Bytes.of_string (length_prefixed frames) in
  let total = Bytes.length wire in
  for cut = 0 to total do
    let buf = Frame.buffer () in
    Frame.feed buf (Bytes.sub wire 0 cut) cut;
    let head = drain_frames buf in
    Frame.feed buf (Bytes.sub wire cut (total - cut)) (total - cut);
    if head @ drain_frames buf <> frames then
      Alcotest.failf "split at byte %d" cut
  done;
  let buf = Frame.buffer () in
  let got =
    List.concat
      (List.init total (fun i ->
           Frame.feed buf (Bytes.sub wire i 1) 1;
           drain_frames buf))
  in
  if got <> frames then Alcotest.fail "byte-at-a-time feed"

(* ---------- service: dup / corrupt exactness ---------- *)

let faulty_service_gen = QCheck2.Gen.(pair Gen.computation Gen.rng_seed)

let faulty_service_print (c, seed) =
  Printf.sprintf "%s inj_seed=%d" (Gen.computation_print c) seed

(* Drive the byte-level request path through a fault injector that
   duplicates and corrupts deliveries; the sequence-number dedup plus the
   checksum frame must keep the stamps exactly the oracle's. *)
let test_service_dup_corrupt =
  qtest ~count:50 "dup/corrupt deliveries never skew stamps"
    faulty_service_gen faulty_service_print (fun (c, seed) ->
      let g, trace = Gen.build_computation c in
      let d = Decomposition.best g in
      let service = Service.create ~check:true d in
      Fun.protect
        ~finally:(fun () -> Service.stop service)
        (fun () ->
          let conn = Service.attach service in
          let inj =
            Injector.create ~seed
              [
                Plan.Duplicate { prob = 0.3 };
                Plan.Corrupt { prob = 0.3 };
              ]
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
          let events = events_of_trace trace in
          let total = Array.length events in
          let seq = ref 0 and off = ref 0 in
          while !off < total do
            let len = min 9 (total - !off) in
            let req =
              Protocol.Observe { seq = !seq; events = Array.sub events !off len }
            in
            let raw = Wire.frame (Protocol.encode_request req) in
            let rec attempt tries =
              if tries > 64 then failwith "no progress against injector";
              match decode (deliver raw) with
              | Protocol.Outcomes out -> out
              | Protocol.Error_r _ -> attempt (tries + 1)
              | other ->
                  Format.kasprintf failwith "unexpected %a"
                    Protocol.pp_response other
            in
            let out = attempt 0 in
            if Array.length out <> len then failwith "outcome count";
            incr seq;
            off := !off + len
          done;
          match Service.handle service conn Protocol.Verify with
          | Protocol.Verified { ok; checked } ->
              ok && checked = Trace.message_count trace
          | other ->
              Format.kasprintf failwith "unexpected verify reply %a"
                Protocol.pp_response other))

let test_service_dup_replies_cached () =
  let d = Decomposition.best (Topology.ring 4) in
  let service = Service.create ~check:true d in
  Fun.protect
    ~finally:(fun () -> Service.stop service)
    (fun () ->
      let conn = Service.attach service in
      let events = [| Ingest.Message { src = 0; dst = 1 } |] in
      let req = Protocol.Observe { seq = 0; events } in
      let first = Service.handle service conn req in
      let second = Service.handle service conn req in
      Alcotest.(check bool) "dup answered from cache" true (first = second);
      match Service.handle service conn Protocol.Stats with
      | Protocol.Stats_r { batches; messages; _ } ->
          Alcotest.(check int) "stamped once" 1 batches;
          Alcotest.(check int) "one message" 1 messages
      | _ -> Alcotest.fail "stats reply")

let test_service_rejects_gap_and_stale () =
  let d = Decomposition.best (Topology.ring 4) in
  let service = Service.create d in
  Fun.protect
    ~finally:(fun () -> Service.stop service)
    (fun () ->
      let conn = Service.attach service in
      let observe seq =
        Service.handle service conn
          (Protocol.Observe
             { seq; events = [| Ingest.Message { src = 0; dst = 1 } |] })
      in
      (match observe 0 with
      | Protocol.Outcomes _ -> ()
      | _ -> Alcotest.fail "first observe");
      (match observe 5 with
      | Protocol.Error_r e ->
          Alcotest.(check bool) "gap named" true (contains ~sub:"gap" e)
      | _ -> Alcotest.fail "gap accepted");
      match
        Service.handle service conn
          (Protocol.Observe
             { seq = -3; events = [| Ingest.Message { src = 0; dst = 1 } |] })
      with
      | Protocol.Error_r _ -> ()
      | _ -> Alcotest.fail "negative seq accepted")

(* A batch the offline backend rejects must stamp nothing: its retry
   under the same sequence number gets the stamps a fresh daemon gives. *)
let test_service_offline_rejects_whole_batch () =
  let d = Decomposition.best (Topology.ring 4) in
  let ok = Ingest.Message { src = 0; dst = 1 } in
  let stamps ~reject_first =
    let service = Service.create ~offline:true d in
    Fun.protect
      ~finally:(fun () -> Service.stop service)
      (fun () ->
        let conn = Service.attach service in
        let observe events =
          Service.handle service conn (Protocol.Observe { seq = 0; events })
        in
        if reject_first then
          List.iter
            (fun bad ->
              match observe [| ok; bad |] with
              | Protocol.Error_r _ -> ()
              | _ -> Alcotest.fail "bad event accepted")
            [ Ingest.Message { src = 2; dst = 2 }; Ingest.Internal { proc = 9 } ];
        match observe [| ok; ok |] with
        | Protocol.Outcomes o -> o
        | _ -> Alcotest.fail "retry refused")
  in
  Alcotest.(check bool) "rejected batches left no stamp behind" true
    (stamps ~reject_first:true = stamps ~reject_first:false)

(* ---------- service: the offline backend over the byte path ---------- *)

(* One request through [handle_raw]: framed, encoded, decoded back. *)
let raw_call service conn req =
  match
    Result.bind
      (Wire.unframe
         (Service.handle_raw service conn
            (Wire.frame (Protocol.encode_request req))))
      Protocol.decode_response
  with
  | Ok r -> r
  | Error e -> failwith ("unreadable reply: " ^ e)

let offline_service_gen =
  QCheck2.Gen.(
    pair Gen.computation (list_size (int_range 1 6) (int_range 1 13)))

let offline_service_print (c, sizes) =
  Printf.sprintf "%s batches=[%s]" (Gen.computation_print c)
    (String.concat ";" (List.map string_of_int sizes))

(* [serve --offline] at window 4, so the window retires as it goes: the
   delta-coded replies must decode to exactly what an [Offline_sink]
   driven directly returns, batch by batch, and [Verify]'s batch
   Figure 9 replay must agree with every streamed stamp. *)
let test_service_offline_byte_path =
  qtest ~count:100 "offline replies over the byte path = Offline_sink"
    offline_service_gen offline_service_print (fun (c, sizes) ->
      let g, trace = Gen.build_computation c in
      let d = Decomposition.best g in
      let reference =
        Offline_sink.create ~window:4 ~n:(Decomposition.graph_vertices d) ()
      in
      let service = Service.create ~check:true ~offline:true ~window:4 d in
      Fun.protect
        ~finally:(fun () -> Service.stop service)
        (fun () ->
          let conn = Service.attach service in
          let events = events_of_trace trace in
          let total = Array.length events in
          let sizes = Array.of_list sizes in
          let ok = ref true and seq = ref 0 and off = ref 0 in
          let expect reply want =
            if raw_call service conn reply <> want then ok := false
          in
          while !off < total do
            let len = min sizes.(!seq mod Array.length sizes) (total - !off) in
            let batch = Array.sub events !off len in
            expect
              (Protocol.Observe { seq = !seq; events = batch })
              (Protocol.Outcomes (Offline_sink.observe_batch reference batch));
            expect Protocol.Drain
              (Protocol.Resolved (Offline_sink.drain reference));
            incr seq;
            off := !off + len
          done;
          expect Protocol.Finish
            (Protocol.Resolved (Offline_sink.finish reference));
          (match raw_call service conn Protocol.Verify with
          | Protocol.Verified { ok = true; _ } -> ()
          | _ -> ok := false);
          !ok))

(* Three concurrent messages in one batch each open a chain, so the
   reply's stamps widen 1 → 2 → 3 components mid-reply. *)
let test_service_offline_widening () =
  let d = Decomposition.best (Topology.complete 6) in
  let service = Service.create ~check:true ~offline:true ~window:4 d in
  Fun.protect
    ~finally:(fun () -> Service.stop service)
    (fun () ->
      let conn = Service.attach service in
      let msg src dst = Ingest.Message { src; dst } in
      let events =
        [| msg 0 1; msg 2 3; Ingest.Internal { proc = 0 }; msg 4 5 |]
      in
      (match raw_call service conn (Protocol.Observe { seq = 0; events }) with
      | Protocol.Outcomes out ->
          Alcotest.(check (list (array int)))
            "stamps widen mid-reply"
            [ [| 1 |]; [| 0; 1 |]; [| 0; 0; 1 |] ]
            (Array.to_list (Ingest.message_stamps out))
      | r -> Alcotest.failf "observe answered %a" Protocol.pp_response r);
      (match raw_call service conn Protocol.Finish with
      | Protocol.Resolved [ (_, { Synts_core.Internal_events.prev; _ }) ] ->
          Alcotest.(check (array int)) "internal event after 0->1" [| 1 |] prev
      | r -> Alcotest.failf "finish answered %a" Protocol.pp_response r);
      match raw_call service conn Protocol.Verify with
      | Protocol.Verified { ok; checked } ->
          Alcotest.(check bool) "verify ok" true ok;
          Alcotest.(check int) "pairs checked" 3 checked
      | r -> Alcotest.failf "verify answered %a" Protocol.pp_response r)

(* Both backends bound their resolved-stamp queue alike: 70,000
   internal events on process 0, resolved by one message and never
   drained, leave the newest 65,536 queued and count the rest as
   dropped, and Finish returns the queued ones in ticket order. *)
let test_service_queue_bounded () =
  let d = Decomposition.best (Topology.path 2) in
  List.iter
    (fun offline ->
      let name = if offline then "offline" else "online" in
      let service = Service.create ~offline d in
      Fun.protect
        ~finally:(fun () -> Service.stop service)
        (fun () ->
          let conn = Service.attach service in
          let events =
            Array.append
              (Array.make 70_000 (Ingest.Internal { proc = 0 }))
              [| Ingest.Message { src = 0; dst = 1 } |]
          in
          (match
             Service.handle service conn (Protocol.Observe { seq = 0; events })
           with
          | Protocol.Outcomes _ -> ()
          | r -> Alcotest.failf "%s observe: %a" name Protocol.pp_response r);
          (match Service.handle service conn Protocol.Stats with
          | Protocol.Stats_r { pending; dropped; _ } ->
              Alcotest.(check int) (name ^ " pending") 65_536 pending;
              Alcotest.(check int) (name ^ " dropped") 4_464 dropped
          | r -> Alcotest.failf "%s stats: %a" name Protocol.pp_response r);
          match Service.handle service conn Protocol.Finish with
          | Protocol.Resolved resolved ->
              Alcotest.(check (list int))
                (name ^ " tickets kept")
                (List.init 65_536 (fun i -> 4_464 + i))
                (List.map fst resolved)
          | r -> Alcotest.failf "%s finish: %a" name Protocol.pp_response r))
    [ false; true ]

(* ---------- service: churn / engine resharding ---------- *)

(* One scripted epoch crossing: the engine is retired and rebuilt, yet
   the connection's sequence state, the ticket space and the pending
   internal events all survive, and the epoch-aware verify replay agrees
   with every stamp on both sides of the boundary. *)
let test_service_churn_reshard () =
  let d = Decomposition.best (Topology.ring 4) in
  let service = Service.create ~check:true d in
  Fun.protect
    ~finally:(fun () -> Service.stop service)
    (fun () ->
      let conn = Service.attach service in
      let seq = ref (-1) in
      let observe events =
        incr seq;
        match Service.handle service conn (Protocol.Observe { seq = !seq; events }) with
        | Protocol.Outcomes out -> out
        | other ->
            Format.kasprintf (fun s -> Alcotest.fail s) "observe: %a" Protocol.pp_response
              other
      in
      let msg src dst = Ingest.Message { src; dst } in
      ignore (observe [| msg 0 1; msg 1 2; msg 2 3 |]);
      (* A deferred internal event whose resolution must survive the
         reshard via the carry queue. *)
      let ticket =
        match observe [| Ingest.Internal { proc = 0 } |] with
        | [| Ingest.Deferred k |] -> k
        | _ -> Alcotest.fail "internal not deferred"
      in
      (match Service.handle service conn (Protocol.Churn "join:4:4-0,4-2") with
      | Protocol.Epoch_r { epoch; processes; dimension } ->
          Alcotest.(check int) "epoch advanced" 1 epoch;
          Alcotest.(check int) "universe grew" 5 processes;
          Alcotest.(check bool) "width kept or grew" true (dimension >= 2)
      | other ->
          Format.kasprintf (fun s -> Alcotest.fail s) "churn: %a" Protocol.pp_response other);
      (* The flushed internal event is owed on the next drain. *)
      (match Service.handle service conn Protocol.Drain with
      | Protocol.Resolved resolved ->
          Alcotest.(check bool) "carried ticket resolved" true
            (List.mem_assoc ticket resolved)
      | other ->
          Format.kasprintf (fun s -> Alcotest.fail s) "drain: %a" Protocol.pp_response other);
      (* Same connection keeps observing, now on a new-epoch channel. *)
      ignore (observe [| msg 4 0; msg 0 1; msg 4 2 |]);
      (match Service.handle service conn (Protocol.Churn "leave:3") with
      | Protocol.Epoch_r { epoch; _ } ->
          Alcotest.(check int) "second epoch" 2 epoch
      | other ->
          Format.kasprintf (fun s -> Alcotest.fail s) "churn: %a" Protocol.pp_response other);
      ignore (observe [| msg 0 1; msg 1 2; msg 4 0 |]);
      (* The retired channel is rejected by the new epoch's layout
         without consuming the sequence. *)
      incr seq;
      (match
         Service.handle service conn
           (Protocol.Observe { seq = !seq; events = [| msg 2 3 |] })
       with
      | Protocol.Error_r _ -> decr seq
      | other ->
          Format.kasprintf (fun s -> Alcotest.fail s) "stale channel: %a"
            Protocol.pp_response other);
      (match Service.handle service conn Protocol.Hello with
      | Protocol.Welcome { epoch; processes; _ } ->
          Alcotest.(check int) "welcome epoch" 2 epoch;
          Alcotest.(check int) "welcome n" 5 processes
      | other ->
          Format.kasprintf (fun s -> Alcotest.fail s) "hello: %a" Protocol.pp_response other);
      match Service.handle service conn Protocol.Verify with
      | Protocol.Verified { ok; checked } ->
          Alcotest.(check bool) "epoch-aware verify" true ok;
          Alcotest.(check int) "all messages checked" 9 checked
      | other ->
          Format.kasprintf (fun s -> Alcotest.fail s) "verify: %a" Protocol.pp_response other)

(* Random interleavings of observes and a fixed valid delta script: the
   engine sequence must stay exact against the epoch-aware oracle no
   matter where the epoch boundaries land in the arrival order. *)
let churn_service_gen = QCheck2.Gen.(pair Gen.rng_seed (int_range 10 60))

let test_service_churn_random =
  qtest ~count:50 "random epoch boundaries keep verify exact"
    churn_service_gen
    (fun (seed, msgs) -> Printf.sprintf "seed=%d msgs=%d" seed msgs)
    (fun (seed, msgs) ->
      let g0 = Topology.ring 5 in
      let d = Decomposition.best g0 in
      let service = Service.create ~check:true d in
      Fun.protect
        ~finally:(fun () -> Service.stop service)
        (fun () ->
          let conn = Service.attach service in
          let rng = Rng.create seed in
          (* Valid in sequence on ring 5; the mirror edge list tracks the
             live topology so observes always hit a current channel. *)
          let script =
            ref
              [
                ("join:5:5-0,5-2", [ (5, 0); (5, 2) ], []);
                ("drop:1-2", [], [ (1, 2) ]);
                ("leave:3", [], [ (2, 3); (3, 4) ]);
                ("add:2-4", [ (2, 4) ], []);
              ]
          in
          let edges = ref [ (0, 1); (1, 2); (2, 3); (3, 4); (0, 4) ] in
          let seq = ref (-1) in
          let sent = ref 0 in
          for _ = 1 to msgs do
            (match !script with
            | (spec, added, removed) :: rest when Rng.chance rng 0.15 -> (
                match Service.handle service conn (Protocol.Churn spec) with
                | Protocol.Epoch_r _ ->
                    script := rest;
                    edges :=
                      added
                      @ List.filter
                          (fun (u, v) ->
                            not
                              (List.exists
                                 (fun (a, b) ->
                                   (a = u && b = v) || (a = v && b = u))
                                 removed))
                          !edges
                | other ->
                    Format.kasprintf failwith "churn %s: %a" spec
                      Protocol.pp_response other)
            | _ -> ());
            let u, v = List.nth !edges (Rng.int rng (List.length !edges)) in
            let src, dst = if Rng.bool rng then (u, v) else (v, u) in
            incr seq;
            incr sent;
            match
              Service.handle service conn
                (Protocol.Observe
                   {
                     seq = !seq;
                     events = [| Ingest.Message { src; dst } |];
                   })
            with
            | Protocol.Outcomes _ -> ()
            | other ->
                Format.kasprintf failwith "observe: %a" Protocol.pp_response
                  other
          done;
          match Service.handle service conn Protocol.Verify with
          | Protocol.Verified { ok; checked } -> ok && checked = !sent
          | other ->
              Format.kasprintf failwith "verify: %a" Protocol.pp_response other))

(* ---------- sockets: daemon round trip ---------- *)

let test_socket_roundtrip () =
  let dir = Filename.temp_dir "synts-serve" "" in
  let path = Filename.concat dir "serve.sock" in
  let g = Topology.client_server ~servers:2 ~clients:3 in
  let d = Decomposition.best g in
  let trace =
    Workload.random (Rng.create 42) ~topology:g ~messages:120
      ~internal_prob:0.15 ()
  in
  let handle = Server.spawn ~check:true (Server.Unix_socket path) d in
  let clients = Array.init 3 (fun _ -> Client.connect (Server.Unix_socket path)) in
  Fun.protect
    ~finally:(fun () ->
      Array.iter Client.close clients;
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      Alcotest.(check int) "welcome n" (Decomposition.graph_vertices d)
        (Client.processes clients.(0));
      let events = events_of_trace trace in
      let total = Array.length events in
      (* Interleave the stream across the three clients batch by batch;
         arrival order at the daemon is the trace order, so the oracle
         replay must agree exactly. *)
      let off = ref 0 and turn = ref 0 in
      let stamped = ref 0 in
      while !off < total do
        let len = min 11 (total - !off) in
        let out =
          Client.observe_batch clients.(!turn mod 3) (Array.sub events !off len)
        in
        Array.iter
          (function Ingest.Stamped _ -> incr stamped | Ingest.Deferred _ -> ())
          out;
        incr turn;
        off := !off + len
      done;
      Alcotest.(check int) "all messages stamped" (Trace.message_count trace)
        !stamped;
      let resolved = Client.finish clients.(0) in
      Alcotest.(check int) "internal events resolved"
        (Trace.internal_count trace)
        (List.length resolved);
      (match Client.verify_server clients.(0) with
      | Ok (ok, checked) ->
          Alcotest.(check bool) "oracle agrees" true ok;
          Alcotest.(check int) "checked all messages"
            (Trace.message_count trace) checked
      | Error e -> Alcotest.fail ("verify: " ^ e));
      (match Client.server_stats clients.(0) with
      | Ok ({ clients = n_clients; messages; _ } : Client.stats) ->
          Alcotest.(check int) "three clients" 3 n_clients;
          Alcotest.(check int) "message count" (Trace.message_count trace)
            messages
      | Error e -> Alcotest.fail ("stats: " ^ e));
      Client.shutdown clients.(2);
      Server.join handle)

(* An in-process daemon shares its fd table with its clients, so its
   accepted fds can pass FD_SETSIZE with few connections of its own.
   Past its fd cap it must close a connection on arrival — not let
   select fail — and go on serving. *)
let test_socket_fd_cap () =
  let dir = Filename.temp_dir "synts-serve" "" in
  let path = Filename.concat dir "serve.sock" in
  let addr = Server.Unix_socket path in
  let handle = Server.spawn addr (Decomposition.best (Topology.ring 4)) in
  let pad = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter Unix.close !pad;
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      (* Open fds until one is numbered 1,000 (an fd is its number on
         Unix): every fd opened after, the daemon's next accepted one
         included, is past the cap. *)
      let rec fill () =
        let fd = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
        pad := fd :: !pad;
        if (Obj.magic fd : int) < 1000 then fill ()
      in
      fill ();
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
      Unix.connect fd (Unix.ADDR_UNIX path);
      let closed =
        match Unix.read fd (Bytes.create 1) 0 1 with
        | n -> n = 0
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            false
      in
      Unix.close fd;
      List.iter Unix.close !pad;
      pad := [];
      Alcotest.(check bool) "closed on arrival" true closed;
      let c = Client.connect addr in
      (match Client.observe_batch c [| Ingest.Message { src = 0; dst = 1 } |] with
      | [| Ingest.Stamped _ |] -> ()
      | _ -> Alcotest.fail "the daemon stopped stamping");
      Client.shutdown c;
      Server.join handle)

(* An in-process daemon with its admin plane, both on Unix sockets in a
   fresh directory, for the duration of [f data admin]; shut down
   after. *)
let with_admin_daemon f =
  let dir = Filename.temp_dir "synts-serve" "" in
  let data = Server.Unix_socket (Filename.concat dir "serve.sock") in
  let admin = Server.Unix_socket (Filename.concat dir "admin.sock") in
  let handle =
    Server.spawn ~admin data (Decomposition.best (Topology.ring 4))
  in
  Fun.protect
    ~finally:(fun () ->
      Client.shutdown (Client.connect data);
      Server.join handle;
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f data admin)

(* One hand-made frame on a raw connection, and its reply's body
   decoded by [decode]. *)
let send_raw fd frame decode =
  Frame.send fd frame;
  match Frame.recv fd with
  | `Eof -> Alcotest.fail "the daemon closed the connection"
  | `Frame reply -> Result.bind (Wire.unframe reply) decode

let with_fd address f =
  let fd = Server.connect address in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

(* One envelope, two planes: a body sent to the other plane's socket is
   refused with that plane's [Error_r], and the connection goes on. *)
let test_socket_plane_split () =
  with_admin_daemon (fun data admin ->
      let admin_health = Wire.frame (Admin.encode_request Admin.Health) in
      let hello = Wire.frame (Protocol.encode_request Protocol.Hello) in
      with_fd data (fun fd ->
          (match send_raw fd admin_health Protocol.decode_response with
          | Ok (Protocol.Error_r _) -> ()
          | _ -> Alcotest.fail "admin frame on the data socket not refused");
          match send_raw fd hello Protocol.decode_response with
          | Ok (Protocol.Welcome _) -> ()
          | _ -> Alcotest.fail "no Welcome after the refusal");
      with_fd admin (fun fd ->
          (match send_raw fd hello Admin.decode_response with
          | Ok (Admin.Error_r _) -> ()
          | _ -> Alcotest.fail "data frame on the admin socket not refused");
          match send_raw fd admin_health Admin.decode_response with
          | Ok (Admin.Health_r { ok = true; _ }) -> ()
          | _ -> Alcotest.fail "health unanswered after the refusal"))

(* A counter's value in the admin plane's Prometheus rendering. *)
let prom_counter text name =
  let key = String.map (function '.' -> '_' | c -> c) name ^ " " in
  match
    List.find_map
      (fun line ->
        if String.starts_with ~prefix:key line then
          int_of_string_opt
            (String.sub line (String.length key)
               (String.length line - String.length key))
        else None)
      (String.split_on_char '\n' text)
  with
  | Some v -> v
  | None -> Alcotest.failf "%s missing from admin metrics" name

(* A refused frame is counted by why [unframe] or the decoder refused
   it, and a closed connection by why the loop closed it. *)
let test_socket_refusal_causes () =
  with_admin_daemon (fun data admin ->
      let a = Admin_client.connect admin in
      Fun.protect
        ~finally:(fun () -> Admin_client.close a)
        (fun () ->
          let names =
            [
              "server.bad_frames";
              "server.bad_requests";
              "server.closed.eof";
              "server.closed.oversized";
              "server.closed.error";
            ]
          in
          let counters () =
            let prom = Admin_client.metrics a Admin.Prom in
            List.map (prom_counter prom) names
          in
          let before = counters () in
          let refused name fd frame =
            match send_raw fd frame Protocol.decode_response with
            | Ok (Protocol.Error_r _) -> ()
            | _ -> Alcotest.failf "%s got no Error_r" name
          in
          let fd = Server.connect data in
          let bad_checksum =
            Bytes.of_string
              (Wire.frame (Protocol.encode_request Protocol.Hello))
          in
          let last = Bytes.length bad_checksum - 1 in
          Bytes.set bad_checksum last
            (Char.chr (Char.code (Bytes.get bad_checksum last) lxor 1));
          refused "bad checksum" fd (Bytes.to_string bad_checksum);
          refused "undecodable body" fd (Wire.frame "\xff");
          Unix.close fd;
          with_fd data (fun fd ->
              ignore (Unix.write fd (Bytes.make 4 '\xff') 0 4 : int);
              match Frame.recv fd with
              | `Eof -> ()
              | `Frame _ -> Alcotest.fail "oversized prefix answered"
              | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ());
          (* The daemon reads a close no later than a request sent after
             it on another connection, so after this round trip the
             metrics below include the close above. *)
          let c = Client.connect data in
          let after = counters () in
          Client.close c;
          List.iteri
            (fun i name ->
              Alcotest.(check int) name
                (if name = "server.closed.error" then 0 else 1)
                (List.nth after i - List.nth before i))
            names))

(* ---------- the serve path ≡ the reference encoder ---------- *)

module Graph = Synts_graph.Graph
module Membership = Synts_graph.Membership
module Epoch_stamper = Synts_core.Epoch_stamper
module Internal_events = Synts_core.Internal_events

(* Two layouts at the varint edges: one component (d = 1), and a path
   of 258 processes whose 129 components take a two-byte length. *)
let row_layouts =
  lazy
    (Array.map
       (fun g -> (g, Decomposition.best g))
       [| Topology.star 5; Topology.path 258 |])

type action = Batch of int * int | Dup | Dup_decoded | Bad | Fin | Churn

let action_gen =
  QCheck2.Gen.(
    frequency
      [
        ( 8,
          map2
            (fun share len -> Batch (share, len))
            (int_bound 50) (int_range 1 70) );
        (2, return Dup);
        (1, return Dup_decoded);
        (1, return Bad);
        (1, return Fin);
        (1, return Churn);
      ])

let print_action = function
  | Batch (share, len) -> Printf.sprintf "batch(%d%%,%d)" share len
  | Dup -> "dup"
  | Dup_decoded -> "dup-decoded"
  | Bad -> "bad"
  | Fin -> "finish"
  | Churn -> "churn"

let script_gen =
  QCheck2.Gen.(
    triple (int_bound 1) Gen.rng_seed (list_size (int_range 1 24) action_gen))

let script_print (layout, seed, actions) =
  Printf.sprintf "layout=%d seed=%d [%s]" layout seed
    (String.concat "; " (List.map print_action actions))

(* A batch over the reference's current topology: [share] percent
   internal events, the rest messages on random channels. *)
let random_batch rng st ~share ~len =
  let m = Epoch_stamper.membership st in
  let edges = Array.of_list (Graph.edges (Membership.graph m)) in
  Array.init len (fun _ ->
      if Rng.int rng 100 < share || edges = [||] then
        Ingest.Internal { proc = Rng.int rng (Membership.processes m) }
      else
        let u, v = Rng.pick_array rng edges in
        if Rng.bool rng then Ingest.Message { src = u; dst = v }
        else Ingest.Message { src = v; dst = u })

(* A channel the current topology lacks, as a delta the membership
   absorbs (possibly widening the stamps). *)
let random_delta rng st =
  let m = Epoch_stamper.membership st in
  let n = Membership.processes m in
  let rec pick tries =
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (Graph.has_edge (Membership.graph m) u v) then
      Printf.sprintf "add:%d-%d" u v
    else if tries = 0 then "add:0-0"
    else pick (tries - 1)
  in
  pick 20

let reference_outcomes st next_ticket events =
  Array.map
    (function
      | Ingest.Message { src; dst } ->
          Ingest.Stamped (Epoch_stamper.stamp st ~src ~dst)
      | Ingest.Internal _ ->
          let t = !next_ticket in
          incr next_ticket;
          Ingest.Deferred t)
    events

let observe_frame seq events =
  Wire.frame (Protocol.encode_request (Protocol.Observe { seq; events }))

let reply_of raw =
  match Result.bind (Wire.unframe raw) Protocol.decode_response with
  | Ok r -> r
  | Error e -> QCheck2.Test.fail_reportf "unreadable reply: %s" e

(* Every Observe reply of the byte path equals, byte for byte, the
   frame of the reference vectors' [Outcomes] — across Finish, churn
   deltas, duplicates (answered with the cached bytes, or the cached
   response on the decoded path) and rejected batches (which consume no
   sequence number and change no later reply). *)
let test_row_path_matches_reference =
  qtest ~count:80 "Observe replies = reference encoder, byte for byte"
    script_gen script_print (fun (layout, seed, actions) ->
      let g, d = (Lazy.force row_layouts).(layout) in
      let rng = Rng.create seed in
      let service = Service.create d in
      let st = Epoch_stamper.create (Membership.create g d) in
      let conn = Service.attach service in
      let seq = ref 0 and next_ticket = ref 0 in
      let last = ref None in
      let step = function
        | Batch (share, len) ->
            let events = random_batch rng st ~share ~len in
            let raw = observe_frame !seq events in
            let got = Service.handle_raw service conn raw in
            let expected = reference_outcomes st next_ticket events in
            let want =
              Wire.frame (Protocol.encode_response (Protocol.Outcomes expected))
            in
            if got <> want then
              QCheck2.Test.fail_reportf "seq %d: reply %s, reference %s" !seq
                (Gen.hex got) (Gen.hex want);
            last := Some (raw, got, events, expected);
            incr seq
        | Dup -> (
            match !last with
            | None -> ()
            | Some (raw, reply, _, _) ->
                if Service.handle_raw service conn raw <> reply then
                  QCheck2.Test.fail_reportf "duplicate got other bytes")
        | Dup_decoded -> (
            match !last with
            | None -> ()
            | Some (_, _, events, expected) -> (
                match
                  Service.handle service conn
                    (Protocol.Observe { seq = !seq - 1; events })
                with
                | Protocol.Outcomes o when o = expected -> ()
                | r ->
                    QCheck2.Test.fail_reportf "decoded duplicate got %a"
                      Protocol.pp_response r))
        | Bad -> (
            let events =
              Array.append
                (random_batch rng st ~share:50 ~len:3)
                [| Ingest.Internal { proc = 1 lsl 20 } |]
            in
            let raw = observe_frame !seq events in
            match reply_of (Service.handle_raw service conn raw) with
            | Protocol.Error_r _ -> ()
            | r ->
                QCheck2.Test.fail_reportf "bad batch got %a"
                  Protocol.pp_response r)
        | Fin -> (
            let raw = Wire.frame (Protocol.encode_request Protocol.Finish) in
            match reply_of (Service.handle_raw service conn raw) with
            | Protocol.Resolved _ -> ()
            | r ->
                QCheck2.Test.fail_reportf "finish got %a" Protocol.pp_response
                  r)
        | Churn -> (
            let spec = random_delta rng st in
            let reply =
              reply_of
                (Service.handle_raw service conn
                   (Wire.frame (Protocol.encode_request (Protocol.Churn spec))))
            in
            let expected =
              Result.bind
                (Membership.delta_of_string spec)
                (Epoch_stamper.apply st)
            in
            match (reply, expected) with
            | Protocol.Epoch_r _, Ok _ | Protocol.Error_r _, Error _ -> ()
            | r, _ ->
                QCheck2.Test.fail_reportf "churn %s got %a" spec
                  Protocol.pp_response r)
      in
      Fun.protect
        ~finally:(fun () -> Service.stop service)
        (fun () ->
          List.iter step actions;
          true))

(* Clocks seeded at or above 2^14 take three-byte varints, and a stamp
   after one of a process seeded at zero has deltas of -2^14 and below:
   the reply the sweep codes as it stamps must still equal its vectors'
   encoding. The reference is the epoch stamper restored to the same
   clocks. *)
let test_seeded_rows =
  qtest ~count:100 "rows of seeded clocks code like their vectors"
    QCheck2.Gen.(triple (int_bound 1) Gen.rng_seed (int_bound 50))
    (fun (layout, seed, share) ->
      Printf.sprintf "layout=%d seed=%d share=%d" layout seed share)
    (fun (layout, seed, share) ->
      let g, d = (Lazy.force row_layouts).(layout) in
      let rng = Rng.create seed in
      let n = Graph.n g and dim = Decomposition.size d in
      let init =
        Array.init n (fun _ ->
            Array.init dim (fun _ ->
                if Rng.bool rng then 0
                else (1 lsl 14) + Rng.int rng (1 lsl 20)))
      in
      let engine =
        Engine.of_layout ~init ~n ~dim ~index:(Decomposition.index d) ()
      in
      let st = Epoch_stamper.create (Membership.create g d) in
      Array.iteri (fun p v -> Epoch_stamper.restore st p (0, v)) init;
      let events = random_batch rng st ~share ~len:64 in
      let expected = reference_outcomes st (ref 0) events in
      let w = Wire.writer 16 in
      Engine.sweep engine w events;
      Wire.contents w = Protocol.encode_response (Protocol.Outcomes expected))

(* An engine needs at least one process: [n = 0] is refused by
   [of_layout] itself, as its interface says, like a negative count. *)
let test_engine_layout_bounds () =
  let index = Decomposition.index_of_edges 0 [] in
  List.iter
    (fun n ->
      match Engine.of_layout ~n ~dim:1 ~index () with
      | exception Invalid_argument e ->
          Alcotest.(check bool)
            (Printf.sprintf "n = %d refused by Engine.create" n)
            true
            (contains ~sub:"Engine.create:" e)
      | _ -> Alcotest.failf "an engine of %d processes was built" n)
    [ 0; -1 ]

(* Internal events through the engine, segment by segment: a Finish or
   an applied churn delta closes a segment, after which every process's
   next internal event has a zero [prev] until it takes part in a
   message. Each segment's stamps must equal the Sec. 5 batch reference
   over that segment alone, and tickets must count up by one across
   all of them. *)
let test_internal_segments =
  qtest ~count:80 "internal stamps = Sec. 5 reference per segment"
    script_gen script_print (fun (layout, seed, actions) ->
      let g, d = (Lazy.force row_layouts).(layout) in
      let rng = Rng.create seed in
      let service = Service.create d in
      let st = Epoch_stamper.create (Membership.create g d) in
      let conn = Service.attach service in
      let seq = ref 0 and next_ticket = ref 0 and base = ref 0 in
      let steps = ref [] and stamps = ref [] in
      let expected = ref [] and got = ref [] in
      let close_segment () =
        let m = Epoch_stamper.membership st in
        let trace =
          Trace.of_steps_exn ~n:(Membership.processes m) (List.rev !steps)
        in
        let message_ts = Array.of_list (List.rev !stamps) in
        let zero = Vector.zero (max 1 (Membership.width m)) in
        Array.iteri
          (fun i (s : Internal_events.stamp) ->
            let s = if message_ts = [||] then { s with prev = zero } else s in
            expected := (!base + i, s) :: !expected)
          (Internal_events.of_trace_with message_ts trace);
        base := !next_ticket;
        steps := [];
        stamps := []
      in
      let resolved = function
        | Protocol.Resolved l -> got := l @ !got
        | r -> QCheck2.Test.fail_reportf "got %a" Protocol.pp_response r
      in
      let step = function
        | Batch (share, len) -> (
            let events = random_batch rng st ~share ~len in
            ignore
              (reference_outcomes st (ref 0) events : Ingest.outcome array);
            let req = Protocol.Observe { seq = !seq; events } in
            match Service.handle service conn req with
            | Protocol.Outcomes outs ->
                incr seq;
                Array.iteri
                  (fun i ev ->
                    match (ev, outs.(i)) with
                    | Ingest.Message { src; dst }, Ingest.Stamped v ->
                        steps := Trace.Send (src, dst) :: !steps;
                        stamps := v :: !stamps
                    | Ingest.Internal { proc }, Ingest.Deferred t ->
                        if t <> !next_ticket then
                          QCheck2.Test.fail_reportf "ticket %d, expected %d" t
                            !next_ticket;
                        incr next_ticket;
                        steps := Trace.Local proc :: !steps
                    | _ ->
                        QCheck2.Test.fail_reportf "outcome of the wrong kind")
                  events
            | r ->
                QCheck2.Test.fail_reportf "observe got %a" Protocol.pp_response
                  r)
        | Dup | Dup_decoded | Bad ->
            resolved (Service.handle service conn Protocol.Drain)
        | Fin ->
            close_segment ();
            resolved (Service.handle service conn Protocol.Finish)
        | Churn -> (
            let spec = random_delta rng st in
            match Service.handle service conn (Protocol.Churn spec) with
            | Protocol.Epoch_r _ ->
                close_segment ();
                ignore
                  (Result.bind (Membership.delta_of_string spec)
                     (Epoch_stamper.apply st))
            | _ -> ())
      in
      Fun.protect
        ~finally:(fun () -> Service.stop service)
        (fun () ->
          List.iter step actions;
          close_segment ();
          resolved (Service.handle service conn Protocol.Finish);
          let by_ticket l = List.sort (fun (a, _) (b, _) -> compare a b) l in
          by_ticket !got = by_ticket !expected))

(* ---------- the fused sweep ---------- *)

let msg src dst = Ingest.Message { src; dst }

let sweep_bytes engine events =
  let w = Wire.writer 16 in
  Engine.sweep engine w events;
  Wire.contents w

let step_of_event = function
  | Ingest.Message { src; dst } -> Trace.Send (src, dst)
  | Ingest.Internal { proc } -> Trace.Local proc

(* The [Outcomes] reply a fresh engine owes one batch: the packet-level
   Fig. 5 oracle's stamps, which share no code with the kernel, and
   tickets from 0. *)
let oracle_reply g d events =
  let trace =
    Trace.of_steps_exn ~n:(Graph.n g)
      (Array.to_list (Array.map step_of_event events))
  in
  let stamps = Online.timestamp_trace_protocol d trace in
  let m = ref 0 and ticket = ref 0 in
  Protocol.encode_response
    (Protocol.Outcomes
       (Array.map
          (function
            | Ingest.Message _ ->
                incr m;
                Ingest.Stamped stamps.(!m - 1)
            | Ingest.Internal _ ->
                incr ticket;
                Ingest.Deferred (!ticket - 1))
          events))

(* Consecutive messages sharing an endpoint: the reply's previous stamp
   sits in the home rows the next message overwrites, so the sweep must
   read each of its components first. On a triangle (one group) the
   stamps count 1, 2, 3, 4; on complete:4 (two groups) every ordered
   pair of channels follows every other, in both directions, with
   internal events between some of them. *)
let test_shared_endpoints () =
  let tri = Topology.disjoint_triangles 1 in
  let d = Decomposition.best tri in
  let events = [| msg 0 1; msg 1 2; msg 2 0; msg 0 1 |] in
  Alcotest.(check string)
    "triangle reply" (Gen.hex (oracle_reply tri d events))
    (Gen.hex (sweep_bytes (Engine.create d) events));
  Alcotest.(check (list (list int)))
    "triangle stamps"
    [ [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ] ]
    (Array.to_list
       (Array.map Array.to_list
          (Ingest.message_stamps
             (Engine.observe_batch (Engine.create d) events))));
  let k4 = Topology.complete 4 in
  let d = Decomposition.best k4 in
  let channels =
    List.concat_map (fun (u, v) -> [ (u, v); (v, u) ]) (Graph.edges k4)
  in
  let events =
    Array.of_list
      (List.concat_map
         (fun (a, b) ->
           List.concat_map
             (fun (c, e) ->
               if (a + c + e) mod 5 = 0 then
                 [ msg a b; Ingest.Internal { proc = c }; msg c e ]
               else [ msg a b; msg c e ])
             channels)
         channels)
  in
  Alcotest.(check int) "complete:4 has two groups" 2 (Decomposition.size d);
  Alcotest.(check string)
    "complete:4 reply" (Gen.hex (oracle_reply k4 d events))
    (Gen.hex (sweep_bytes (Engine.create d) events))

(* An internal event's [prev] is its process's clock before the message
   that resolves it. The sweep moves that clock in place, so it must copy
   it out first: here the waiting events of 0 and 1 must get their last
   stamps, 1 and 2, not the 3 of the message that resolves both. *)
let test_waiting_prev () =
  let d = Decomposition.best (Topology.disjoint_triangles 1) in
  let engine = Engine.create d in
  ignore
    (sweep_bytes engine
       [|
         msg 0 1;
         msg 1 2;
         Ingest.Internal { proc = 0 };
         Ingest.Internal { proc = 1 };
         msg 0 1;
       |]);
  let show (ticket, (s : Internal_events.stamp)) =
    Printf.sprintf "ticket %d on %d: prev %s, succ %s" ticket s.proc
      (Vector.to_string s.prev)
      (match s.succ with Some v -> Vector.to_string v | None -> "none")
  in
  Alcotest.(check (list string))
    "resolved events"
    [ "ticket 0 on 0: prev (1), succ (3)"; "ticket 1 on 1: prev (2), succ (3)" ]
    (List.map show (Engine.drain engine))

(* A --check daemon logs the stamps the fused sweep copies out for it,
   and the replay through the epoch stamper must agree with all of
   them. *)
let test_check_session () =
  let g = Topology.gnp (Rng.create 5) 16 0.4 in
  let d = Decomposition.best g in
  let service = Service.create ~check:true d in
  let conn = Service.attach service in
  let rng = Rng.create 11 in
  let edges = Array.of_list (Graph.edges g) in
  let messages = ref 0 in
  Fun.protect
    ~finally:(fun () -> Service.stop service)
    (fun () ->
      for seq = 0 to 19 do
        let events =
          Array.init 40 (fun _ ->
              if Rng.int rng 10 = 0 then
                Ingest.Internal { proc = Rng.int rng (Graph.n g) }
              else begin
                incr messages;
                let u, v = Rng.pick_array rng edges in
                if Rng.bool rng then msg u v else msg v u
              end)
        in
        let raw = observe_frame seq events in
        match reply_of (Service.handle_raw service conn raw) with
        | Protocol.Outcomes _ -> ()
        | r -> Alcotest.failf "observe got %a" Protocol.pp_response r
      done;
      match
        reply_of
          (Service.handle_raw service conn
             (Wire.frame (Protocol.encode_request Protocol.Verify)))
      with
      | Protocol.Verified { ok; checked } ->
          Alcotest.(check bool) "Verified ok" true ok;
          Alcotest.(check int) "every message checked" !messages checked
      | r -> Alcotest.failf "verify got %a" Protocol.pp_response r)

(* An engine over one triangle (one group) seeded with process 0's
   clock at [top]. *)
let seeded_triangle top =
  let d = Decomposition.best (Topology.disjoint_triangles 1) in
  let init = [| [| top |]; [| 0 |]; [| 0 |] |] in
  ( init,
    fun () ->
      Engine.of_layout ~init ~n:3 ~dim:1 ~index:(Decomposition.index d) () )

let refused name sub f =
  match f () with
  | exception Invalid_argument e ->
      Alcotest.(check bool) (name ^ ": " ^ e) true (contains ~sub e)
  | _ -> Alcotest.failf "%s accepted" name

(* Three messages could lift process 0's clock past [max_int]: the batch
   is refused before its first message moves 1 and 2, and the engine
   then stamps as if it never came. *)
let test_overflow_refused_whole () =
  let init, make = seeded_triangle (max_int - 1) in
  let engine = make () and twin = make () in
  refused "overflowing batch" "component overflow" (fun () ->
      sweep_bytes engine [| msg 1 2; msg 0 1; msg 0 1 |]);
  Alcotest.(check (list (list int)))
    "clocks unmoved"
    (Array.to_list (Array.map Array.to_list init))
    (Array.to_list (Array.map Array.to_list (Engine.process_vectors engine)));
  List.iter
    (fun events ->
      Alcotest.(check string)
        "same reply as an engine that never saw it"
        (Gen.hex (sweep_bytes twin events))
        (Gen.hex (sweep_bytes engine events)))
    [ [| msg 1 2 |]; [| Ingest.Internal { proc = 2 }; msg 0 1 |] ];
  refused "a message past max_int" "component overflow" (fun () ->
      sweep_bytes engine [| msg 1 2 |]);
  ignore (sweep_bytes engine [| Ingest.Internal { proc = 1 } |])

(* Past 2^61 a stamp's delta against the one before it can leave the
   range a reply codes. Such a batch is refused whole; one whose deltas
   stay small is stamped and coded as the reference encoder codes it. *)
let test_delta_range_refused_whole () =
  let top = (1 lsl 61) + 5 in
  let init, make = seeded_triangle top in
  let engine = make () in
  refused "delta past 2^61" "delta out of range" (fun () ->
      sweep_bytes engine [| msg 1 2; msg 0 1 |]);
  Alcotest.(check (list (list int)))
    "clocks unmoved"
    (Array.to_list (Array.map Array.to_list init))
    (Array.to_list (Array.map Array.to_list (Engine.process_vectors engine)));
  Alcotest.(check string)
    "small deltas of large clocks"
    (Gen.hex
       (Protocol.encode_response
          (Protocol.Outcomes
             [| Ingest.Stamped [| top + 1 |]; Ingest.Stamped [| top + 2 |] |])))
    (Gen.hex (sweep_bytes engine [| msg 0 1; msg 1 2 |]))

let () =
  Alcotest.run "server"
    [
      ( "engine",
        [
          test_engine_matches_oracle;
          test_engine_batch_split_invariant;
          Alcotest.test_case "of_layout needs a process" `Quick
            test_engine_layout_bounds;
          Alcotest.test_case "overflow refused whole" `Quick
            test_overflow_refused_whole;
          Alcotest.test_case "delta past 2^61 refused whole" `Quick
            test_delta_range_refused_whole;
        ] );
      ( "row-path",
        [
          test_row_path_matches_reference;
          test_seeded_rows;
          test_internal_segments;
          Alcotest.test_case "messages sharing endpoints" `Quick
            test_shared_endpoints;
          Alcotest.test_case "waiting events get the pre-merge clock" `Quick
            test_waiting_prev;
          Alcotest.test_case "--check verifies the fused sweep" `Quick
            test_check_session;
        ] );
      ( "protocol",
        [
          test_request_roundtrip;
          test_response_roundtrip;
          Alcotest.test_case "wire versioning" `Quick test_wire_versioning;
          Alcotest.test_case "versioned vector frames" `Quick
            test_wire_versioned_vectors;
          Alcotest.test_case "golden frames" `Quick test_golden_frames;
          Alcotest.test_case "delta-coded reply layouts" `Quick
            test_delta_layouts;
          Alcotest.test_case "oversized counts rejected" `Quick
            test_oversized_counts_rejected;
          test_decode_request_total;
          test_decode_response_total;
          test_unframe_total;
          Alcotest.test_case "handle_raw is total" `Quick test_handle_raw_total;
        ] );
      ( "frame",
        [
          Alcotest.test_case "draining is linear" `Quick
            test_frame_drain_linear;
          Alcotest.test_case "split feeds" `Quick test_frame_split_feeds;
        ] );
      ( "service",
        [
          test_service_dup_corrupt;
          Alcotest.test_case "dup replies cached" `Quick
            test_service_dup_replies_cached;
          Alcotest.test_case "gap and stale rejected" `Quick
            test_service_rejects_gap_and_stale;
          test_service_offline_byte_path;
          Alcotest.test_case "offline rejects a batch whole" `Quick
            test_service_offline_rejects_whole_batch;
          Alcotest.test_case "offline stamps widen mid-reply" `Quick
            test_service_offline_widening;
          Alcotest.test_case "resolved queue is bounded on both backends"
            `Quick test_service_queue_bounded;
        ] );
      ( "churn",
        [
          Alcotest.test_case "reshard across epochs" `Quick
            test_service_churn_reshard;
          test_service_churn_random;
        ] );
      ( "socket",
        [
          Alcotest.test_case "daemon round trip" `Quick test_socket_roundtrip;
          Alcotest.test_case "in-process daemon refuses past its fd cap" `Quick
            test_socket_fd_cap;
          Alcotest.test_case "each plane refuses the other's frames" `Quick
            test_socket_plane_split;
          Alcotest.test_case "refusals and closes are counted by cause" `Quick
            test_socket_refusal_causes;
        ] );
    ]
