module Vector = Synts_clock.Vector
module Fm_sync = Synts_clock.Fm_sync
module Fm_event = Synts_clock.Fm_event
module Lamport = Synts_clock.Lamport
module Plausible = Synts_clock.Plausible
module Direct_dependency = Synts_clock.Direct_dependency
module Singhal_kshemkalyani = Synts_clock.Singhal_kshemkalyani
module Trace = Synts_sync.Trace
module Async_trace = Synts_sync.Async_trace
module Message_poset = Synts_sync.Message_poset
module Poset = Synts_poset.Poset
module Validate = Synts_check.Validate
module Oracle = Synts_check.Oracle
module Gen = Synts_test_support.Gen

let qtest ?(count = 150) name gen print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen f)

(* ---------- Vector algebra ---------- *)

let vec_gen =
  QCheck2.Gen.(
    let* n = int_range 1 6 in
    let* u = array_size (return n) (int_bound 5) in
    let* v = array_size (return n) (int_bound 5) in
    return (u, v))

let vec_print (u, v) = Vector.to_string u ^ " vs " ^ Vector.to_string v

let test_vector_classify =
  qtest "compare_order consistent with lt/leq/concurrent" vec_gen vec_print
    (fun (u, v) ->
      match Vector.compare_order u v with
      | `Lt -> Vector.lt u v && Vector.leq u v && not (Vector.concurrent u v)
      | `Gt -> Vector.lt v u && not (Vector.lt u v)
      | `Eq -> Vector.equal u v && Vector.leq u v && not (Vector.lt u v)
      | `Concurrent ->
          Vector.concurrent u v
          && (not (Vector.lt u v))
          && not (Vector.lt v u))

let test_vector_antisymmetry =
  qtest "lt is antisymmetric" vec_gen vec_print (fun (u, v) ->
      not (Vector.lt u v && Vector.lt v u))

let test_vector_merge_is_lub =
  qtest "merge is the least upper bound" vec_gen vec_print (fun (u, v) ->
      let m = Vector.merge u v in
      Vector.leq u m && Vector.leq v m
      && Array.for_all Fun.id (Array.mapi (fun i x -> x = max u.(i) v.(i)) m))

let test_vector_ops () =
  let v = Vector.zero 3 in
  Vector.incr v 1;
  Alcotest.(check string) "incr" "(0,1,0)" (Vector.to_string v);
  Vector.max_into ~dst:v [| 2; 0; 0 |];
  Alcotest.(check string) "max_into" "(2,1,0)" (Vector.to_string v);
  Alcotest.check_raises "size mismatch" (Invalid_argument "Vector: size mismatch")
    (fun () -> ignore (Vector.lt v [| 1 |]))

(* ---------- Fidge–Mattern (sync) ---------- *)

let test_fm_sync_exact =
  qtest "FM sync timestamps encode the message poset" Gen.computation
    Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      Validate.ok (Validate.message_timestamps trace (Fm_sync.timestamp_trace trace)))

let test_fm_sync_size () =
  let trace = Trace.of_steps_exn ~n:7 [ Send (0, 1); Send (5, 6) ] in
  let ts = Fm_sync.timestamp_trace trace in
  Alcotest.(check int) "vector size is N" 7 (Vector.size ts.(0));
  Alcotest.(check int) "2N entries per message" 14
    (Fm_sync.entries_per_message ~n:7)

(* ---------- Fidge–Mattern (event) ---------- *)

let test_fm_event_chain () =
  (* P0 sends to P1, P1 then sends to P2: receive vectors grow. *)
  let a =
    Async_trace.make_exn ~n:3
      [|
        [ Async_trace.ASend 0 ];
        [ Async_trace.ARecv 0; Async_trace.ASend 1 ];
        [ Async_trace.ARecv 1 ];
      |]
  in
  let vs = Fm_event.message_vectors a in
  Alcotest.(check bool) "v(m0) < v(m1)" true (Vector.lt vs.(0) vs.(1))

let test_fm_event_concurrent () =
  let a =
    Async_trace.make_exn ~n:4
      [|
        [ Async_trace.ASend 0 ];
        [ Async_trace.ARecv 0 ];
        [ Async_trace.ASend 1 ];
        [ Async_trace.ARecv 1 ];
      |]
  in
  let vs = Fm_event.message_vectors a in
  Alcotest.(check bool) "disjoint messages concurrent" true
    (Vector.concurrent vs.(0) vs.(1))

let test_fm_event_internal_count () =
  let a =
    Async_trace.make_exn ~n:2
      [|
        [ Async_trace.ALocal; Async_trace.ASend 0; Async_trace.ALocal ];
        [ Async_trace.ARecv 0 ];
      |]
  in
  let per = Fm_event.timestamps a in
  Alcotest.(check int) "P0 events" 3 (List.length per.(0));
  Alcotest.(check int) "P1 events" 1 (List.length per.(1));
  (* P0's clock ticks at each event. *)
  let last = List.nth per.(0) 2 in
  Alcotest.(check int) "P0 own component" 3 last.(0)

(* ---------- Lamport ---------- *)

let test_lamport_sound =
  qtest "Lamport clocks are sound" Gen.computation Gen.computation_print
    (fun c ->
      let _, trace = Gen.build_computation c in
      let ts = Lamport.timestamp_trace trace in
      Lamport.consistent_with trace ts
      && Validate.ok (Validate.sound_only trace ts))

let test_lamport_not_complete () =
  (* Two concurrent messages get comparable integers: completeness fails. *)
  let trace = Trace.of_steps_exn ~n:4 [ Send (0, 1); Send (2, 3); Send (2, 3) ] in
  let ts = Lamport.timestamp_trace trace in
  let p = Message_poset.of_trace trace in
  Alcotest.(check bool) "m0 || m2" true (Poset.concurrent p 0 2);
  Alcotest.(check bool) "but scalar orders them" true (ts.(0) < ts.(2))

(* ---------- Plausible clocks ---------- *)

let test_plausible_sound =
  qtest "plausible clocks never miss a real ordering" Gen.computation
    Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      let r = max 1 (Trace.n trace / 2) in
      let vs = Plausible.timestamp_trace ~r trace in
      let v = Validate.message_timestamps trace vs in
      (* Soundness = no missed orders; false orders are expected. *)
      v.Validate.missed_orders = 0)

let test_plausible_full_size_exact =
  qtest "plausible with r = N degenerates to exact FM" Gen.computation
    Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      let vs = Plausible.timestamp_trace ~r:(Trace.n trace) trace in
      Validate.ok (Validate.message_timestamps trace vs))

let test_plausible_classes =
  qtest ~count:100 "arbitrary class mappings stay sound" Gen.computation
    Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      (* Cluster processes into pairs. *)
      let classes = Array.init (Trace.n trace) (fun p -> p / 2) in
      let vs = Plausible.timestamp_trace_with ~classes trace in
      (Validate.message_timestamps trace vs).Validate.missed_orders = 0)

let test_plausible_identity_classes_exact =
  qtest ~count:80 "identity classes recover exact FM" Gen.computation
    Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      let classes = Array.init (Trace.n trace) Fun.id in
      let vs = Plausible.timestamp_trace_with ~classes trace in
      Validate.ok (Validate.message_timestamps trace vs))

let test_plausible_errs () =
  (* Folding 4 processes into r=1 orders everything: concurrent pairs get
     falsely ordered. *)
  let trace =
    Trace.of_steps_exn ~n:4 [ Send (0, 1); Send (2, 3); Send (0, 1); Send (2, 3) ]
  in
  let rate = Plausible.ordering_error_rate ~r:1 trace in
  Alcotest.(check bool) "r=1 has errors" true (rate > 0.0);
  let exact = Plausible.ordering_error_rate ~r:4 trace in
  Alcotest.(check (float 0.0)) "r=N exact" 0.0 exact

(* ---------- Direct dependency ---------- *)

let test_direct_dependency_exact =
  qtest "direct-dependency search equals oracle precedence" Gen.computation
    Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      let log = Direct_dependency.of_trace trace in
      let p = Oracle.message_poset trace in
      let k = Trace.message_count trace in
      let ok = ref true in
      for i = 0 to k - 1 do
        for j = 0 to k - 1 do
          if i <> j && Direct_dependency.precedes log i j <> Poset.lt p i j
          then ok := false
        done
      done;
      !ok)

let test_direct_dependency_cost () =
  Alcotest.(check int) "constant piggyback" 2
    Direct_dependency.entries_per_message

(* ---------- Singhal–Kshemkalyani ---------- *)

let test_sk_same_timestamps =
  qtest "SK compression produces FM's timestamps" Gen.computation
    Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      let sk, _ = Singhal_kshemkalyani.simulate trace in
      let fm = Fm_sync.timestamp_trace trace in
      Array.for_all2 Vector.equal sk fm)

let test_sk_compresses =
  qtest "SK never sends more than full vectors" Gen.computation
    Gen.computation_print (fun c ->
      let _, trace = Gen.build_computation c in
      let _, stats = Singhal_kshemkalyani.simulate trace in
      stats.Singhal_kshemkalyani.entries_sent
      <= stats.Singhal_kshemkalyani.full_entries)

let test_sk_repeated_channel () =
  (* Repeated exchanges over one channel touch few components: strong
     compression. *)
  let trace =
    Trace.of_steps_exn ~n:6
      (List.concat (List.init 20 (fun _ -> [ Trace.Send (0, 1) ])))
  in
  let _, stats = Singhal_kshemkalyani.simulate trace in
  let avg = Singhal_kshemkalyani.average_entries_per_message stats in
  Alcotest.(check bool) "average well below 2N = 12" true (avg < 6.0)

(* ---------- Wire encoding ---------- *)

module Wire = Synts_clock.Wire

let small_vec =
  QCheck2.Gen.(array_size (int_range 0 10) (int_bound 1_000_000))

let test_wire_roundtrip =
  qtest ~count:300 "encode/decode round-trips" small_vec Vector.to_string
    (fun v ->
      match Wire.decode (Wire.encode v) with
      | Ok v' -> v = v'
      | Error _ -> false)

let test_wire_size =
  qtest ~count:200 "encoded_bytes matches actual encoding" small_vec
    Vector.to_string (fun v ->
      Wire.encoded_bytes v = String.length (Wire.encode v))

let test_wire_small_vectors_cheap () =
  (* A fresh 4-entry clock costs 5 bytes; a fresh 128-entry FM clock 129. *)
  Alcotest.(check int) "d=4" 5 (Wire.encoded_bytes (Vector.zero 4));
  Alcotest.(check int) "N=128" 130 (Wire.encoded_bytes (Vector.zero 128));
  Alcotest.(check int) "big counters grow log" 3
    (String.length (Wire.encode [| 300 |]))

let test_wire_rejects () =
  (match Wire.decode "" with Error _ -> () | Ok _ -> Alcotest.fail "empty");
  (match Wire.decode "\x02\x01" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated");
  (match Wire.decode (Wire.encode [| 1; 2 |] ^ "\x00") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing");
  (match Wire.decode "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "overflowing varint");
  (* Overlong encodings of 0 and of 1: only the shortest form decodes. *)
  (match Wire.decode "\x01\x80\x00" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-canonical zero");
  match Wire.decode "\x81\x00\x01" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-canonical count"

(* The one-byte fast paths meet the loop at 0x7f/0x80; 0x3fff/0x4000 is
   the next length step. Each value takes exactly its LEB128 bytes, and
   the slow path still refuses the overlong [0x80 0x00] and a vector cut
   off right after a fast-path byte. *)
let test_varint_edges () =
  List.iter
    (fun (v, bytes) ->
      let w = Wire.writer 1 in
      Wire.put_varint w v;
      Alcotest.(check string) (Printf.sprintf "0x%x bytes" v) bytes
        (Wire.contents w);
      Alcotest.(check (result int string))
        (Printf.sprintf "0x%x round-trips" v)
        (Ok v)
        (Wire.parse bytes Wire.get_varint);
      Alcotest.(check (result (array int) string))
        (Printf.sprintf "[0x%x; 1] round-trips" v)
        (Ok [| v; 1 |])
        (Wire.decode (Wire.encode [| v; 1 |])))
    [
      (0x7f, "\x7f");
      (0x80, "\x80\x01");
      (0x3fff, "\xff\x7f");
      (0x4000, "\x80\x80\x01");
    ];
  let refused name s =
    match Wire.parse s Wire.get_varint with
    | Error _ -> ()
    | Ok v -> Alcotest.failf "%s decoded as %d" name v
  in
  refused "overlong zero" "\x80\x00";
  refused "empty" "";
  (match Wire.decode "\x02\x05" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "vector truncated after a one-byte component");
  match Wire.decode "\x03\x05\x7f" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "vector truncated after two one-byte components"

let test_wire_diff =
  qtest ~count:300 "diff round-trips against the previous vector"
    QCheck2.Gen.(
      let* n = int_range 0 10 in
      let* prev = array_size (return n) (int_bound 100) in
      let* v = array_size (return n) (int_bound 100) in
      return (prev, v))
    (fun (p, v) -> Vector.to_string p ^ " -> " ^ Vector.to_string v)
    (fun (prev, v) ->
      match Wire.decode_diff ~prev (Wire.encode_diff ~prev v) with
      | Ok v' -> v' = v
      | Error _ -> false)

let test_wire_diff_compresses () =
  let prev = Array.make 64 7 in
  let v = Array.copy prev in
  v.(10) <- 8;
  let diff = Wire.encode_diff ~prev v in
  let full = Wire.encode v in
  Alcotest.(check bool) "diff much smaller" true
    (String.length diff < String.length full / 4);
  Alcotest.(check int) "single change costs 3 bytes" 3 (String.length diff)

(* Reference codecs written straight from their definitions: the
   optimised [Wire] must agree with them byte for byte. The checksum is
   the one [wire.mli] defines, one byte at a time: four lanes over the
   little-endian words of each 16-byte block, folded, then the tail
   bytes, the length and fmix32, every product taken mod 2^32. *)
let reference_checksum s =
  let n = String.length s in
  let mul a b = a * b land 0xffffffff in
  let step h w = mul (h lxor w) 0x9e3779b1 in
  let byte i = Char.code s.[i] in
  let word i =
    byte i
    lor (byte (i + 1) lsl 8)
    lor (byte (i + 2) lsl 16)
    lor (byte (i + 3) lsl 24)
  in
  let lanes = [| 0x243f6a88; 0x85a308d3; 0x13198a2e; 0x03707344 |] in
  for b = 0 to (n / 16) - 1 do
    for j = 0 to 3 do
      lanes.(j) <- step lanes.(j) (word ((16 * b) + (4 * j)))
    done
  done;
  let h = ref (step (step (step lanes.(0) lanes.(1)) lanes.(2)) lanes.(3)) in
  for i = n / 16 * 16 to n - 1 do
    h := step !h (byte i)
  done;
  let h = step !h (n land 0xffffffff) in
  let h = h lxor (h lsr 16) in
  let h = mul h 0x85ebca6b in
  let h = h lxor (h lsr 13) in
  let h = mul h 0xc2b2ae35 in
  h lxor (h lsr 16)

let leb128 v =
  let b = Buffer.create 10 in
  let rec go v =
    if v < 0x80 then Buffer.add_char b (Char.chr v)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (v land 0x7f)));
      go (v lsr 7)
    end
  in
  go v;
  Buffer.contents b

(* Every varint length, with the values either side of each length
   boundary drawn often. *)
let any_component =
  QCheck2.Gen.(
    oneof
      [
        int_bound 300;
        int_bound 3_000_000;
        map (fun x -> x land max_int) int;
        map (fun bits -> (1 lsl bits) - 1) (int_range 0 62);
        map (fun bits -> 1 lsl bits) (int_range 0 61);
      ])

(* Fixed digests: the empty string, one byte and six bytes (all tail,
   no whole block), and 4 KiB of whole blocks. *)
let test_checksum_vectors () =
  let four_kib =
    String.init 4096 (fun i -> Char.chr (((i * 7) + (i / 256)) land 0xff))
  in
  List.iter
    (fun (name, s, h) ->
      Alcotest.(check int) (name ^ " reference") h (reference_checksum s);
      Alcotest.(check int) name h (Wire.checksum s))
    [
      ("empty", "", 0x7fcea49c);
      ("a", "a", 0xe0ff5c9e);
      ("foobar", "foobar", 0x11d793db);
      ("4 KiB", four_kib, 0xb91d8fb3);
    ]

(* Lengths up to 300 with every residue mod 16 drawn equally often, so
   each tail length meets each block count. *)
let test_checksum_reference =
  qtest ~count:500 "checksum matches a reference implementation"
    QCheck2.Gen.(
      let* tail = int_bound 15 in
      let* blocks = int_bound ((300 - tail) / 16) in
      string_size (return ((16 * blocks) + tail)))
    Gen.hex
    (fun s -> Wire.checksum s = reference_checksum s)

(* Every single-byte replacement anywhere in a frame — version byte,
   checksum varint or body — at every position of frames whose bodies
   are 0 to 40 bytes long, must be refused. *)
let test_unframe_refuses_byte_changes () =
  for len = 0 to 40 do
    let body =
      String.init len (fun i -> Char.chr (((i * 131) + (len * 17)) land 0xff))
    in
    let frame = Wire.frame body in
    for pos = 0 to String.length frame - 1 do
      for c = 0 to 255 do
        if Char.chr c <> frame.[pos] then begin
          let bad = Bytes.of_string frame in
          Bytes.set bad pos (Char.chr c);
          match Wire.unframe (Bytes.to_string bad) with
          | Error _ -> ()
          | Ok _ ->
              Alcotest.failf "body of %d bytes: byte %d set to %02x accepted"
                len pos c
        end
      done
    done
  done

let test_encode_reference =
  qtest ~count:300 "encode matches a reference LEB128"
    QCheck2.Gen.(array_size (int_bound 12) any_component)
    Vector.to_string
    (fun v ->
      Wire.encode v
      = String.concat "" (List.map leb128 (Array.length v :: Array.to_list v)))

(* Bytes recorded from the previous codec: any change to the vector,
   epoch or diff layout fails here. *)
let test_wire_golden () =
  let check name expect got =
    Alcotest.(check string) name expect (Gen.hex got)
  in
  check "encode" "05007f8001ac02ffffffffffffffff3f"
    (Wire.encode [| 0; 127; 128; 300; max_int |]);
  (* The header is the version byte 03 and the body's checksum varint;
     the body is the one the earlier codec wrote. *)
  check "epoch frame" ("03d7f1bd1c" ^ "030304008101")
    (Wire.encode_epoch_framed ~epoch:3 [| 4; 0; 129 |]);
  check "diff" "02010503c801"
    (Wire.encode_diff ~prev:[| 1; 2; 3; 4 |] [| 1; 5; 3; 200 |])

let any_vector = QCheck2.Gen.(array_size (int_bound 10) any_component)

let test_decode_total =
  qtest ~count:1000 "decode is total and canonical"
    (Gen.hostile (QCheck2.Gen.map Wire.encode any_vector))
    Gen.hex
    (Gen.total_decoder Wire.decode (fun s v -> Wire.encode v = s))

let test_decode_epoch_total =
  qtest ~count:1000 "decode_epoch is total and canonical"
    (Gen.hostile
       QCheck2.Gen.(
         map2
           (fun epoch v -> Wire.encode_epoch ~epoch v)
           any_component any_vector))
    Gen.hex
    (Gen.total_decoder Wire.decode_epoch (fun s (epoch, v) ->
         Wire.encode_epoch ~epoch v = s))

(* Against a [prev] of -1s every decoded entry differs from [prev], so an
   accepted diff must re-encode to its own bytes; a short [prev] puts
   some indices out of range. *)
let test_decode_diff_total =
  let prev = Array.make 8 (-1) in
  qtest ~count:1000 "decode_diff is total and canonical"
    (Gen.hostile
       QCheck2.Gen.(
         map2
           (fun base v -> Wire.encode_diff ~prev:base v)
           (array_size (return 10) (int_bound 3))
           (array_size (return 10) any_component)))
    Gen.hex
    (Gen.total_decoder (Wire.decode_diff ~prev) (fun s v ->
         Wire.encode_diff ~prev v = s))

let () =
  Alcotest.run "clock"
    [
      ( "wire",
        [
          Alcotest.test_case "small vectors cheap" `Quick
            test_wire_small_vectors_cheap;
          Alcotest.test_case "rejects malformed" `Quick test_wire_rejects;
          Alcotest.test_case "varint fast-path edges" `Quick test_varint_edges;
          Alcotest.test_case "diff compresses" `Quick test_wire_diff_compresses;
          Alcotest.test_case "checksum vectors" `Quick test_checksum_vectors;
          Alcotest.test_case "golden bytes" `Quick test_wire_golden;
          test_checksum_reference;
          Alcotest.test_case "unframe refuses every byte change" `Quick
            test_unframe_refuses_byte_changes;
          test_encode_reference;
          test_decode_total;
          test_decode_epoch_total;
          test_decode_diff_total;
          test_wire_roundtrip;
          test_wire_size;
          test_wire_diff;
          (let gen =
             QCheck2.Gen.(
               string_size ~gen:(char_range '\000' '\255') (int_bound 40))
           in
           qtest ~count:300 "decoder never raises on junk" gen String.escaped
             (fun junk ->
               (match Wire.decode junk with Ok _ | Error _ -> true)
               &&
               match Wire.decode_diff ~prev:[| 1; 2; 3 |] junk with
               | Ok _ | Error _ -> true));
        ] );
      ( "vector",
        [
          Alcotest.test_case "ops" `Quick test_vector_ops;
          test_vector_classify;
          test_vector_antisymmetry;
          test_vector_merge_is_lub;
        ] );
      ( "fm-sync",
        [
          Alcotest.test_case "size is N" `Quick test_fm_sync_size;
          test_fm_sync_exact;
        ] );
      ( "fm-event",
        [
          Alcotest.test_case "causal chain" `Quick test_fm_event_chain;
          Alcotest.test_case "concurrency" `Quick test_fm_event_concurrent;
          Alcotest.test_case "event counting" `Quick
            test_fm_event_internal_count;
        ] );
      ( "lamport",
        [
          Alcotest.test_case "incompleteness witness" `Quick
            test_lamport_not_complete;
          test_lamport_sound;
        ] );
      ( "plausible",
        [
          Alcotest.test_case "error rates" `Quick test_plausible_errs;
          test_plausible_sound;
          test_plausible_full_size_exact;
          test_plausible_classes;
          test_plausible_identity_classes_exact;
        ] );
      ( "direct-dependency",
        [
          Alcotest.test_case "piggyback cost" `Quick
            test_direct_dependency_cost;
          test_direct_dependency_exact;
        ] );
      ( "singhal-kshemkalyani",
        [
          Alcotest.test_case "compression on hot channel" `Quick
            test_sk_repeated_channel;
          test_sk_same_timestamps;
          test_sk_compresses;
        ] );
    ]
