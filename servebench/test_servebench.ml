(* Tests for the benchmark's own code: percentiles and the reply checks. *)

open Servebench
module Service = Synts_server.Service
module Protocol = Synts_server.Protocol
module Ingest = Synts_ingest.Ingest

let percentile_counts () =
  let sorted n = Array.init n (fun i -> float (i + 1)) in
  (match Stats.percentile (sorted 1000) 0.99 with
  | Ok { value; samples } ->
      Alcotest.(check (float 0.)) "p99 of 1..1000" 990. value;
      Alcotest.(check int) "sample count" 1000 samples
  | Error e -> Alcotest.fail e);
  (match Stats.percentile (sorted 999) 0.99 with
  | Ok _ -> Alcotest.fail "p99 with 9 samples beyond it must be refused"
  | Error _ -> ());
  (match Stats.percentile (sorted 5) 0.5 with
  | Ok _ -> Alcotest.fail "p50 of 5 samples must be refused"
  | Error _ -> ());
  match Stats.percentile (sorted 21) 0.5 with
  | Ok { value; samples } ->
      Alcotest.(check (float 0.)) "p50 of 1..21" 11. value;
      Alcotest.(check int) "sample count" 21 samples
  | Error e -> Alcotest.fail e

let small ?(churn_every = 0) ?(offline = false) () =
  { Workload.name = "test"; spec = "cs:2x6"; offline; batch = 4; inflight = 1;
    drain_every = 4; churn_every; peak_events_per_s = 480 }

(* Serve the whole stream in-process and record every reply; [tamper]
   may alter reply [k] before it is recorded. *)
let serve ?(tamper = fun _ r -> r) w =
  let seed = 5 in
  let d = Synts_graph.Decomposition.best (Workload.topology w ~seed) in
  let stream = Workload.make w ~seed ~seconds:1. ~warmup:0. d in
  let svc = Service.create ~offline:w.offline d in
  let conn = Service.attach svc in
  let r = Check.recorder ~seed ~offline:w.offline in
  let cur = Workload.cursor stream in
  let k = ref 0 in
  let rec loop () =
    match Workload.next cur with
    | None -> ()
    | Some op ->
        Check.record r (tamper !k (Service.handle svc conn (Workload.request stream op)));
        incr k;
        loop ()
  in
  loop ();
  Check.record r (tamper !k (Service.handle svc conn Protocol.Finish));
  Service.stop svc;
  Check.verify r stream d

let verifies what (report : Check.report) =
  Alcotest.(check (list string)) (what ^ ": no failure detail") [] report.detail;
  Alcotest.(check int) (what ^ ": failed") 0 report.failed;
  Alcotest.(check bool) (what ^ ": internal events checked") true (report.internal > 0)

let clean_streams_verify () =
  verifies "fig. 5" (serve (small ()));
  verifies "offline" (serve (small ~offline:true ()))

let churn_mid_stream () =
  let report = serve (small ~churn_every:10 ()) in
  verifies "churn" report;
  Alcotest.(check bool) "several epochs" true (report.attempted > 20)

let flip_first pred =
  let flipped = ref false in
  fun _ (reply : Protocol.response) ->
    (if not !flipped then
       match pred reply with
       | Some v ->
           v.(Array.length v - 1) <- v.(Array.length v - 1) + 1;
           flipped := true
       | None -> ());
    reply

let flipped_replies_fail () =
  let stamp = function
    | Protocol.Outcomes outs ->
        Array.fold_left
          (fun acc o -> match (acc, o) with None, Ingest.Stamped v -> Some v | _ -> acc)
          None outs
    | _ -> None
  in
  let prev = function
    | Protocol.Resolved ((_, (s : Synts_core.Internal_events.stamp)) :: _)
      when Array.length s.prev > 0 ->
        Some s.prev
    | _ -> None
  in
  let r = serve ~tamper:(flip_first stamp) (small ()) in
  Alcotest.(check bool) "flipped message stamp fails" true (r.failed > 0);
  let r = serve ~tamper:(flip_first prev) (small ()) in
  Alcotest.(check bool) "flipped internal stamp fails" true (r.failed > 0);
  let r = serve ~tamper:(flip_first stamp) (small ~churn_every:10 ()) in
  Alcotest.(check bool) "flip under churn fails" true (r.failed > 0)

let () =
  Alcotest.run "servebench"
    [
      ("stats", [ Alcotest.test_case "percentile sample counts" `Quick percentile_counts ]);
      ( "check",
        [
          Alcotest.test_case "clean streams verify" `Quick clean_streams_verify;
          Alcotest.test_case "churn delta mid-stream verifies" `Quick churn_mid_stream;
          Alcotest.test_case "one flipped component fails" `Quick flipped_replies_fail;
        ] );
    ]
