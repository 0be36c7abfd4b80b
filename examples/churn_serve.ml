(* Serve under churn: the daemon reshards across membership epochs
   without dropping client connections.

   Two clients connect to an in-process `synts serve` daemon over a
   unix socket. While the witness client keeps streaming messages, the
   driver applies two membership deltas — P4 joins on 4-0/4-2, then P3
   leaves — each of which retires the engine and boots one laid
   out for the new epoch (clocks translated, ticket space continued).
   Both clients must keep working across both boundaries on the same
   connections, and the server's --check replay (epoch-aware: the
   arrival log with its interleaved deltas is re-run through the
   membership-backed oracle) must confirm every stamp bit-for-bit.

   Exits non-zero on any dropped connection, rejected request, or
   verification failure — this is the @churn-smoke CI leg. *)

module Graph = Synts_graph.Graph
module Decomposition = Synts_graph.Decomposition
module Topology = Synts_graph.Topology
module Ingest = Synts_ingest.Ingest
module Server = Synts_server.Server
module Client = Synts_server.Client

let fail fmt = Format.kasprintf failwith fmt

let send c ~src ~dst =
  match Client.observe c (Ingest.Message { src; dst }) with
  | Ingest.Stamped v -> v
  | Ingest.Deferred _ -> fail "message %d->%d came back deferred" src dst

let () =
  let g = Topology.ring 4 in
  let d = Decomposition.best g in
  let addr = Server.Unix_socket "churn-smoke.sock" in
  let h = Server.spawn ~check:true addr d in
  let driver = Client.connect addr in
  let witness = Client.connect addr in
  let sent = ref 0 in
  let burst c edges =
    List.iter
      (fun (src, dst) ->
        ignore (send c ~src ~dst);
        incr sent)
      edges
  in

  (* Epoch 0: the plain ring. *)
  burst witness [ (0, 1); (1, 2); (2, 3) ];
  burst driver [ (3, 0); (0, 1) ];

  (* Epoch 1: P4 joins on 4-0 and 4-2; the witness's connection must
     survive the reshard and immediately stamp on a new channel. *)
  (match Client.churn driver "join:4:4-0,4-2" with
  | Ok (1, 5, _) -> ()
  | Ok (e, n, w) -> fail "join answered epoch %d, %d procs, width %d" e n w
  | Error e -> fail "join rejected: %s" e);
  burst witness [ (4, 0); (1, 2); (4, 2) ];
  burst driver [ (0, 1); (2, 3) ];

  (* Epoch 2: P3 leaves, retiring channels 2-3 and 3-0. *)
  (match Client.churn driver "leave:3" with
  | Ok (2, _, _) -> ()
  | Ok (e, _, _) -> fail "leave answered epoch %d" e
  | Error e -> fail "leave rejected: %s" e);
  burst witness [ (4, 0); (0, 1) ];
  burst driver [ (4, 2); (1, 2) ];

  (* A retired channel must be refused without killing the session. *)
  (match Client.observe witness (Ingest.Message { src = 2; dst = 3 }) with
  | exception Failure _ -> ()
  | _ -> fail "retired channel 2-3 was stamped");
  burst witness [ (0, 1) ];

  if Client.epoch witness <> 0 then fail "witness saw a churn reply";
  if Client.epoch driver <> 2 then fail "driver epoch stale";

  (* Both connections alive end-to-end; now the epoch-aware replay. *)
  (match Client.server_stats driver with
  | Ok s when s.Client.clients = 2 -> ()
  | Ok s -> fail "%d clients attached (dropped connection?)" s.Client.clients
  | Error e -> fail "stats: %s" e);
  (match Client.verify_server driver with
  | Ok (true, checked) when checked = !sent ->
      Format.printf
        "churn-smoke: %d messages over 3 epochs, 2 connections kept, \
         replay exact@."
        checked
  | Ok (true, checked) -> fail "replay checked %d of %d" checked !sent
  | Ok (false, _) -> fail "epoch-aware replay found a mismatch"
  | Error e -> fail "verify: %s" e);
  Client.close witness;
  Client.shutdown driver;
  Server.join h
