module Decomposition = Synts_graph.Decomposition
module Graph = Synts_graph.Graph
module Membership = Synts_graph.Membership
module Epoch_stamper = Synts_core.Epoch_stamper
module Wire = Synts_clock.Wire
module Ingest = Synts_ingest.Ingest
module Tm = Synts_telemetry.Telemetry

let m_churn =
  Tm.Counter.v ~help:"Membership deltas applied by the serve service"
    "server.churn.deltas"

let m_requests =
  Tm.Counter.v ~help:"Requests handled by the serve service" "server.requests"

let m_errors =
  Tm.Counter.v ~help:"Requests answered with an error" "server.errors"

let m_bad_frames =
  Tm.Counter.v
    ~help:"Frames refused before decoding: checksum, version or truncation"
    "server.bad_frames"

let m_bad_requests =
  Tm.Counter.v ~help:"Frame bodies the request decoder refused"
    "server.bad_requests"

let m_dups =
  Tm.Counter.v ~help:"Duplicate Observe requests answered from the reply cache"
    "server.duplicates"

(* The reply to [last_seq], replayed on duplicate delivery, is kept in
   the form its request came in: the response [handle] returned, or the
   frame [handle_raw] wrote. A replay in the other form converts it once;
   the encoding is deterministic, so the bytes are the same either way. *)
type conn = {
  id : int;
  mutable last_seq : int;  (* -1 until the first Observe *)
  mutable cached : Protocol.response option;
  frame : Wire.writer;  (* empty unless the cached reply is a frame *)
  mutable events_in : int;
  mutable stamps_out : int;
  mutable dedup_hits : int;
}

(* The stamping backend behind the protocol: the Fig. 5 engine, or the
   streaming offline pipeline. Both are driven through their packed
   {!Ingest.sink}; the engine's byte path, churn and the verify oracle
   are backend-specific. *)
type backend =
  | Online of Engine.t
  | Offline_stream of Synts_ingest.Offline_sink.t

(* Check-mode arrival log: events interleaved with the membership deltas
   applied between them, so the verify replay crosses the same epoch
   boundaries at the same points the live engines did. *)
type log_item = Ev of Ingest.event | Delta of Membership.delta

type t = {
  mutable backend : backend;
      (* Re-pointed at a fresh engine on every applied churn delta; the
         connection table is untouched, so clients ride across epochs. *)
  mutable sink : Ingest.sink;
  decomposition : Decomposition.t;  (* epoch-0 layout *)
  membership : Membership.t option;  (* None for the offline backend *)
  mutable carry :
    (Ingest.ticket * Synts_core.Internal_events.stamp) list;
      (* Resolved stamps flushed out of a retired engine at an epoch
         boundary, owed to the client's next Drain/Finish. *)
  check : bool;
  mutable log : log_item list;  (* reversed arrival order; check mode *)
  mutable stamped : Synts_clock.Vector.t list;  (* reversed; check mode *)
  conns : (int, conn) Hashtbl.t;
  mutable next_conn : int;
  mutable batches : int;
  mutable messages : int;
  mutable internal : int;
  mutable dedup : int;
  mutable errors : int;
  registry : Tm.registry;
      (* Service-private, so concurrent daemons (benches spawn several)
         don't pool their latency histograms. *)
  stamp_ms : Tm.Histogram.t;
  body : Wire.writer;  (* scratch: the reply body being written *)
  reply : Wire.writer;  (* scratch: a framed reply that is not cached *)
  mutable bye : bool;  (* the last byte-path reply was [Bye] *)
}

(* The graph a decomposition covers, rebuilt from its own groups — the
   membership's epoch-0 topology, guaranteed to match the decomposition
   exactly. *)
let graph_of_decomposition d =
  Graph.of_edges
    (Decomposition.graph_vertices d)
    (List.concat_map Decomposition.edges_of_group (Decomposition.groups d))

let create ?(check = false) ?(offline = false) ?window d =
  let backend =
    if offline then
      Offline_stream
        (Synts_ingest.Offline_sink.create ?window
           ~n:(Decomposition.graph_vertices d) ())
    else Online (Engine.create d)
  in
  let membership =
    if offline then None
    else Some (Membership.create (graph_of_decomposition d) d)
  in
  let sink =
    match backend with
    | Online e -> Engine.ingest e
    | Offline_stream s -> Synts_ingest.Offline_sink.ingest s
  in
  let registry = Tm.create_registry () in
  let stamp_ms =
    Tm.Histogram.v ~registry
      ~help:"Server-side batch stamping latency (milliseconds)"
      ~buckets:[| 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.; 25.;
                  50.; 100. |]
      "server.stamp_ms"
  in
  {
    backend;
    sink;
    decomposition = d;
    membership;
    carry = [];
    check;
    log = [];
    stamped = [];
    conns = Hashtbl.create 8;
    next_conn = 0;
    batches = 0;
    messages = 0;
    internal = 0;
    dedup = 0;
    errors = 0;
    registry;
    stamp_ms;
    body = Wire.writer 256;
    reply = Wire.writer 256;
    bye = false;
  }

let attach t =
  let conn =
    {
      id = t.next_conn;
      last_seq = -1;
      cached = None;
      frame = Wire.writer 64;
      events_in = 0;
      stamps_out = 0;
      dedup_hits = 0;
    }
  in
  t.next_conn <- t.next_conn + 1;
  Hashtbl.replace t.conns conn.id conn;
  conn

let detach t conn = Hashtbl.remove t.conns conn.id
let clients t = Hashtbl.length t.conns

let stop t =
  match t.backend with Online e -> Engine.stop e | Offline_stream _ -> ()

let backend t = t.backend

let backend_name t =
  match t.backend with
  | Online _ -> "online"
  | Offline_stream _ -> "offline-stream"

let batches t = t.batches
let messages_total t = t.messages
let internal_total t = t.internal
let dedup_hits t = t.dedup
let errors t = t.errors

let pending t =
  match t.backend with
  | Online e -> Engine.pending e
  | Offline_stream s -> Synts_ingest.Offline_sink.pending s

let dropped t =
  match t.backend with
  | Online e -> Engine.dropped e
  | Offline_stream s -> Synts_ingest.Offline_sink.dropped s

let stamp_quantiles t =
  let q p = Tm.Histogram.quantile t.stamp_ms p in
  (q 0.5, q 0.9, q 0.99)

let conn_stats t =
  Hashtbl.fold
    (fun _ c acc ->
      (c.id, c.events_in, c.stamps_out, c.dedup_hits, c.last_seq) :: acc)
    t.conns []
  |> List.sort compare

let telemetry_snapshots t =
  Tm.snapshot ~registry:t.registry ()
  :: (match t.backend with
     | Online e -> [ Engine.telemetry_snapshot e ]
     | Offline_stream _ -> [])

(* The bookkeeping of an accepted batch; [stamp i] builds the stamp of
   message [i], asked for only in check mode. *)
let accept t conn seq events ~stamp =
  let messages = ref 0 in
  Array.iter
    (function Ingest.Message _ -> incr messages | Ingest.Internal _ -> ())
    events;
  let len = Array.length events in
  t.messages <- t.messages + !messages;
  t.internal <- t.internal + len - !messages;
  t.batches <- t.batches + 1;
  conn.events_in <- conn.events_in + len;
  conn.stamps_out <- conn.stamps_out + !messages;
  conn.last_seq <- seq;
  if t.check then
    Array.iteri
      (fun i ev ->
        t.log <- Ev ev :: t.log;
        match ev with
        | Ingest.Message _ -> t.stamped <- stamp i :: t.stamped
        | Ingest.Internal _ -> ())
      events

let epoch t =
  match t.membership with Some m -> Membership.epoch m | None -> 0

let membership t = t.membership

let take_carry t =
  let out = t.carry in
  t.carry <- [];
  out

(* Apply one membership delta: retire the current engine (flushing its
   resolved queue into [carry] so nothing owed to the client is lost),
   translate the per-process clock vectors into the new epoch's layout,
   and stand up a fresh engine seeded with them, continuing the ticket
   space. Connections are not touched — the reshard is invisible to the
   protocol layer except for the new epoch in [Epoch_r]/[Welcome]. *)
let apply_churn t delta =
  match (t.backend, t.membership) with
  | Offline_stream _, _ | _, None ->
      Error "churn requires the online backend (run without --offline)"
  | Online e, Some m -> (
      let from_epoch = Membership.epoch m in
      let w_old = Membership.width m in
      match Membership.apply m delta with
      | Error _ as err -> err
      | Ok _remap ->
          let flushed = Engine.finish e in
          if flushed <> [] then t.carry <- t.carry @ flushed;
          let vecs = Engine.process_vectors e in
          let first_ticket = Engine.next_ticket e in
          Engine.stop e;
          let n' = Membership.processes m in
          let w' = Membership.width m in
          let dim' = max 1 w' in
          let init =
            Array.init n' (fun p ->
                if p < Array.length vecs && w_old > 0 && w' > 0 then
                  Membership.translate m ~from_epoch vecs.(p)
                else Array.make dim' 0)
          in
          let e' =
            Engine.of_layout ~init ~first_ticket ~n:n' ~dim:dim'
              ~index:(Membership.index m) ()
          in
          t.backend <- Online e';
          t.sink <- Engine.ingest e';
          Tm.Counter.incr m_churn;
          if t.check then t.log <- Delta delta :: t.log;
          Ok (Membership.epoch m, n', dim'))

(* Online mode: replay events {e and} membership deltas in arrival order
   through the epoch-aware oracle ({!Epoch_stamper} over a fresh
   membership seeded from the epoch-0 decomposition, whose slots are the
   decomposition's groups), crossing the same epoch boundaries at the
   same points. Stamps must match bit-for-bit epoch by epoch.
   [Epoch_stamper] keeps its own clocks, apart from the engine's kernel,
   so a churn-free log is checked against an independent oracle too.
   Internal-event stamps are functions of the surrounding message
   stamps, so message equality is the whole exactness claim. *)
let verify_epochs t =
  let st =
    Epoch_stamper.create
      (Membership.create (graph_of_decomposition t.decomposition)
         t.decomposition)
  in
  let stamped = ref (List.rev t.stamped) in
  let checked = ref 0 in
  let ok = ref true in
  List.iter
    (fun item ->
      match item with
      | Ev (Ingest.Internal _) -> ()
      | Delta d -> (
          match Epoch_stamper.apply st d with
          | Ok _ -> ()
          | Error _ -> ok := false)
      | Ev (Ingest.Message { src; dst }) -> (
          incr checked;
          match Epoch_stamper.stamp st ~src ~dst with
          | expect -> (
              match !stamped with
              | got :: rest ->
                  stamped := rest;
                  if got <> expect then ok := false
              | [] -> ok := false)
          | exception Invalid_argument _ -> ok := false))
    (List.rev t.log);
  if !stamped <> [] then ok := false;
  Protocol.Verified { ok = !ok; checked = !checked }

(* Offline-stream mode: the streamed stamps are not bit-identical to any
   single oracle — the claim is order-equivalence. Rebuild the message
   trace from the arrival log, batch-timestamp it with the Figure 9
   pipeline, and require the same precedes/concurrent verdict on every
   message pair. *)
let verify_offline t =
  let module Offline = Synts_core.Offline in
  let steps =
    List.rev
      (List.filter_map
         (function
           | Ev (Ingest.Message { src; dst }) ->
               Some (Synts_sync.Trace.Send (src, dst))
           | Ev (Ingest.Internal _) | Delta _ -> None)
         t.log)
  in
  let streamed = Array.of_list (List.rev t.stamped) in
  let checked = ref 0 in
  let ok = ref (List.length steps = Array.length streamed) in
  if !ok && steps <> [] then begin
    let trace =
      Synts_sync.Trace.of_steps_exn ~n:(Ingest.processes t.sink) steps
    in
    let batch = Offline.timestamp_trace trace in
    let m = Array.length batch in
    for i = 0 to m - 1 do
      for j = i + 1 to m - 1 do
        incr checked;
        if
          Offline.precedes streamed.(i) streamed.(j)
          <> Offline.precedes batch.(i) batch.(j)
          || Offline.precedes streamed.(j) streamed.(i)
             <> Offline.precedes batch.(j) batch.(i)
        then ok := false
      done
    done
  end;
  Protocol.Verified { ok = !ok; checked = !checked }

let verify t =
  match t.backend with
  | Online _ -> verify_epochs t
  | Offline_stream _ -> verify_offline t

let error t e =
  Tm.Counter.incr m_errors;
  t.errors <- t.errors + 1;
  Protocol.Error_r e

(* The sequence state machine [handle] and the byte path share. A
   refused sequence consumes nothing, so a corrected retry may reuse
   it. *)
type admission = Fresh | Replay | Refused of string

let admit conn seq =
  if seq < 0 then Refused "negative sequence number"
  else if seq = conn.last_seq then Replay
  else if seq < conn.last_seq then
    Refused (Printf.sprintf "stale sequence %d (last was %d)" seq conn.last_seq)
  else if seq > conn.last_seq + 1 then
    Refused
      (Printf.sprintf "sequence gap: got %d, expected %d" seq
         (conn.last_seq + 1))
  else Fresh

(* At-least-once delivery: a dup or retransmission is answered from the
   cache, never stamped twice. *)
let count_replay t conn =
  Tm.Counter.incr m_dups;
  t.dedup <- t.dedup + 1;
  conn.dedup_hits <- conn.dedup_hits + 1

let timed t f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  Tm.Histogram.observe t.stamp_ms (1000. *. (Unix.gettimeofday () -. t0));
  x

let cached_response conn =
  match conn.cached with
  | Some r -> r
  | None when Wire.length conn.frame = 0 -> Protocol.Error_r "no cached reply"
  | None -> (
      match
        Result.bind (Wire.unframe (Wire.contents conn.frame))
          Protocol.decode_response
      with
      | Ok r ->
          conn.cached <- Some r;
          r
      | Error e -> Protocol.Error_r ("cached reply unreadable: " ^ e))

let handle t conn (req : Protocol.request) : Protocol.response =
  Tm.Counter.incr m_requests;
  let err = error t in
  match req with
  | Hello ->
      Welcome
        {
          processes = Ingest.processes t.sink;
          dimension = Ingest.dimension t.sink;
          epoch = epoch t;
        }
  | Observe { seq; events } -> (
      match admit conn seq with
      | Refused e -> err e
      | Replay ->
          count_replay t conn;
          cached_response conn
      | Fresh -> (
          match timed t (fun () -> Ingest.observe_batch t.sink events) with
          | outcomes ->
              accept t conn seq events ~stamp:(fun i ->
                  match outcomes.(i) with
                  | Ingest.Stamped v -> v
                  | Ingest.Deferred _ -> assert false);
              let resp = Protocol.Outcomes outcomes in
              conn.cached <- Some resp;
              Wire.reset conn.frame;
              resp
          | exception Invalid_argument e ->
              (* Validation rejected the batch before any state change. *)
              err e))
  | Drain -> Resolved (take_carry t @ Ingest.drain t.sink)
  | Finish -> Resolved (take_carry t @ Ingest.finish t.sink)
  | Churn spec -> (
      match Membership.delta_of_string spec with
      | Error e -> err (Printf.sprintf "bad churn delta %S: %s" spec e)
      | Ok delta -> (
          match apply_churn t delta with
          | Ok (epoch, processes, dimension) ->
              Epoch_r { epoch; processes; dimension }
          | Error e -> err e))
  | Verify ->
      if not t.check then
        err "verification disabled (start the server with --check)"
      else verify t
  | Stats ->
      Stats_r
        {
          clients = clients t;
          batches = t.batches;
          messages = t.messages;
          internal = t.internal;
          dropped = dropped t;
          pending = pending t;
        }
  | Shutdown -> Bye

(* [resp] framed into [w], which is returned. *)
let frame_into t w resp =
  Wire.reset t.body;
  Protocol.put_response t.body resp;
  Wire.reset w;
  Wire.put_frame w t.body;
  w

(* The cached reply as a frame; see [conn]. *)
let cached_frame t conn =
  if Wire.length conn.frame = 0 then
    ignore (frame_into t conn.frame (cached_response conn) : Wire.writer);
  conn.frame

(* A fresh Observe on the engine: sweep into slab rows, then code the
   reply from the rows into the connection's cache, with no vector per
   stamp. *)
let observe_rows t conn e seq events =
  match timed t (fun () -> Engine.sweep e events) with
  | () ->
      accept t conn seq events ~stamp:(Engine.batch_stamp e);
      Wire.reset t.body;
      Protocol.put_outcome_rows t.body ~rows:(Engine.rows e)
        ~dim:(Engine.dimension e) ~first:(Engine.processes e)
        ~tickets:(Engine.tickets e) ~count:(Array.length events);
      conn.cached <- None;
      Wire.reset conn.frame;
      Wire.put_frame conn.frame t.body;
      conn.frame
  | exception Invalid_argument e -> frame_into t t.reply (error t e)

(* The byte path: unframe, decode, answer, frame — the reply is left in
   a writer owned by the service or the connection, valid until the
   next request. A replayed Observe gets the cached frame and a fresh
   one on the engine takes the row path; everything else, refusals
   included, goes through [handle]. *)
let reply t conn raw =
  t.bye <- false;
  match Wire.unframe raw with
  | Error e ->
      Tm.Counter.incr m_bad_frames;
      frame_into t t.reply (error t ("bad frame: " ^ e))
  | Ok body -> (
      match Protocol.decode_request body with
      | Error e ->
          Tm.Counter.incr m_bad_requests;
          frame_into t t.reply (error t ("bad request: " ^ e))
      | Ok req -> (
          let bytes =
            match req with
            | Observe { seq; events } -> (
                match (admit conn seq, t.backend) with
                | Replay, _ ->
                    Tm.Counter.incr m_requests;
                    count_replay t conn;
                    Some (cached_frame t conn)
                | Fresh, Online e ->
                    Tm.Counter.incr m_requests;
                    Some (observe_rows t conn e seq events)
                | (Fresh | Refused _), _ -> None)
            | _ -> None
          in
          match bytes with
          | Some w -> w
          | None ->
              let resp = handle t conn req in
              t.bye <- (match resp with Protocol.Bye -> true | _ -> false);
              frame_into t t.reply resp))

let handle_raw t conn raw = Wire.contents (reply t conn raw)

let serve_frame t conn raw out =
  Frame.put out (reply t conn raw);
  t.bye
