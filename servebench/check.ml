(* Output checks.

   While the run is timed, each reply is reduced to one digest (plus, in
   offline mode, one hash per message stamp and the full stamps of a
   seeded sample of messages). After the run the request stream is
   replayed through the in-tree oracles and each reply's expected digest
   is compared with the one recorded:

   - message stamps must be bit-identical to an [Online.stamper] replay,
     or to an [Epoch_stamper] replay with the churn deltas at the same
     points;
   - every redeemed internal-event stamp must equal the Sec. 5
     [(prev, succ, counter)] derived from those message stamps, resolved
     in the daemon's order (a pending event is flushed with
     [succ = +inf] when a delta retires the engine);
   - every [Deferred] ticket is redeemed exactly once by the final
     [Finish];
   - offline stamps have no bit-exact oracle: on a seeded sample of
     message pairs they must order exactly as the Fig. 5 stamps do. *)

module Vector = Synts_clock.Vector
module Ingest = Synts_ingest.Ingest
module Protocol = Synts_server.Protocol
module Decomposition = Synts_graph.Decomposition
module Membership = Synts_graph.Membership
module Online = Synts_core.Online
module Offline = Synts_core.Offline
module Epoch_stamper = Synts_core.Epoch_stamper

let mix h x =
  let z = (h lxor x) * 0x2545F4914F6CDD1D in
  z lxor (z lsr 29)

(* [pad]: trailing zeros do not count, as offline stamps of different
   widths compare zero-padded. *)
let vec_hash ~pad (v : Vector.t) =
  let len = ref (Array.length v) in
  if pad then
    while !len > 0 && Array.unsafe_get v (!len - 1) = 0 do decr len done;
  let h = ref (mix 0x51ED27 !len) in
  for i = 0 to !len - 1 do h := mix !h (Array.unsafe_get v i) done;
  !h

let infinity_hash = 0x3A5

let entry acc ~ticket ~proc ~prev ~succ ~counter =
  mix (mix (mix (mix (mix acc ticket) proc) prev) succ) counter

(* Reply tags keep digests of different reply kinds apart. *)
let outcomes_tag = 1
let resolved_tag = 2
let epoch_tag = 3
let error_digest = -1

(* Offline sample: blocks of [block] consecutive messages, one in
   [1 lsl sample_bits] of them chosen by the seed. *)
let block = 32
let sample_bits = 5

type recorder = {
  pad : bool;
  sampled : int -> bool;
  mutable digests : int array;  (* one per reply, in send order *)
  mutable replies : int;
  mutable msg_hashes : int array;  (* offline: per message *)
  mutable messages : int;
  sample : (int, Vector.t * int) Hashtbl.t;  (* message -> served stamp, reply *)
  mutable deferred : int;
  mutable redeemed : int;
  mutable errors : int;
}

let recorder ~seed ~offline =
  {
    pad = offline;
    sampled = (fun m -> mix seed (m / block) land ((1 lsl sample_bits) - 1) = 0);
    digests = Array.make 4096 0;
    replies = 0;
    msg_hashes = (if offline then Array.make 4096 0 else [||]);
    messages = 0;
    sample = Hashtbl.create 64;
    deferred = 0;
    redeemed = 0;
    errors = 0;
  }

let push arr len x =
  let a =
    if len < Array.length arr then arr
    else begin
      let g = Array.make (2 * Array.length arr) 0 in
      Array.blit arr 0 g 0 len;
      g
    end
  in
  Array.unsafe_set a len x;
  a

let resolved_digest ~pad l =
  List.fold_left
    (fun acc (ticket, (s : Synts_core.Internal_events.stamp)) ->
      let succ = match s.succ with None -> infinity_hash | Some v -> vec_hash ~pad v in
      entry acc ~ticket ~proc:s.proc ~prev:(vec_hash ~pad s.prev) ~succ ~counter:s.counter)
    (mix resolved_tag (List.length l))
    l

(* Reduce the next reply (in send order) to its digest. *)
let record r (reply : Protocol.response) =
  let d =
    match reply with
    | Outcomes outs ->
        Array.fold_left
          (fun h -> function
            | Ingest.Stamped v ->
                if r.pad then begin
                  let m = r.messages in
                  r.msg_hashes <- push r.msg_hashes m (vec_hash ~pad:true v);
                  if r.sampled m then Hashtbl.replace r.sample m (v, r.replies);
                  r.messages <- m + 1;
                  mix h 1
                end
                else begin
                  r.messages <- r.messages + 1;
                  mix h (vec_hash ~pad:false v)
                end
            | Ingest.Deferred t ->
                r.deferred <- r.deferred + 1;
                mix (mix h 2) t)
          (mix outcomes_tag (Array.length outs))
          outs
    | Resolved l ->
        r.redeemed <- r.redeemed + List.length l;
        resolved_digest ~pad:r.pad l
    | Epoch_r { epoch; processes; dimension } ->
        mix (mix (mix epoch_tag epoch) processes) dimension
    | _ ->
        r.errors <- r.errors + 1;
        error_digest
  in
  r.digests <- push r.digests r.replies d;
  r.replies <- r.replies + 1

type report = {
  attempted : int;  (** Replies checked: the stream's requests plus [Finish]. *)
  failed : int;  (** Replies that were errors or did not verify. *)
  messages : int;
  internal : int;
  pairs : int;  (** Offline: sampled message pairs compared. *)
  detail : string list;  (** First few failures, for stderr. *)
}

type pstate = {
  mutable prev : int;  (* hash of the last message stamp, or of zero *)
  mutable counter : int;
  mutable pending : (int * int * int) list;  (* (ticket, prev, counter), newest first *)
}

let graph_of d =
  Synts_graph.Graph.of_edges
    (Decomposition.graph_vertices d)
    (List.concat_map Decomposition.edges_of_group (Decomposition.groups d))

(* Replay the first [r.replies - 1] requests of [stream] plus the final
   [Finish] and compare every digest. *)
let verify r (stream : Workload.stream) d =
  let pad = r.pad in
  let failed = Array.make r.replies false in
  let detail = ref [] in
  let fail k what =
    if not failed.(k) then begin
      failed.(k) <- true;
      if List.length !detail < 5 then
        detail := Printf.sprintf "reply %d: %s" k what :: !detail
    end
  in
  let epochs =
    if stream.workload.churn_every > 0 then
      Some (Epoch_stamper.create (Membership.create (graph_of d) d))
    else None
  in
  let online = Online.stamper d in
  let stamp ~src ~dst =
    match epochs with Some st -> Epoch_stamper.stamp st ~src ~dst | None -> online ~src ~dst
  in
  let zero_hash dim = if pad then vec_hash ~pad [||] else vec_hash ~pad (Array.make dim 0) in
  let dim = ref (max 1 (Decomposition.size d)) in
  let procs =
    Array.init stream.n (fun _ -> { prev = zero_hash !dim; counter = 0; pending = [] })
  in
  let queue = Queue.create () in
  let next_ticket = ref 0 in
  let msg = ref 0 in
  let oracle_sample = Hashtbl.create 64 in
  let resolve p h =
    let st = procs.(p) in
    List.iter
      (fun (ticket, prev, counter) -> Queue.push (ticket, p, prev, h, counter) queue)
      (List.rev st.pending);
    st.pending <- [];
    st.prev <- h;
    st.counter <- 0
  in
  (* Resolve every pending event with succ = +inf, in ticket order. *)
  let flush () =
    let all =
      Array.to_list procs
      |> List.mapi (fun p st -> List.map (fun (t, prev, c) -> (t, p, prev, c)) st.pending)
      |> List.concat |> List.sort compare
    in
    List.iter (fun (t, p, prev, c) -> Queue.push (t, p, prev, infinity_hash, c) queue) all
  in
  let take_queue () =
    let n = Queue.length queue in
    let h =
      Queue.fold
        (fun acc (ticket, proc, prev, succ, counter) ->
          entry acc ~ticket ~proc ~prev ~succ ~counter)
        (mix resolved_tag n) queue
    in
    Queue.clear queue;
    h
  in
  let expect k expected what =
    if r.digests.(k) = error_digest then fail k "error reply"
    else if r.digests.(k) <> expected then fail k what
  in
  let cur = Workload.cursor stream in
  for k = 0 to r.replies - 2 do
    match Workload.next cur with
    | None -> fail k "reply beyond the end of the stream"
    | Some (Observe i) ->
        let events = Workload.events stream i in
        let h =
          Array.fold_left
            (fun h ev ->
              match ev with
              | Ingest.Internal { proc } ->
                  let st = procs.(proc) in
                  let ticket = !next_ticket in
                  incr next_ticket;
                  st.pending <- (ticket, st.prev, st.counter) :: st.pending;
                  st.counter <- st.counter + 1;
                  mix (mix h 2) ticket
              | Ingest.Message { src; dst } -> (
                  let m = !msg in
                  incr msg;
                  match stamp ~src ~dst with
                  | exception Invalid_argument e ->
                      fail k e;
                      h
                  | v ->
                      let hv, h =
                        if pad then begin
                          if r.sampled m then Hashtbl.replace oracle_sample m v;
                          ((if m < r.messages then r.msg_hashes.(m) else 0), mix h 1)
                        end
                        else
                          let hv = vec_hash ~pad v in
                          (hv, mix h hv)
                      in
                      resolve src hv;
                      resolve dst hv;
                      h))
            (mix outcomes_tag (Array.length events))
            events
        in
        expect k h "message stamps or tickets differ from the oracle"
    | Some Drain -> expect k (take_queue ()) "drained internal stamps differ"
    | Some (Churn c) -> (
        match epochs with
        | None -> fail k "churn without an epoch oracle"
        | Some st -> (
            match Epoch_stamper.apply st stream.deltas.(c) with
            | Error e -> fail k ("oracle rejected the delta: " ^ e)
            | Ok _ ->
                let m = Epoch_stamper.membership st in
                dim := max 1 (Membership.width m);
                expect k
                  (mix (mix (mix epoch_tag (Membership.epoch m)) (Membership.processes m)) !dim)
                  "epoch reply differs";
                (* The daemon retires the engine: pending internal
                   events are flushed with succ = +inf and every
                   process's event stream starts afresh. *)
                flush ();
                Array.iter
                  (fun st ->
                    st.prev <- zero_hash !dim;
                    st.counter <- 0;
                    st.pending <- [])
                  procs))
  done;
  let last = r.replies - 1 in
  if last >= 0 then begin
    flush ();
    expect last (take_queue ()) "final Finish differs"
  end;
  if r.deferred <> !next_ticket || r.redeemed <> !next_ticket then
    detail :=
      Printf.sprintf "%d tickets issued by the oracle, %d deferred and %d redeemed by the daemon"
        !next_ticket r.deferred r.redeemed
      :: !detail;
  (* Offline: sampled pairs must order as the Fig. 5 stamps do. *)
  let pairs = ref 0 in
  if pad then begin
    let sampled = List.sort compare (Hashtbl.fold (fun m _ acc -> m :: acc) r.sample []) in
    let check a b =
      match (Hashtbl.find_opt r.sample a, Hashtbl.find_opt r.sample b,
             Hashtbl.find_opt oracle_sample a, Hashtbl.find_opt oracle_sample b) with
      | Some (sa, ka), Some (sb, _), Some fa, Some fb ->
          incr pairs;
          if Offline.precedes sa sb <> Online.precedes fa fb
             || Offline.precedes sb sa <> Online.precedes fb fa
          then fail ka (Printf.sprintf "messages %d and %d order differently" a b)
      | _ -> ()
    in
    let rec split blk acc = function
      | x :: rest when x / block = blk -> split blk (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let rec walk prev_first = function
      | [] -> ()
      | m :: _ as here ->
          let same, rest = split (m / block) [] here in
          List.iteri (fun i a -> List.iteri (fun j b -> if j > i then check a b) same) same;
          Option.iter (fun p -> List.iter (check p) same) prev_first;
          walk (Some m) rest
    in
    walk None sampled
  end;
  let failures = Array.fold_left (fun n f -> if f then n + 1 else n) 0 failed in
  let failures =
    if r.deferred <> !next_ticket || r.redeemed <> !next_ticket then max 1 failures
    else failures
  in
  { attempted = r.replies; failed = failures; messages = !msg; internal = !next_ticket;
    pairs = !pairs; detail = List.rev !detail }
