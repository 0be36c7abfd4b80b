module Vector = Synts_clock.Vector

type ticket = int

(* No vector is held. An internal event's [prev] is its process's clock
   when it was announced, and that clock cannot change before the next
   message of the process resolves the event, so the caller hands it
   over then. [seen] records whether the process has taken part in a
   message since the stream was created; until it has, [prev] is zero.
   [counter] counts the process's internal events since its last
   message; [finish] leaves it, so the events announced after a flush
   keep counting. *)
type proc_state = {
  mutable seen : bool;
  mutable counter : int;
  mutable pending : ticket list;  (* newest first *)
}

type t = {
  dimension : int;
  procs : proc_state array;
  mutable next_ticket : int;
  mutable pending_total : int;
}

let create ~dimension ~n =
  if n < 1 then invalid_arg "Event_stream.create: need n >= 1";
  if dimension < 1 then invalid_arg "Event_stream.create: need dimension >= 1";
  {
    dimension;
    procs = Array.init n (fun _ -> { seen = false; counter = 0; pending = [] });
    next_ticket = 0;
    pending_total = 0;
  }

let proc_state t proc =
  if proc < 0 || proc >= Array.length t.procs then
    invalid_arg "Event_stream: process out of range";
  t.procs.(proc)

let record_internal t ~proc =
  let st = proc_state t proc in
  let ticket = t.next_ticket in
  t.next_ticket <- ticket + 1;
  st.pending <- ticket :: st.pending;
  st.counter <- st.counter + 1;
  t.pending_total <- t.pending_total + 1;
  ticket

let waiting t ~proc = (proc_state t proc).pending <> []

let pad v dim =
  if Vector.size v >= dim then v
  else begin
    let w = Vector.zero dim in
    Array.blit v 0 w 0 (Vector.size v);
    w
  end

(* Every pending event of [proc], oldest first, with the shared [prev]. *)
let resolve t proc st ~prev ~succ =
  let waiting = List.length st.pending in
  let base = st.counter - waiting in
  let out =
    List.mapi
      (fun i ticket ->
        (ticket, { Internal_events.proc; prev; succ; counter = base + i }))
      (List.rev st.pending)
  in
  t.pending_total <- t.pending_total - waiting;
  st.pending <- [];
  out

let record_message t ~proc ~prev timestamp =
  let st = proc_state t proc in
  if Vector.size timestamp < t.dimension then
    invalid_arg "Event_stream.record_message: vector narrower than created dimension";
  let resolved =
    if st.pending = [] then []
    else
      (* With an adaptive stamper vectors grow over time; an older
         [prev] is zero-padded to the successor's width so each stamp is
         internally consistent. *)
      let dim = Vector.size timestamp in
      let prev = if st.seen then pad prev dim else Vector.zero dim in
      resolve t proc st ~prev ~succ:(Some timestamp)
  in
  st.seen <- true;
  st.counter <- 0;
  resolved

let pass_message t ~proc =
  let st = proc_state t proc in
  if st.pending <> [] then
    invalid_arg "Event_stream.pass_message: internal events are waiting";
  st.seen <- true;
  st.counter <- 0

let finish t ~prev =
  let out = ref [] in
  Array.iteri
    (fun proc st ->
      if st.pending <> [] then
        let prev = if st.seen then prev proc else Vector.zero t.dimension in
        out := List.rev_append (resolve t proc st ~prev ~succ:None) !out)
    t.procs;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !out

let pending t = t.pending_total
