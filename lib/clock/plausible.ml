module Trace = Synts_sync.Trace
module Message_poset = Synts_sync.Message_poset
module Poset = Synts_poset.Poset

let timestamp_trace_with ~classes trace =
  let n = Trace.n trace in
  if Array.length classes <> n then
    invalid_arg "Plausible: need one class per process";
  let r = 1 + Array.fold_left max 0 classes in
  if Array.exists (fun c -> c < 0) classes then
    invalid_arg "Plausible: negative class";
  let swept =
    Sync_clock.sweep ~who:"Plausible" ~dim:r trace (fun clocks ~src ~dst ->
        Sync_clock.stamp clocks ~src ~dst ~a:classes.(src) ~b:classes.(dst))
  in
  Sync_clock.vectors swept trace

let timestamp_trace ~r trace =
  if r < 1 then invalid_arg "Plausible.timestamp_trace: r must be >= 1";
  timestamp_trace_with
    ~classes:(Array.init (Trace.n trace) (fun p -> p mod r))
    trace

let error_rate_of trace vectors =
  let p = Message_poset.of_trace trace in
  let k = Poset.size p in
  let concurrent = ref 0 and falsely_ordered = ref 0 in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      if Poset.concurrent p i j then begin
        incr concurrent;
        if not (Vector.concurrent vectors.(i) vectors.(j)) then
          incr falsely_ordered
      end
    done
  done;
  if !concurrent = 0 then 0.0
  else float_of_int !falsely_ordered /. float_of_int !concurrent

let ordering_error_rate ~r trace = error_rate_of trace (timestamp_trace ~r trace)

let ordering_error_rate_with ~classes trace =
  error_rate_of trace (timestamp_trace_with ~classes trace)
