module Admin = Synts_obs.Admin

type t = { fd : Unix.file_descr; mutable closed : bool }

let connect address = { fd = Server.connect address; closed = false }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let roundtrip t req =
  Frame.call t.fd ~encode:Admin.encode_request ~decode:Admin.decode_response
    req

let unexpected what resp =
  Format.kasprintf failwith "unexpected %s reply: %a" what Admin.pp_response
    resp

let health t =
  match roundtrip t Admin.Health with
  | Admin.Health_r { ok; backend; processes; dimension } ->
      (ok, backend, processes, dimension)
  | Admin.Error_r e -> failwith e
  | other -> unexpected "health" other

let metrics t fmt =
  match roundtrip t (Admin.Metrics fmt) with
  | Admin.Metrics_r body -> body
  | Admin.Error_r e -> failwith e
  | other -> unexpected "metrics" other

let stats t =
  match roundtrip t Admin.Stats with
  | Admin.Stats_r st -> st
  | Admin.Error_r e -> failwith e
  | other -> unexpected "stats" other

let tracedump t =
  match roundtrip t Admin.Tracedump with
  | Admin.Tracedump_r { dropped; spans; jsonl } -> (dropped, spans, jsonl)
  | Admin.Error_r e -> failwith e
  | other -> unexpected "tracedump" other
