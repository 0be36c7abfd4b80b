(* servebench: one run of the serve-path benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --synts EXE

   prints a summary, then one JSON line with the checks' verdict and the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
   Exits 1 when a reply fails its check, 2 on a usage or run error. *)

let usage =
  "main.exe --workload rpc-cs|bulk-gnp|offline-cs --seed N --seconds S --trace 0|1 \
   --synts EXE [--dir DIR] [--corrupt-after K]"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let exe = ref "" and dir = ref ".servebench" and corrupt = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of rpc-cs, bulk-gnp, offline-cs");
      ("--seed", Arg.Set_int seed, "N seed of the topology and the request stream");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced run's per-layer metrics");
      ("--synts", Arg.Set_string exe, "EXE the synts executable to serve with");
      ("--dir", Arg.Set_string dir, "DIR directory for sockets and span files");
      ("--corrupt-after", Arg.Set_int corrupt,
       "K alter one stamp of the first stamped reply from reply K on (the checks must fail)");
    ]
  in
  let die msg =
    prerr_endline ("servebench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> die ("unexpected argument " ^ a)) usage
   with Arg.Bad m | Arg.Help m -> die m);
  let w =
    match Servebench.Workload.find !workload with
    | Some w -> w
    | None -> die (Printf.sprintf "unknown workload %S" !workload)
  in
  if !seed < 0 then die "--seed must be a non-negative integer";
  if !seconds < 1 then die "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !exe = "" || not (Sys.file_exists !exe) then die "--synts must name the synts executable";
  let cfg =
    { Servebench.Bench.workload = w; seed = !seed; seconds = float !seconds; trace = !trace = 1;
      exe = !exe; dir = !dir; corrupt_after = (if !corrupt >= 0 then Some !corrupt else None) }
  in
  match Servebench.Bench.run cfg with
  | r ->
      List.iter (fun n -> print_endline ("# " ^ n)) r.notes;
      print_endline (Servebench.Bench.to_json r);
      if not r.correct then begin
        prerr_endline "servebench: replies failed their checks";
        exit 1
      end
  | exception e ->
      prerr_endline ("servebench: run failed: " ^ Printexc.to_string e);
      exit 2
