(* Request-level benchmark command line.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--out FILE] [--chrome-trace FILE]

   Prints a human-readable report, then, as the last line of standard
   output, one JSON object with the keys correct, attempted, failed and
   metrics. Writes files only where --out / --chrome-trace say. Runs
   with the program's default domain count (TOPOBENCH_DOMAINS, else one
   fewer than nproc), at most nproc. Exits 0 when every result passed
   the correctness gate, 1 when any failed, 2 on a usage error. *)

let usage =
  Printf.sprintf
    "usage: main.exe --workload {%s} [--seed N] [--seconds S] [--trace 0|1]\n\
    \                [--out FILE] [--chrome-trace FILE]"
    (String.concat "|" (List.map Reqbench.Roster.name Reqbench.Roster.all))

let default_seed = 1

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("reqbench: " ^ msg);
      prerr_endline usage;
      exit 2)
    fmt

let () =
  let workload = ref None and seed = ref default_seed and seconds = ref 25.0 in
  let trace = ref false and out = ref None and chrome = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> (
      match Reqbench.Roster.of_name v with
      | Some w ->
        workload := Some w;
        parse rest
      | None -> die "unknown workload %S" v)
    | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some n ->
        seed := n;
        parse rest
      | None -> die "--seed expects an integer, got %S" v)
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s > 0.0 && Float.is_finite s ->
        seconds := s;
        parse rest
      | _ -> die "--seconds expects a positive number, got %S" v)
    | "--trace" :: v :: rest -> (
      match v with
      | "0" ->
        trace := false;
        parse rest
      | "1" ->
        trace := true;
        parse rest
      | _ -> die "--trace expects 0 or 1, got %S" v)
    | "--out" :: v :: rest ->
      out := Some v;
      parse rest
    | "--chrome-trace" :: v :: rest ->
      chrome := Some v;
      parse rest
    | ("-h" | "--help") :: _ ->
      print_endline usage;
      exit 0
    | [ ("--workload" | "--seed" | "--seconds" | "--trace" | "--out" | "--chrome-trace") as flag ]
      ->
      die "%s expects a value" flag
    | arg :: _ -> die "unknown argument %S" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workload = match !workload with Some w -> w | None -> die "--workload is required" in
  let cfg =
    {
      Reqbench.Report.workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace;
      domains = Reqbench.Report.default_domains ();
      chrome_trace = !chrome;
    }
  in
  let t = Reqbench.Report.run cfg in
  List.iter
    (fun (k, v) ->
      match v with
      | Tb_obs.Json.List _ | Tb_obs.Json.Obj _ -> ()
      | v -> Printf.printf "%-14s %s\n" k (Tb_obs.Json.to_string v))
    t.Reqbench.Report.record;
  List.iter print_endline t.Reqbench.Report.table;
  List.iter
    (fun m ->
      Printf.printf "%-26s %14.4f %s\n" m.Reqbench.Report.name m.Reqbench.Report.value
        m.Reqbench.Report.unit)
    t.Reqbench.Report.metrics;
  (match !out with
  | Some path -> Tb_obs.Json.write path (Reqbench.Report.full_json t)
  | None -> ());
  print_endline (Reqbench.Report.result_line t);
  exit (if t.Reqbench.Report.correct then 0 else 1)
