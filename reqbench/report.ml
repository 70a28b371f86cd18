(* Running a workload and reporting it.

   Closed loop, one client: each request is issued only after the
   previous one has completed and been checked. An untraced run makes
   one or three passes over a fixed number of whole rounds of the
   roster, about [seconds] of request time, and reports the end-to-end
   metrics over each request's fastest execution; a traced run
   alternates untraced and traced passes over the first round and
   reports the per-layer metrics, the per-layer self times and the
   tracing overhead.

   Request time is process CPU time. On the shared machines this
   benchmark runs on, other tenants deschedule a run for up to a fifth
   of its wall time, which moved wall-clock medians 15-35% from run to
   run; CPU time is what the request costs on a core of its own. The
   end-to-end times are also scaled by how much slower than nominal
   the machine ran meanwhile (see [Calib]). Wall times are reported
   alongside, and the traced run's spans are wall time. *)

module Json = Tb_obs.Json
module Trace = Tb_obs.Trace
module Clock = Tb_obs.Clock
module Warm = Tb_harness.Warm
module Solve = Tb_harness.Solve
module Mcf = Tb_flow.Mcf

type config = {
  workload : Roster.workload;
  seed : int;
  seconds : float;
  trace : bool;
  domains : int;
  chrome_trace : string option;
}

type metric = { name : string; unit : string; value : float }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  record : (string * Json.t) list;  (** reproducibility record and extras *)
  table : string list;  (** human-readable lines *)
}

(* ---- Statistics. ---- *)

(* Linear-interpolation quantile of a non-empty sample. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  let h = float_of_int (n - 1) *. q in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (Array.length xs))
let ratio a b = if b > 0.0 then a /. b else 0.0

(* ---- Passes. ---- *)

type sample = { req : Roster.req; exec : Exec.t; verdict : (unit, string) result }

let gap_of s =
  match s.exec.Exec.answer with
  | Error _ -> None
  | Ok a -> (
    let e = a.Exec.outcome.Solve.estimate in
    match a.Exec.cut with
    (* exact-cuts: how far the sparse-cut bound sits above the exact
       value (the paper's Sec II-C gap); an exact bracket has none. *)
    | Some c -> Some ((c.Tb_cuts.Estimator.sparsity -. e.Mcf.value) /. e.Mcf.value)
    | None -> Some (Solve.rel_gap e))

(* One pass over the roster. The warm cache is fresh at the start of
   every round, so a sweep's cells chain only to their neighbours of
   the same round; [cold] solves every cell without it. Theorem 2 is checked as soon as both the a2a
   and the lm bracket of a grid topology are in. *)
let pass ?(on_request = ignore) ?(cold = false) ~acc ~traced
    (roster : Roster.t) on_sample =
  let fresh () = if cold then None else Some (Warm.create ()) in
  let warm = ref (fresh ()) in
  let brackets = Hashtbl.create 16 in
  let i = ref 0 in
  while !i < Array.length roster.Roster.reqs do
    let r = roster.Roster.reqs.(!i) in
    if !i mod roster.Roster.round = 0 then begin
      warm := fresh ();
      Hashtbl.reset brackets
    end;
    incr i;
    let ctx = { Layers.acc; traced; req = r.Roster.id } in
    let exec = Exec.run ctx ~warm:!warm r in
    on_request ();
    let verdict =
      match exec.Exec.answer with
      | Error msg -> Error msg
      | Ok a -> (
        let t0 = Clock.now_ns () in
        (* The gate is not part of the request: keep its own solves out
           of the trace. *)
        if traced then Trace.disable ();
        let v = Exec.check r a in
        if traced then Trace.enable ();
        let v =
          match (v, a.Exec.tm_name) with
          | Ok (), ("a2a" | "lm") -> (
            let e = a.Exec.outcome.Solve.estimate in
            Hashtbl.replace brackets (a.Exec.topo_key, a.Exec.tm_name)
              (e.Mcf.lower, e.Mcf.upper);
            match
              ( Hashtbl.find_opt brackets (a.Exec.topo_key, "a2a"),
                Hashtbl.find_opt brackets (a.Exec.topo_key, "lm") )
            with
            | Some a2a, Some lm when r.Roster.kind = Roster.Fptas -> Gate.theorem2 ~a2a ~lm
            | _ -> Ok ())
          | v, _ -> v
        in
        Layers.add acc "check.busy_ms" (Layers.ms_since t0);
        v)
    in
    on_sample { req = r; exec; verdict }
  done

(* ---- Set-up. ---- *)

let setup_rounds = 7

(* How much slower than [Calib.nominal_ms] a set of reference times
   says the machine ran. *)
let slowdown kernels = median kernels /. Calib.nominal_ms

(* Roster generation, its canonical hash and one warm-up request,
   [setup_rounds] times, each after a reference computation; the median
   round, scaled by the machine's slowdown, is the set-up time. *)
let setup cfg =
  let roster = ref None and warm_fail = ref None in
  let kernels = Array.make setup_rounds 0.0 in
  let times =
    Array.init setup_rounds (fun i ->
        kernels.(i) <- Calib.run ();
        let c0 = Layers.cpu_ms () in
        let r = Roster.make cfg.workload cfg.seed in
        let h = Roster.hash r in
        let w = Roster.warmup cfg.workload in
        let e =
          Exec.run { Layers.acc = Layers.create (); traced = false; req = -1 }
            ~warm:(Some (Warm.create ())) w
        in
        let s = (Layers.cpu_ms () -. c0) /. 1000.0 in
        (match e.Exec.answer with
        | Error m -> warm_fail := Some m
        | Ok a -> (
          match Exec.check w a with Ok () -> () | Error m -> warm_fail := Some m));
        roster := Some (r, h);
        s)
  in
  match !roster with
  | Some (r, h) -> (r, h, (median times /. slowdown kernels, median times), !warm_fail)
  | None -> assert false

(* ---- Reproducibility record. ---- *)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        Some (String.trim (really_input_string ic (in_channel_length ic))))

(* The commit of a git checkout in the working directory, read from
   .git without running git; "unknown" outside a git checkout. *)
let git_commit () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
    let prefix = "ref: " in
    let lp = String.length prefix in
    if String.length head > lp && String.sub head 0 lp = prefix then begin
      let ref_name = String.sub head lp (String.length head - lp) in
      match read_file (".git/" ^ ref_name) with
      | Some c -> c
      | None -> (
        match read_file ".git/packed-refs" with
        | None -> "unknown"
        | Some packed ->
          List.fold_left
            (fun acc line ->
              match String.split_on_char ' ' line with
              | [ c; r ] when r = ref_name -> c
              | _ -> acc)
            "unknown"
            (String.split_on_char '\n' packed))
    end
    else head

let record cfg (roster : Roster.t) hash =
  [
    ("workload", Json.String (Roster.name cfg.workload));
    ("seed", Json.Int cfg.seed);
    ("roster_hash", Json.String hash);
    ("roster_size", Json.Int (Array.length roster.Roster.reqs));
    ("nproc", Json.Int (Domain.recommended_domain_count ()));
    ("domains", Json.Int cfg.domains);
    ("ocaml", Json.String Sys.ocaml_version);
    ("commit", Json.String (git_commit ()));
    ("seconds", Json.Float cfg.seconds);
    ("trace", Json.Bool cfg.trace);
  ]

(* ---- Untraced run: the end-to-end metrics. ---- *)

let failures samples =
  List.filter_map
    (fun s ->
      match s.verdict with
      | Ok () -> None
      | Error m -> Some (Printf.sprintf "%s: %s" (Roster.describe s.req) m))
    samples

(* The timed loop makes [repeats] passes over the same whole rounds.
   Whole rounds keep the mix of request kinds the same in every run: a
   run cut mid-round measured a different random subset of that round
   each time. The number of rounds is a fixed amount of work, set from
   [seconds] and [round_s], and does not depend on how fast the machine
   runs: a run that stopped at a time limit measured two rounds a pass
   on a slow machine and three on a fast one, and the third round's
   requests moved grid-fptas's peak memory from 37 to 50 MB.

   A request's latency is the fastest of its executions. The program is
   deterministic, so they do the same work; what differs is the
   machine. On the shared host this was built on, other tenants slowed
   every request by 1.3-1.8x for stretches of a few seconds to minutes,
   and three passes, a third of a run apart, rarely all fall in one
   such stretch; stretches longer than a run are left to the scaling by
   [Calib]. Repeats cost distinct requests, so they are used where
   a third of a run still holds several rounds of requests whose costs
   stay within a few-fold: on scale-sparse a round is three requests of
   about a second, and failure-sweep's rare hard cells (3.6 s where the
   median cell takes 25 ms) need every round a run can hold to average
   out. *)
let repeats = function
  | Roster.Exact_cuts | Roster.Grid_fptas -> 3
  | Roster.Scale_sparse | Roster.Failure_sweep -> 1

(* Request CPU time of one round, in seconds, on the 2-core machine this
   benchmark was built on while other tenants slowed it (its usual
   state); in its quiet stretches a round took 55-75% of this. *)
let round_s = function
  | Roster.Grid_fptas -> 3.0
  | Roster.Scale_sparse -> 3.1
  | Roster.Exact_cuts -> 1.2
  | Roster.Failure_sweep -> 1.7

(* Rounds per pass, so that all passes together take about [seconds]
   of request time at [round_s]. *)
let timed_rounds cfg =
  let per_pass = cfg.seconds /. float_of_int (repeats cfg.workload) in
  max 1 (Float.to_int (Float.round (per_pass /. round_s cfg.workload)))

let end_to_end cfg roster (setup_s, setup_raw_s) =
  let repeats = repeats cfg.workload in
  let acc = Layers.create () in
  let samples = ref [] and busy_s = ref 0.0 in
  (* A roster that runs out starts over. *)
  let rounds =
    List.init (timed_rounds cfg) (fun k ->
        Roster.round_range roster ~from:(k mod Roster.round_count roster) ~count:1)
  in
  let n = List.fold_left (fun a r -> a + Array.length r.Roster.reqs) 0 rounds in
  let raw = Array.make_matrix repeats n 0.0 and pass_s = Array.make repeats 0.0 in
  let factor =
    Array.init repeats (fun p ->
        let i = ref 0 and b0 = !busy_s in
        let kernels =
          List.map
            (fun r ->
              let k = Calib.run () in
              pass ~acc ~traced:false r (fun s ->
                  busy_s := !busy_s +. (s.exec.Exec.cpu_ms /. 1000.0);
                  samples := s :: !samples;
                  raw.(p).(!i) <- s.exec.Exec.cpu_ms;
                  incr i);
              k)
            rounds
        in
        pass_s.(p) <- !busy_s -. b0;
        slowdown (Array.of_list kernels))
  in
  (* Fastest execution of each request, scaled by its pass's slowdown,
     and as measured. *)
  let fastest f =
    Array.init n (fun i ->
        Array.fold_left Float.min infinity (Array.init repeats (fun p -> f p i)))
  in
  let lat = fastest (fun p i -> raw.(p).(i) /. factor.(p)) in
  let lat_raw = fastest (fun p i -> raw.(p).(i)) in
  let samples = List.rev !samples in
  let attempted = List.length samples in
  let best_s = Array.fold_left ( +. ) 0.0 lat /. 1000.0 in
  let wall = Array.of_list (List.map (fun s -> s.exec.Exec.latency_ms) samples) in
  let wall_s = Array.fold_left ( +. ) 0.0 wall /. 1000.0 in
  let alloc = Array.of_list (List.map (fun s -> s.exec.Exec.alloc_bytes) samples) in
  (* Every execution of a request has the same bracket. *)
  let gaps = Array.of_list (List.filter_map gap_of (List.filteri (fun i _ -> i < n) samples)) in
  let fails = failures samples in
  let failed = List.length fails in
  let per_request name = Layers.get acc name /. float_of_int attempted in
  let metrics =
    [
      { name = "setup_s"; unit = "s"; value = setup_s };
      { name = "requests_per_s"; unit = "1/s"; value = float_of_int n /. best_s };
      { name = "latency_p50_ms"; unit = "ms"; value = quantile lat 0.5 };
      { name = "latency_p90_ms"; unit = "ms"; value = quantile lat 0.9 };
      { name = "gap_mean"; unit = "ratio"; value = mean gaps };
      {
        name = "success_frac";
        unit = "ratio";
        value = float_of_int (attempted - failed) /. float_of_int attempted;
      };
      { name = "alloc_mb_per_request"; unit = "MB"; value = mean alloc /. 1048576.0 };
      { name = "peak_rss_mb"; unit = "MB"; value = Layers.peak_rss_mb () };
    ]
  in
  let beyond_p90 = n - int_of_float (Float.ceil (0.9 *. float_of_int n)) in
  let table =
    [
      Printf.sprintf
        "samples: %d requests in %d rounds x %d passes over %.2f s of request CPU time (%d \
         beyond p90%s)"
        n (List.length rounds) repeats !busy_s beyond_p90
        (if beyond_p90 < 10 then "; p90 rests on fewer than 10" else "");
      Printf.sprintf "passes: %s s of request CPU time; machine slowdown %s"
        (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.2f") pass_s)))
        (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.3f") factor)));
      Printf.sprintf
        "as measured, unscaled: p50 %.2f ms, p90 %.2f ms, %.3f requests/s, set-up %.4f s"
        (quantile lat_raw 0.5) (quantile lat_raw 0.9)
        (float_of_int n /. (Array.fold_left ( +. ) 0.0 lat_raw /. 1000.0))
        setup_raw_s;
      (* Work that does not depend on the machine, to tell a slow
         machine from a heavier mix of requests. *)
      Printf.sprintf "work per request: %.0f Fleischer phases, %.0f SSSP runs, %.0f simplex pivots"
        (per_request "fleischer.phases") (per_request "dijkstra.runs")
        (per_request "simplex.pivots");
      Printf.sprintf "wall clock, every pass: %.2f s; p50 %.1f ms, p90 %.1f ms, %.3f requests/s"
        wall_s (quantile wall 0.5) (quantile wall 0.9)
        (float_of_int attempted /. wall_s);
      Printf.sprintf "failed_frac: %.4f (%d of %d)"
        (float_of_int failed /. float_of_int attempted)
        failed attempted;
    ]
    @ List.map (fun m -> "FAILED " ^ m) fails
  in
  ( attempted,
    failed,
    metrics,
    [
      ("samples", Json.Int n);
      ("rounds", Json.Int (List.length rounds));
      ("passes", Json.Int repeats);
      ("request_cpu_s", Json.Float !busy_s);
      ("pass_cpu_s", Json.List (Array.to_list (Array.map (fun x -> Json.Float x) pass_s)));
      ("slowdown", Json.List (Array.to_list (Array.map (fun x -> Json.Float x) factor)));
      ("unscaled_p50_ms", Json.Float (quantile lat_raw 0.5));
      ("unscaled_p90_ms", Json.Float (quantile lat_raw 0.9));
      ("unscaled_setup_s", Json.Float setup_raw_s);
      ("request_wall_s", Json.Float wall_s);
      ("wall_p50_ms", Json.Float (quantile wall 0.5));
      ("wall_p90_ms", Json.Float (quantile wall 0.9));
      ("failed_frac", Json.Float (float_of_int failed /. float_of_int attempted));
      ("failures", Json.List (List.map (fun m -> Json.String m) fails));
      ( "work_per_request",
        Json.Obj
          (List.map
             (fun k -> (k, Json.Float (per_request k)))
             [ "fleischer.phases"; "dijkstra.runs"; "simplex.pivots" ]) );
    ],
    table )

(* ---- Traced run: per-layer metrics, self times, tracing overhead. ---- *)

(* Span names whose self time is reported as a per-layer metric: the
   benchmark's own layer spans and the program's existing solver spans. *)
let self_layers =
  [
    "request";
    "catalog";
    "tm";
    "solve";
    "warm";
    "routing";
    "cuts";
    "fleischer.solve";
    "simplex.solve";
    "restricted.solve";
  ]

(* Stated slack between the sum of the per-layer self times and the
   request latency measured outside the spans. *)
let slack_pct = 1.0

let per_layer cfg roster =
  (* Per-layer sums are over one round: a fixed, seeded set of
     requests, so counts are reproducible. *)
  let roster = Roster.first_round roster in
  let acc = Layers.create () and discard = Layers.create () in
  let selfs = Layers.create () in
  let attributed = ref 0.0 and dropped = ref 0 and spans = ref 0 in
  let events = ref [] in
  let samples = ref [] in
  let untraced_ms = ref 0.0 and traced_ms = ref 0.0 and busy_s = ref 0.0 in
  let first_traced_ms = ref 0.0 in
  let pairs = ref 0 in
  Trace.set_capacity (1 lsl 20);
  let collect () =
    (* After each traced request: fold its spans into the self-time
       table (first traced pass only) and empty the ring. *)
    if !pairs = 0 then begin
      let json = Trace.to_json () in
      let ss = Layers.spans_of_trace json in
      spans := !spans + List.length ss;
      let rows, _ = Layers.self_times ss in
      List.iter
        (fun (name, ms) ->
          Layers.add selfs name ms;
          attributed := !attributed +. ms)
        rows;
      if cfg.chrome_trace <> None then
        events :=
          List.rev_append
            (Option.value ~default:[]
               (Option.bind (Json.member "traceEvents" json) Json.to_list))
            !events
    end;
    dropped := !dropped + Trace.dropped ();
    Trace.clear ()
  in
  let untraced = Layers.create () in
  while !pairs = 0 || !busy_s < cfg.seconds do
    let u = ref 0.0 and t = ref 0.0 in
    pass ~acc:(if !pairs = 0 then untraced else discard) ~traced:false roster
      (fun s ->
        u := !u +. s.exec.Exec.cpu_ms;
        samples := s :: !samples);
    Trace.clear ();
    Trace.enable ();
    let wall = ref 0.0 in
    pass ~on_request:collect ~acc:(if !pairs = 0 then acc else discard) ~traced:true roster
      (fun s ->
        t := !t +. s.exec.Exec.cpu_ms;
        wall := !wall +. s.exec.Exec.latency_ms;
        samples := s :: !samples);
    Trace.disable ();
    Trace.clear ();
    if !pairs = 0 then first_traced_ms := !wall;
    untraced_ms := !untraced_ms +. !u;
    traced_ms := !traced_ms +. !t;
    busy_s := !busy_s +. ((!u +. !t) /. 1000.0);
    incr pairs
  done;
  (* scale-sparse: the round once at one domain, the plain sequential
     baseline, and once at nproc domains, where delta-stepping fans its
     chunks out; wall time, since parallel work is the point. *)
  let domain_pass d =
    Unix.putenv "TOPOBENCH_DOMAINS" (string_of_int d);
    let ms = ref 0.0 in
    pass ~acc:discard ~traced:false roster (fun s ->
        ms := !ms +. s.exec.Exec.latency_ms;
        samples := s :: !samples);
    Unix.putenv "TOPOBENCH_DOMAINS" (string_of_int cfg.domains);
    !ms
  in
  let seq_ms, par_ms =
    if cfg.workload = Roster.Scale_sparse then
      let seq = domain_pass 1 in
      (seq, domain_pass (Domain.recommended_domain_count ()))
    else (0.0, 0.0)
  in
  (* failure-sweep: the same round once more with every cell solved
     cold, against the warm-started untraced pass. *)
  let cold = Layers.create () in
  if cfg.workload = Roster.Failure_sweep then
    pass ~cold:true ~acc:cold ~traced:false roster (fun s ->
        samples := s :: !samples);
  (match cfg.chrome_trace with
  | Some path ->
    Json.write path (Json.Obj [ ("traceEvents", Json.List (List.rev !events)) ])
  | None -> ());
  let samples = List.rev !samples in
  let fails = failures samples in
  let g = Layers.get acc in
  let phases = g "fleischer.phases" and runs = g "dijkstra.runs" in
  let pivots = g "simplex.pivots" in
  let unattributed = 100.0 *. (1.0 -. ratio !attributed !first_traced_ms) in
  let overhead = 100.0 *. (ratio !traced_ms !untraced_ms -. 1.0) in
  let c name unit value = { name; unit; value } in
  let sweep = if cfg.workload = Roster.Failure_sweep then 1.0 else 0.0 in
  let metrics =
    [
      c "request.count" "count" (float_of_int (Array.length roster.Roster.reqs));
      c "request.busy_ms" "ms" !first_traced_ms;
      c "catalog.busy_ms" "ms" (g "catalog.busy_ms");
      c "tm.busy_ms" "ms" (g "tm.busy_ms");
      c "tm.lm_ms" "ms" (g "tm.lm_ms");
      c "tm.kodialam_ms" "ms" (g "tm.kodialam_ms");
      c "solve.busy_ms" "ms" (g "solve.busy_ms");
      c "solve.fptas_ms" "ms" (g "solve.fptas_ms");
      c "solve.exact_ms" "ms" (g "solve.exact_ms");
      c "solve.alloc_mb" "MB" (g "solve.alloc_mb");
      c "harness.retries" "count" (g "harness.retries");
      c "harness.degradations" "count" (g "harness.degradations");
      c "fleischer.phases" "count" phases;
      c "fleischer.solve_ms" "ms" (g "fleischer.solve_ms");
      c "fleischer.ms_per_phase" "ms" (ratio (g "fleischer.solve_ms") phases);
      c "sssp.runs" "count" runs;
      c "sssp.runs_per_phase" "ratio" (ratio runs phases);
      c "sssp.us_per_run" "us" (1000.0 *. ratio (g "fleischer.solve_ms") runs);
      c "simplex.pivots" "count" pivots;
      c "simplex.solve_ms" "ms" (g "simplex.solve_ms");
      c "simplex.us_per_pivot" "us" (1000.0 *. ratio (g "simplex.solve_ms") pivots);
      c "cuts.busy_ms" "ms" (g "cuts.busy_ms");
      c "warm.busy_ms" "ms" (g "warm.busy_ms");
      c "warm.accept_ratio" "ratio"
        (ratio (g "harness.warm_hits") (g "harness.warm_attempts"));
      c "warm.rejects" "count" (g "harness.warm_rejects");
      c "routing.busy_ms" "ms" (g "routing.busy_ms");
      c "restricted.phases" "count" (g "restricted.phases");
      c "restricted.solve_ms" "ms" (g "restricted.solve_ms");
      c "check.busy_ms" "ms" (g "check.busy_ms");
      c "trace.overhead_pct" "%" overhead;
      c "trace.unattributed_pct" "%" unattributed;
      c "trace.dropped" "count" (float_of_int !dropped);
      c "trace.spans" "count" (float_of_int !spans);
      c "sweep.warm_phases" "count" (Layers.get untraced "fleischer.phases" *. sweep);
      c "sweep.cold_phases" "count" (Layers.get cold "fleischer.phases");
      c "sweep.warm_solve_ms" "ms" (Layers.get untraced "solve.busy_ms" *. sweep);
      c "sweep.cold_solve_ms" "ms" (Layers.get cold "solve.busy_ms");
      c "seq.pass_ms" "ms" seq_ms;
      c "par.pass_ms" "ms" par_ms;
    ]
    @ List.map (fun l -> c ("self." ^ l ^ "_ms") "ms" (Layers.get selfs l)) self_layers
  in
  let self_rows =
    Hashtbl.fold (fun k v l -> (k, v) :: l) selfs []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let table =
    [
      Printf.sprintf "traced pass: %d requests, %.1f ms of request wall time"
        (Array.length roster.Roster.reqs) !first_traced_ms;
      Printf.sprintf "%-24s %12s %7s" "layer (self time)" "ms" "share";
    ]
    @ List.map
        (fun (k, v) ->
          Printf.sprintf "%-24s %12.2f %6.2f%%" k v (100.0 *. ratio v !first_traced_ms))
        self_rows
    @ [
        Printf.sprintf "%-24s %12.2f %6.2f%%  (stated slack %.1f%%: %s)" "sum of self times"
          !attributed (100.0 *. ratio !attributed !first_traced_ms) slack_pct
          (if Float.abs unattributed <= slack_pct then "within" else "EXCEEDED");
        Printf.sprintf "tracing overhead: %+.2f%% of request CPU time over %d untraced/traced pass pairs"
          overhead !pairs;
      ]
    @ List.map (fun m -> "FAILED " ^ m) fails
  in
  ( List.length samples,
    List.length fails,
    metrics,
    [
      ("pass_pairs", Json.Int !pairs);
      ("slack_pct", Json.Float slack_pct);
      ( "self_times_ms",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) self_rows) );
      ("failures", Json.List (List.map (fun m -> Json.String m) fails));
    ],
    table )

(* ---- Whole run. ---- *)

(* The program's own default (TOPOBENCH_DOMAINS, else one core fewer
   than the machine has), capped at nproc. *)
let default_domains () =
  min (Domain.recommended_domain_count ()) (Tb_prelude.Parallel.domain_count ())

let run cfg =
  Unix.putenv "TOPOBENCH_DOMAINS" (string_of_int cfg.domains);
  let roster, hash, setup_s, warm_fail = setup cfg in
  let n, failed, metrics, extra, table =
    if cfg.trace then per_layer cfg roster else end_to_end cfg roster setup_s
  in
  let warm_failed = Option.is_some warm_fail in
  {
    correct = failed = 0 && not warm_failed;
    attempted = n;
    failed;
    metrics;
    record = record cfg roster hash @ extra;
    table =
      (match warm_fail with Some m -> [ "FAILED warm-up: " ^ m ] | None -> []) @ table;
  }

let metrics_json ms =
  Json.Obj
    (List.map
       (fun m -> (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit) ]))
       ms)

let result_line t =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool t.correct);
         ("attempted", Json.Int t.attempted);
         ("failed", Json.Int t.failed);
         ("metrics", metrics_json t.metrics);
       ])

let full_json t =
  Json.Obj
    ([ ("schema", Json.String "reqbench-v1") ]
    @ t.record
    @ [
        ("correct", Json.Bool t.correct);
        ("attempted", Json.Int t.attempted);
        ("failed", Json.Int t.failed);
        ("metrics", metrics_json t.metrics);
      ])
