(* Tests of the request-level benchmark itself: the correctness gate
   catches corrupted results, and two runs of one roster at one seed and
   one domain count do identical deterministic work. *)

open Reqbench
module Solve = Tb_harness.Solve
module Mcf = Tb_flow.Mcf

let failures = ref 0

let check name cond =
  if cond then Printf.printf "ok   %s\n%!" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let is_error = function Error _ -> true | Ok () -> false

let spec s =
  match Tb_topo.Catalog.spec_of_string s with Ok sp -> sp | Error e -> failwith e

let req ?(kind = Roster.Fptas) ?(tol = 0.05) id s tm =
  {
    Roster.id;
    spec = spec s;
    tm = Roster.Named tm;
    tm_seed = 3;
    kind;
    tol;
  }

let sweep rate = Roster.Sweep { rate; fail_seed = 11; k = 3 }

(* A small roster touching every layer: FPTAS grid cells, exact cells
   with their cut estimate, and a two-cell warm failure sweep with
   k-shortest-path routing. *)
let small_roster =
  let reqs =
    [|
      req 0 "hypercube:4" "a2a";
      req 1 "hypercube:4" "lm";
      req 2 "bcube:3" "kodialam" ~kind:Roster.Exact_cut ~tol:0.0;
      req 3 "hypercube:3" "rm1" ~kind:Roster.Exact_cut ~tol:0.0;
      req 4 "hypercube:4" "rm1" ~kind:(sweep 0.0) ~tol:0.1;
      req 5 "hypercube:4" "rm1" ~kind:(sweep 0.1) ~tol:0.1;
    |]
  in
  { Roster.workload = Roster.Grid_fptas; seed = 0; round = Array.length reqs; reqs }

let run_answer r =
  let ctx = { Layers.acc = Layers.create (); traced = false; req = r.Roster.id } in
  match (Exec.run ctx ~warm:(Some (Tb_harness.Warm.create ())) r).Exec.answer with
  | Ok a -> a
  | Error e -> failwith e

let with_estimate (a : Exec.answer) f =
  let o = a.Exec.outcome in
  { a with Exec.outcome = { o with Solve.estimate = f o.Solve.estimate } }

let test_gate () =
  let r = req 0 "hypercube:4" "a2a" in
  let a = run_answer r in
  check "gate accepts a genuine FPTAS bracket" (Exec.check r a = Ok ());
  let e = a.Exec.outcome.Solve.estimate in
  (* An upper bound below what the dual certificate proves. *)
  let low_upper =
    with_estimate a (fun e ->
        let u = e.Mcf.lower *. 1.001 in
        { e with Mcf.upper = u; value = 0.5 *. (e.Mcf.lower +. u) })
  in
  check "gate catches an upper bound the dual does not certify"
    (is_error (Exec.check r low_upper));
  check "gate catches an inverted bracket"
    (is_error
       (Exec.check r
          (with_estimate a (fun _ ->
               { Mcf.lower = e.Mcf.upper; upper = e.Mcf.lower; value = e.Mcf.value }))));
  check "gate catches a gap wider than the requested tol"
    (is_error
       (Exec.check r
          (with_estimate a (fun e ->
               let u = e.Mcf.upper *. 1.5 in
               { e with Mcf.upper = u; value = 0.5 *. (e.Mcf.lower +. u) }))));
  let x = req 2 "bcube:3" "lm" ~kind:Roster.Exact_cut ~tol:0.0 in
  let xa = run_answer x in
  check "gate accepts a genuine exact value" (Exec.check x xa = Ok ());
  check "gate catches a corrupted exact value"
    (is_error
       (Exec.check x
          (with_estimate xa (fun e ->
               let v = e.Mcf.value *. 1.3 in
               { Mcf.value = v; lower = v; upper = v }))));
  check "gate catches a Theorem 2 violation"
    (is_error (Gate.theorem2 ~a2a:(1.0, 1.1) ~lm:(0.3, 0.4)))

(* Counts of one pass over [small_roster]. *)
let counted_pass () =
  let acc = Layers.create () in
  let alloc = ref 0.0 and failed = ref 0 in
  Report.pass ~acc ~traced:false small_roster (fun s ->
      alloc := !alloc +. s.Report.exec.Exec.alloc_bytes;
      if s.Report.verdict <> Ok () then incr failed);
  let g = Layers.get acc in
  ( [
      ("sssp.runs", g "dijkstra.runs");
      ("fleischer.phases", g "fleischer.phases");
      ("simplex.pivots", g "simplex.pivots");
      ("restricted.phases", g "restricted.phases");
      ("alloc_bytes", !alloc);
    ],
    !failed )

let test_determinism () =
  Unix.putenv "TOPOBENCH_DOMAINS" "1";
  (* First pass warms lazily built state; the next two must agree. *)
  ignore (counted_pass ());
  let a, fa = counted_pass () in
  let b, fb = counted_pass () in
  check "small roster passes the gate" (fa = 0 && fb = 0);
  List.iter2
    (fun (name, x) (_, y) ->
      check (Printf.sprintf "%s identical across runs (%.0f vs %.0f)" name x y) (x = y);
      if name <> "alloc_bytes" && name <> "restricted.phases" then
        check (name ^ " nonzero") (x > 0.0))
    a b;
  check "restricted.phases nonzero" (List.assoc "restricted.phases" a > 0.0)

let test_roster () =
  List.iter
    (fun w ->
      let a = Roster.make w 1 and b = Roster.make w 1 and c = Roster.make w 2 in
      check (Roster.name w ^ " roster is a function of the seed") (Roster.hash a = Roster.hash b);
      check (Roster.name w ^ " roster changes with the seed") (Roster.hash a <> Roster.hash c);
      (* The timed passes run whole rounds, clipped to the roster. *)
      let len r = Array.length r.Roster.reqs and k = Roster.round_count a in
      check (Roster.name w ^ " round ranges are whole rounds")
        (len (Roster.round_range a ~from:1 ~count:2) = 2 * a.Roster.round
        && len (Roster.round_range a ~from:(k - 1) ~count:5) = a.Roster.round
        && len (Roster.round_range a ~from:1 ~count:0) = 0
        && (Roster.round_range a ~from:1 ~count:1).Roster.reqs.(0) == a.Roster.reqs.(a.Roster.round)))
    Roster.all

let test_self_times () =
  let sp name ts dur = { Layers.name; ts; dur } in
  let rows, total =
    Layers.self_times
      [ sp "request" 0.0 10_000.0; sp "solve" 1_000.0 6_000.0; sp "fleischer.solve" 2_000.0 4_000.0;
        sp "tm" 7_500.0 1_000.0 ]
  in
  let get n = List.assoc n rows in
  check "self times partition the root span"
    (Float.abs (List.fold_left (fun s (_, v) -> s +. v) 0.0 rows -. total) < 1e-9);
  check "self time subtracts direct children only"
    (get "request" = 3.0 && get "solve" = 2.0 && get "fleischer.solve" = 4.0 && get "tm" = 1.0)

let () =
  test_roster ();
  test_self_times ();
  test_gate ();
  test_determinism ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
