(* The correctness gate: every result is re-checked independently of
   the solver that produced it, with the Tb_cert checkers.

   - FPTAS brackets: the dual certificate re-derived by Bellman-Ford
     from the outcome's [dual_lengths], bound ordering, and the
     certified gap within the requested tol.
   - Exact values: agreement with an FPTAS bracket of the same
     instance solved here (outside the request's timing), and the
     estimator's witness cut re-derived as an upper bound on the value.
   - Theorem 2 on every (topology, a2a, lm) pair of a grid pass.
   - Routing-restricted brackets: ordered, and not above the optimum. *)

module Graph = Tb_graph.Graph
module Commodity = Tb_flow.Commodity
module Fleischer = Tb_flow.Fleischer
module Solve = Tb_harness.Solve
module Cert = Tb_cert.Cert
module Estimator = Tb_cuts.Estimator
module Mcf = Tb_flow.Mcf

type verdict = (unit, string) result

let ( let* ) = Result.bind

let labelled name = function
  | Ok () -> Ok ()
  | Error msg -> Error (name ^ ": " ^ msg)

let expect_rung want (o : Solve.outcome) =
  if o.Solve.rung = want then Ok ()
  else
    Error
      (Printf.sprintf "degraded: rung %s, expected %s" (Solve.rung_name o.Solve.rung)
         (Solve.rung_name want))

let ordered (e : Mcf.estimate) =
  labelled "bounds_ordered"
    (Cert.bounds_ordered ~lower:e.Mcf.lower ~value:e.Mcf.value ~upper:e.Mcf.upper ())

(* An FPTAS outcome of the harness, requested at [tol]. *)
let fptas ~tol g cs (o : Solve.outcome) =
  let e = o.Solve.estimate in
  let* () = expect_rung Solve.Fptas o in
  let* () = ordered e in
  let* () =
    match o.Solve.dual_lengths with
    | None -> Error "fptas outcome without dual lengths"
    | Some lengths ->
      labelled "dual_bound_valid"
        (Cert.dual_bound_valid g cs ~lengths ~upper:e.Mcf.upper)
  in
  let gap = Solve.rel_gap e in
  if gap <= tol *. (1.0 +. 1e-9) then Ok ()
  else Error (Printf.sprintf "gap %.6g exceeds the requested tol %g" gap tol)

(* Tolerance of the independent FPTAS bracket an exact value must lie
   in. *)
let cross_tol = 0.05

(* An exact outcome, its sparse-cut estimate, and the independent FPTAS
   bracket of the same instance. *)
let exact g cs ~flows (o : Solve.outcome) (cut : Estimator.report) =
  let e = o.Solve.estimate in
  let v = e.Mcf.value in
  let* () = expect_rung Solve.Exact_lp o in
  let* () = ordered e in
  let* () =
    if e.Mcf.lower = e.Mcf.upper then Ok ()
    else Error (Printf.sprintf "exact rung returned a bracket [%g, %g]" e.Mcf.lower e.Mcf.upper)
  in
  let r = Fleischer.solve ~tol:cross_tol g cs in
  let* () =
    labelled "agreement"
      (Cert.agreement [ ("exact", v, v); ("fptas", r.Fleischer.lower, r.Fleischer.upper) ])
  in
  match cut.Estimator.best_cut with
  | None -> Error "estimator found no cut with crossing demand"
  | Some c ->
    let* () =
      labelled "cut_bound_valid"
        (Cert.cut_bound_valid g flows ~cut:c ~claimed:cut.Estimator.sparsity)
    in
    labelled "cut_above_exact"
      (Cert.bounds_ordered ~lower:v ~value:v ~upper:cut.Estimator.sparsity ())

let theorem2 ~a2a ~lm = labelled "theorem2" (Cert.theorem2 ~a2a ~lm ())

(* A k-shortest-path restricted bracket against the unrestricted
   optimum's bracket of the same instance. *)
let restricted ~(optimal : Mcf.estimate) (r : Topobench.Routing.result) =
  let open Topobench.Routing in
  let* () =
    labelled "ksp_ordered"
      (Cert.bounds_ordered ~lower:r.lower ~value:(value r) ~upper:r.upper ())
  in
  labelled "ksp_below_optimum"
    (Cert.bounds_ordered ~lower:r.lower ~value:r.lower ~upper:optimal.Mcf.upper ())
