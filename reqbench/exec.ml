(* One certified-throughput request, end to end: topology build, TM
   generation, harness solve (plus the warm cache, k-shortest-path
   routing or the sparse-cut estimate, by workload), timed from outside
   through the public entry points only. The correctness gate runs
   after the clock stops. *)

module Catalog = Tb_topo.Catalog
module Failures = Tb_topo.Failures
module Topology = Tb_topo.Topology
module Request = Tb_service.Request
module Solve = Tb_harness.Solve
module Warm = Tb_harness.Warm
module Routing = Topobench.Routing
module Estimator = Tb_cuts.Estimator
module Tm = Tb_tm.Tm
module Rng = Tb_prelude.Rng
module Clock = Tb_obs.Clock

(* What a request returns, with the inputs the gate needs. *)
type answer = {
  topo_key : string;  (** canonical spec of the intact instance *)
  tm_name : string;
  graph : Tb_graph.Graph.t;
  cs : Tb_flow.Commodity.t array;
  flows : (int * int * float) array;
  outcome : Solve.outcome;
  cut : Estimator.report option;  (** exact-cuts *)
  ksp : Routing.result option;  (** failure-sweep *)
}

type t = {
  latency_ms : float;  (** wall time of the request *)
  cpu_ms : float;  (** process CPU time the request consumed *)
  alloc_bytes : float;
  answer : (answer, string) result;
}

let fptas_policy (r : Roster.req) =
  {
    Solve.default_policy with
    Solve.rungs = [ Solve.Fptas ];
    retries = 0;
    tol = r.Roster.tol;
  }

let exact_policy =
  {
    Solve.default_policy with
    Solve.rungs = [ Solve.Exact_lp ];
    exact_threshold = Tb_flow.Exact.max_lp_variables;
  }

(* The program's work for one request. [warm] is the sweep's warm
   cache, fresh at the start of every round; [None] solves every cell
   cold (the comparison the traced run records). *)
let work (ctx : Layers.ctx) ~warm (r : Roster.req) =
  let call ?also layer f = Layers.call ?also ctx layer f in
  let topo_key = Catalog.spec_to_string r.Roster.spec in
  (* A sweep's neighbouring cells share the intact topology and the TM. *)
  let warm_key = topo_key ^ "|" ^ Roster.tm_name r in
  let topo = call "catalog" (fun () -> Catalog.build_spec r.Roster.spec) in
  let topo =
    match r.Roster.kind with
    | Roster.Sweep { rate; fail_seed; _ } when rate > 0.0 -> (
      match
        call "catalog" (fun () ->
            Failures.fail_links_connected ~rng:(Rng.make fail_seed) ~rate topo)
      with
      | Some t -> t
      | None -> failwith "no connected failure pattern")
    | _ -> topo
  in
  let tm =
    match r.Roster.tm with
    | Roster.Sparse flows -> call "tm" (fun () -> Tm.make ~label:"sparse" flows)
    | Roster.Named name -> (
      let also =
        match name with
        | "lm" -> [ "tm.lm_ms" ]
        | "kodialam" -> [ "tm.kodialam_ms" ]
        | _ -> []
      in
      match
        call ~also "tm" (fun () ->
            Request.build_named_tm ~seed:r.Roster.tm_seed topo name)
      with
      | Some tm -> tm
      | None -> failwith ("unknown TM " ^ name))
  in
  let g = topo.Topology.graph in
  let cs = Tm.commodities tm in
  let solve ?warm_lengths policy =
    (* The allocation counters are exact only right after a minor
       collection; forcing one costs time, so the solve layer's share is
       measured in traced passes only. *)
    let alloc_now () =
      if ctx.Layers.traced then begin
        Gc.minor ();
        Gc.allocated_bytes ()
      end
      else 0.0
    in
    let a0 = alloc_now () in
    let busy0 = Layers.get ctx.Layers.acc "solve.busy_ms" in
    let o = call "solve" (fun () -> Solve.solve ~policy ?warm_lengths g cs) in
    let ms = Layers.get ctx.Layers.acc "solve.busy_ms" -. busy0 in
    Layers.add ctx.Layers.acc "solve.alloc_mb" ((alloc_now () -. a0) /. 1048576.0);
    (* The policies leave out the cut-bound rung. *)
    Layers.add ctx.Layers.acc
      (if o.Solve.rung = Solve.Exact_lp then "solve.exact_ms" else "solve.fptas_ms")
      ms;
    o
  in
  let outcome, cut, ksp =
    match r.Roster.kind with
    | Roster.Fptas -> (solve (fptas_policy r), None, None)
    | Roster.Exact_cut ->
      let o = solve exact_policy in
      let cut = call "cuts" (fun () -> Estimator.run_tm g tm) in
      (o, Some cut, None)
    | Roster.Sweep { k; _ } ->
      let warm_lengths =
        match warm with
        | None -> None
        | Some cache ->
          call "warm" (fun () ->
              Option.bind (Warm.find cache warm_key) (fun e -> Warm.lengths_for e g))
      in
      let o = solve ?warm_lengths (fptas_policy r) in
      (match (warm, o.Solve.dual_lengths) with
      | Some cache, Some lengths ->
        call "warm" (fun () -> Warm.store cache warm_key (Warm.entry_of_lengths g lengths))
      | _ -> ());
      let ksp =
        call "routing" (fun () ->
            Routing.ksp_throughput ~eps:Roster.fptas_eps ~tol:r.Roster.tol topo tm ~k)
      in
      (o, None, Some ksp)
  in
  {
    topo_key;
    tm_name = Roster.tm_name r;
    graph = g;
    cs;
    flows = Tm.flows tm;
    outcome;
    cut;
    ksp;
  }

let run (ctx : Layers.ctx) ~warm r =
  let before = Layers.snapshot () in
  (* Gc.allocated_bytes is exact only right after a minor collection
     (the major-heap counters lag until one), so bracket the request
     with two, outside its timing. *)
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  let c0 = Layers.cpu_ms () in
  let t0 = Clock.now_ns () in
  let answer =
    let go () = Ok (work ctx ~warm r) in
    let go () =
      if ctx.Layers.traced then
        Tb_obs.Trace.span ~args:[ ("req", Tb_obs.Json.Int ctx.Layers.req) ] "request" go
      else go ()
    in
    match go () with
    | a -> a
    | exception (Out_of_memory | Stack_overflow as e) -> raise e
    | exception e -> Error (Printexc.to_string e)
  in
  let latency_ms = Layers.ms_since t0 in
  let cpu_ms = Layers.cpu_ms () -. c0 in
  Gc.minor ();
  let alloc_bytes = Gc.allocated_bytes () -. a0 in
  Layers.add_delta ctx.Layers.acc ~before ~after:(Layers.snapshot ());
  { latency_ms; cpu_ms; alloc_bytes; answer }

(* The gate for one answer. Theorem 2 pairs span requests and are
   checked by the caller. *)
let check (r : Roster.req) a =
  match r.Roster.kind with
  | Roster.Fptas -> Gate.fptas ~tol:r.Roster.tol a.graph a.cs a.outcome
  | Roster.Sweep _ -> (
    match Gate.fptas ~tol:r.Roster.tol a.graph a.cs a.outcome with
    | Error _ as e -> e
    | Ok () -> (
      match a.ksp with
      | Some k -> Gate.restricted ~optimal:a.outcome.Solve.estimate k
      | None -> Error "sweep cell without a routing result"))
  | Roster.Exact_cut -> (
    match a.cut with
    | Some cut -> Gate.exact a.graph a.cs ~flows:a.flows a.outcome cut
    | None -> Error "exact request without a cut estimate")
