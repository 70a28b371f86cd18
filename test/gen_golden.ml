(* Regenerates the golden regression vectors: the exact throughput of
   every catalog family at its smallest size, under a deterministic TM
   (all-to-all when the endpoint set is small, longest-matching
   otherwise), solved by column generation (exact at optimum), plus the
   best sparse-cut estimate and the k = 1 / k = 4 shortest-path
   restricted brackets of the same instance.

   Update procedure (only when a solver or topology change legitimately
   moves a value — the diff in test/golden.json is the review artifact):

     dune exec test/gen_golden.exe > test/golden.json *)

module Graph = Tb_graph.Graph
module Catalog = Tb_topo.Catalog
module Topology = Tb_topo.Topology
module Synthetic = Tb_tm.Synthetic
module Tm = Tb_tm.Tm
module Colgen = Tb_flow.Colgen
module Estimator = Tb_cuts.Estimator
module Json = Tb_obs.Json

(* Shared with test_check.ml via golden.json only: the test re-derives
   the same instance from the family list, so this choice of TM must
   stay a pure function of the topology. *)
let golden_tm topo =
  if Array.length (Topology.endpoint_nodes topo) <= 10 then
    ("a2a", Synthetic.all_to_all topo)
  else ("lm", Synthetic.longest_matching topo)

let entry family =
  let topo = List.hd (Catalog.small family) in
  let tm_name, tm = golden_tm topo in
  let r = Colgen.solve topo.Topology.graph (Tm.commodities tm) in
  Json.Obj
    [
      ("family", Json.String (Catalog.family_name family));
      ("label", Json.String (Topology.label topo));
      ("tm", Json.String tm_name);
      ("nodes", Json.Int (Graph.num_nodes topo.Topology.graph));
      ("flows", Json.Int (Tm.num_flows tm));
      ("throughput", Json.Float r.Colgen.value);
    ]

(* The sparse-cut vectors: the best sparsity the Estimator suite finds on
   the same instance and TM. Asserted bit-identically by test_check.ml,
   so a change in the summation order of the cut capacity or Laplacian
   edge loops shows up here. *)
let cut_entry family =
  let topo = List.hd (Catalog.small family) in
  let _, tm = golden_tm topo in
  let r = Estimator.run_tm topo.Topology.graph tm in
  Json.Obj
    [
      ("family", Json.String (Catalog.family_name family));
      ("sparsity", Json.Float r.Estimator.sparsity);
    ]

(* The failures-sweep vectors: per-cell outcomes of the deterministic
   seed-42 mini-sweep (see Tb_experiments.Failure_sweep.golden), solved
   cold and warm-started. Asserted bit-identically by test_check.ml, so
   a change to either solve path — or a warm result silently diverging
   from its committed bracket — shows up as a reviewable diff here. *)
let failures ~warm =
  Json.Obj
    (List.map
       (fun (key, j) -> (key, j))
       (Tb_experiments.Failure_sweep.golden ~warm ()))

(* The routing vectors: the k-shortest-path restricted bracket
   (Routing.ksp_throughput, default eps and tol) of the same instance and
   TM at k = 1 and k = 4. Asserted bit for bit by test_check.ml, so any
   change to the path-pool solve's trajectory shows up here. *)
let routing_entry family =
  let topo = List.hd (Catalog.small family) in
  let _, tm = golden_tm topo in
  let bracket k =
    let r = Topobench.Routing.ksp_throughput topo tm ~k in
    [
      (Printf.sprintf "k%d_lower" k, Json.Float r.Topobench.Routing.lower);
      (Printf.sprintf "k%d_upper" k, Json.Float r.Topobench.Routing.upper);
    ]
  in
  Json.Obj
    ((("family", Json.String (Catalog.family_name family)) :: bracket 1)
    @ bracket 4)

let () =
  print_endline
    (Json.to_string ~indent:true
       (Json.Obj
          [
            ( "comment",
              Json.String
                "Golden exact-throughput vectors; regenerate with: dune \
                 exec test/gen_golden.exe > test/golden.json" );
            ("entries", Json.List (List.map entry Catalog.all_families));
            ("failures_cold", failures ~warm:false);
            ("failures_warm", failures ~warm:true);
            ("cuts", Json.List (List.map cut_entry Catalog.all_families));
            ( "routing",
              Json.List (List.map routing_entry Catalog.all_families) );
          ]))
