module Graph = Tb_graph.Graph
module Topology = Tb_topo.Topology
module Synthetic = Tb_tm.Synthetic
module Tm = Tb_tm.Tm
module Mcf = Tb_flow.Mcf
module Solve = Tb_harness.Solve
module Rng = Tb_prelude.Rng
module Stats = Tb_prelude.Stats

let jelly seed n deg =
  Tb_topo.Jellyfish.make ~rng:(Rng.make seed) ~n ~degree:deg
    ~hosts_per_switch:2 ()

(* ---- Throughput ---- *)

let test_throughput_ring_matching () =
  let g = Graph.of_unit_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let topo = Topology.switch_centric ~name:"ring" ~params:"" ~hosts_per_switch:1 g in
  let tm = Tm.make ~label:"cross" [| (0, 2, 1.0); (1, 3, 1.0) |] in
  let est = (Solve.throughput topo tm).Solve.estimate in
  Alcotest.(check (float 1e-6)) "ring cross" 1.0 est.Mcf.value

let test_throughput_capacity_monotone () =
  (* Doubling capacities doubles throughput. *)
  let topo = jelly 3 12 4 in
  let tm = Synthetic.longest_matching topo in
  let t1 = (Solve.throughput topo tm).Solve.estimate.Mcf.value in
  let g2 = Graph.with_uniform_capacity topo.Topology.graph 2.0 in
  let t2 = (Solve.solve g2 (Tm.commodities tm)).Solve.estimate.Mcf.value in
  Alcotest.(check bool) "doubled" true
    (abs_float ((t2 /. t1) -. 2.0) < 0.15)

let test_throughput_deterministic () =
  let topo = jelly 4 12 4 in
  let tm = Synthetic.longest_matching topo in
  let a = (Solve.throughput topo tm).Solve.estimate.Mcf.value in
  let b = (Solve.throughput topo tm).Solve.estimate.Mcf.value in
  Alcotest.(check (float 1e-12)) "same result" a b

(* ---- Theorem 2 lower bound ---- *)

let theorem2_check topo seed =
  let a2a =
    (Solve.throughput topo (Synthetic.all_to_all topo)).Solve.estimate
  in
  let lb = a2a.Mcf.upper /. 2.0 in
  let tms =
    [
      Synthetic.random_matching ~k:1 (Rng.make seed) topo;
      Synthetic.longest_matching topo;
    ]
  in
  List.iter
    (fun tm ->
      let t = (Solve.throughput topo tm).Solve.estimate in
      Alcotest.(check bool)
        (Printf.sprintf "%s >= A2A/2 on %s" (Tm.label tm) (Topology.label topo))
        true
        (* Allow the FPTAS bracket slack on both sides. *)
        (t.Mcf.upper >= lb *. 0.97))
    tms

let test_theorem2_families () =
  theorem2_check (Tb_topo.Hypercube.make ~hosts_per_switch:2 ~dim:4 ()) 1;
  theorem2_check (Tb_topo.Fattree.make ~k:4 ()) 2;
  theorem2_check (jelly 5 16 4) 3;
  theorem2_check (Tb_topo.Bcube.make ~n:3 ~k:1 ()) 4;
  theorem2_check (Tb_topo.Dcell.make ~n:3 ~k:1 ()) 5

let test_lower_bound_compute () =
  let topo = Tb_topo.Hypercube.make ~dim:3 () in
  let lb = Topobench.Lower_bound.compute topo in
  let a2a =
    (Solve.throughput topo (Synthetic.all_to_all topo)).Solve.estimate
  in
  Alcotest.(check (float 1e-9)) "half of A2A" (a2a.Mcf.value /. 2.0)
    lb.Mcf.value

(* The paper's hypercube observation: LM attains the bound exactly. *)
let test_hypercube_lm_attains_bound () =
  let topo = Tb_topo.Hypercube.make ~dim:5 () in
  let tp tm = (Solve.throughput topo tm).Solve.estimate.Mcf.value in
  let a2a = tp (Synthetic.all_to_all topo) in
  let lm = tp (Synthetic.longest_matching topo) in
  Alcotest.(check bool) "LM ~ A2A/2" true
    (abs_float (lm /. (a2a /. 2.0) -. 1.0) < 0.06)

(* And the fat tree observation: LM is as easy as A2A. A2A excludes
   self-flows, so its per-endpoint volume is (n_e - 1)/n_e of LM's; the
   comparison corrects for that factor. *)
let test_fattree_lm_equals_a2a () =
  let topo = Tb_topo.Fattree.make ~k:4 () in
  let ne = float_of_int (Array.length (Topology.endpoint_nodes topo)) in
  let tp tm = (Solve.throughput topo tm).Solve.estimate.Mcf.value in
  let a2a = tp (Synthetic.all_to_all topo) in
  let lm = tp (Synthetic.longest_matching topo) in
  Alcotest.(check bool) "LM ~ A2A (volume-corrected)" true
    (lm >= a2a *. ((ne -. 1.0) /. ne) *. 0.93)

(* ---- Relative throughput ---- *)

let test_relative_jellyfish_near_one () =
  let topo = jelly 6 20 5 in
  let r =
    Topobench.Relative.compute_gen ~iterations:3 ~rng:(Rng.make 7) topo
      (fun _ t -> Synthetic.longest_matching t)
  in
  Alcotest.(check bool) "random vs random ~ 1" true
    (abs_float (r.Topobench.Relative.relative.Stats.mean -. 1.0) < 0.15)

let test_relative_structure () =
  let topo = Tb_topo.Hypercube.make ~hosts_per_switch:2 ~dim:4 () in
  let r =
    Topobench.Relative.compute_gen ~iterations:2 ~rng:(Rng.make 8) topo
      (fun _ t -> Synthetic.longest_matching t)
  in
  Alcotest.(check int) "iterations recorded" 2
    r.Topobench.Relative.relative.Stats.n;
  Alcotest.(check bool) "positive" true
    (r.Topobench.Relative.relative.Stats.mean > 0.0)

(* ---- LLSKR ---- *)

let test_diverse_paths_distinct () =
  let topo = Tb_topo.Fattree.make ~k:4 () in
  let g = topo.Topology.graph in
  let endpoints = Topology.endpoint_nodes topo in
  let u = endpoints.(0) and v = endpoints.(Array.length endpoints - 1) in
  let paths = Topobench.Llskr.diverse_paths g ~src:u ~dst:v ~k:4 in
  Alcotest.(check int) "four paths" 4 (Array.length paths);
  let firsts =
    Array.to_list (Array.map (fun p -> List.hd p) paths)
  in
  (* In a k=4 fat tree the 4 diverse paths leave on distinct uplinks
     (2 aggs x 2 cores behind each). *)
  Alcotest.(check bool) "distinct paths" true
    (List.length (List.sort_uniq compare (Array.to_list paths)) = 4);
  ignore firsts

let test_diverse_paths_valid () =
  let topo = jelly 9 16 4 in
  let g = topo.Topology.graph in
  let paths = Topobench.Llskr.diverse_paths g ~src:0 ~dst:10 ~k:3 in
  Array.iter
    (fun arcs ->
      let rec walk v = function
        | [] -> Alcotest.(check int) "ends at dst" 10 v
        | a :: rest ->
          Alcotest.(check int) "contiguous" v (Graph.arc_src g a);
          walk (Graph.arc_dst g a) rest
      in
      walk 0 arcs)
    paths

let test_llskr_lp_dominates_counting_shape () =
  (* Both estimates must be positive and finite on a small fat tree. *)
  let topo = Tb_topo.Fattree.make ~k:4 () in
  let c = Topobench.Llskr.counting_estimate topo ~k_paths:2 in
  let l = Topobench.Llskr.lp_estimate ~tol:0.05 topo ~k_paths:2 in
  Alcotest.(check bool) "positive counting" true (c > 0.0 && c < 10.0);
  Alcotest.(check bool) "positive lp" true (l > 0.0 && l < 10.0)

let () =
  Alcotest.run "core"
    [
      ( "throughput",
        [
          Alcotest.test_case "ring matching" `Quick test_throughput_ring_matching;
          Alcotest.test_case "capacity monotone" `Quick
            test_throughput_capacity_monotone;
          Alcotest.test_case "deterministic" `Quick test_throughput_deterministic;
        ] );
      ( "theorem2",
        [
          Alcotest.test_case "families" `Slow test_theorem2_families;
          Alcotest.test_case "compute" `Quick test_lower_bound_compute;
          Alcotest.test_case "hypercube LM attains" `Quick
            test_hypercube_lm_attains_bound;
          Alcotest.test_case "fattree LM = A2A" `Quick test_fattree_lm_equals_a2a;
        ] );
      ( "relative",
        [
          Alcotest.test_case "jellyfish ~ 1" `Slow test_relative_jellyfish_near_one;
          Alcotest.test_case "structure" `Quick test_relative_structure;
        ] );
      ( "llskr",
        [
          Alcotest.test_case "diverse distinct" `Quick test_diverse_paths_distinct;
          Alcotest.test_case "paths valid" `Quick test_diverse_paths_valid;
          Alcotest.test_case "estimates sane" `Slow
            test_llskr_lp_dominates_counting_shape;
        ] );
    ]
