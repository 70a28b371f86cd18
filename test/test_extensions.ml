module Graph = Tb_graph.Graph
module Rng = Tb_prelude.Rng
module Commodity = Tb_flow.Commodity
module Exact = Tb_flow.Exact
module Colgen = Tb_flow.Colgen
module Fleischer = Tb_flow.Fleischer
module Synthetic = Tb_tm.Synthetic
module Topology = Tb_topo.Topology
module Solve = Tb_harness.Solve

(* Tests for the extension modules: column-generation exact solver,
   Valiant load balancing (constructive Theorem 2), routing-restricted
   throughput, and the Xpander topology. *)

let jelly seed n deg =
  Tb_topo.Jellyfish.make ~rng:(Rng.make seed) ~n ~degree:deg
    ~hosts_per_switch:1 ()

(* ---- Column generation ---- *)

let random_instance seed =
  let rng = Rng.make seed in
  let n = 5 + Rng.int rng 5 in
  let g =
    Tb_graph.Equipment.random_regular rng ~n
      ~degree:(if n mod 2 = 0 then 3 else 4)
  in
  let k = 1 + Rng.int rng 3 in
  let cs =
    Array.init k (fun _ ->
        let s = Rng.int rng n in
        let d = (s + 1 + Rng.int rng (n - 1)) mod n in
        Commodity.make ~src:s ~dst:d ~demand:(0.5 +. Rng.float rng 2.0))
  in
  (g, cs)

let prop_colgen_matches_exact =
  QCheck.Test.make ~name:"column generation = edge LP optimum" ~count:30
    QCheck.small_int (fun seed ->
      let g, cs = random_instance seed in
      let e, _ = Exact.solve g cs in
      let c = Colgen.solve g cs in
      abs_float (e -. c.Colgen.value) < 1e-5)

let prop_colgen_paths_feasible =
  QCheck.Test.make ~name:"column generation flow is feasible" ~count:30
    QCheck.small_int (fun seed ->
      let g, cs = random_instance seed in
      let c = Colgen.solve g cs in
      let load = Array.make (Graph.num_arcs g) 0.0 in
      Array.iter
        (List.iter (fun (p, f) ->
             List.iter (fun a -> load.(a) <- load.(a) +. f) p))
        c.Colgen.paths;
      Array.for_all2
        (fun l a -> l <= a +. 1e-6)
        load
        (Array.init (Graph.num_arcs g) (fun a -> Graph.arc_cap g a))
      (* Each commodity must receive value * demand. *)
      && Array.for_all2
           (fun paths cm ->
             let got = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 paths in
             got >= (c.Colgen.value *. cm.Commodity.demand) -. 1e-6)
           c.Colgen.paths (Commodity.normalize cs))

let test_colgen_midsize_bracket () =
  (* Beyond Exact's budget: colgen must land inside Fleischer's
     certified bracket. *)
  let topo = jelly 31 24 4 in
  let cs = Tb_tm.Tm.commodities (Synthetic.longest_matching topo) in
  let g = topo.Topology.graph in
  let c = Colgen.solve g cs in
  let f = Fleischer.solve ~tol:0.02 g cs in
  Alcotest.(check bool) "within bracket" true
    (f.Fleischer.lower -. 1e-6 <= c.Colgen.value
    && c.Colgen.value <= f.Fleischer.upper +. 1e-6)

(* ---- VLB / constructive Theorem 2 ---- *)

let test_vlb_certificate () =
  let topo = Tb_topo.Hypercube.make ~dim:4 () in
  let tm = Synthetic.longest_matching topo in
  let cert = Topobench.Vlb.certify topo tm in
  (* The overlay load must not exceed capacity: that *is* the proof. *)
  Alcotest.(check bool) "overlay fits" true
    (cert.Topobench.Vlb.worst_overlay_load <= 1.0 +. 1e-9);
  (* And the guarantee must be honored by the real LP. *)
  let actual = (Solve.throughput topo tm).Solve.estimate in
  Alcotest.(check bool) "guarantee honored" true
    (actual.Tb_flow.Mcf.upper >= cert.Topobench.Vlb.vlb_throughput *. 0.99)

let test_vlb_hose_volume () =
  let tm = Tb_tm.Tm.make ~label:"x" [| (0, 1, 0.4); (0, 2, 0.5); (3, 1, 0.8) |] in
  (* Node 1 receives 1.2 — the max. *)
  Alcotest.(check (float 1e-9)) "volume" 1.2 (Topobench.Vlb.hose_volume tm)

let test_vlb_skewed_tm_scaling () =
  let topo = Tb_topo.Hypercube.make ~dim:4 () in
  let lm = Synthetic.longest_matching topo in
  let heavy = Tb_tm.Tm.scale 3.0 lm in
  let c1 = Topobench.Vlb.certify topo lm in
  let c3 = Topobench.Vlb.certify topo heavy in
  (* Tripling demands divides the guaranteed concurrent scale by 3. *)
  Alcotest.(check (float 1e-6)) "inverse scaling"
    (c1.Topobench.Vlb.vlb_throughput /. 3.0)
    c3.Topobench.Vlb.vlb_throughput

let test_vlb_heterogeneous_hosts () =
  (* Regression: with several servers per endpoint the overlay check
     must use per-server volumes (a uniform-overlay formulation reads
     utilizations above 1 on skewed workloads). *)
  let topo = Tb_topo.Fattree.make ~k:4 () in
  let tm =
    (* One hot endpoint sending its full volume to a single peer. *)
    let e = Topology.endpoint_nodes topo in
    Tb_tm.Tm.make ~label:"hot"
      [| (e.(0), e.(7), 2.0); (e.(7), e.(0), 2.0); (e.(1), e.(2), 1.0) |]
  in
  let cert = Topobench.Vlb.certify topo tm in
  Alcotest.(check bool) "overlay fits" true
    (cert.Topobench.Vlb.worst_overlay_load <= 1.0 +. 1e-9);
  let actual = (Solve.throughput topo tm).Solve.estimate in
  Alcotest.(check bool) "floor honored" true
    (actual.Tb_flow.Mcf.upper >= cert.Topobench.Vlb.vlb_throughput *. 0.99)

(* ---- Routing restrictions ---- *)

let test_routing_monotone_in_k () =
  let topo = jelly 33 16 4 in
  let tm = Synthetic.longest_matching topo in
  let restricted, optimal = Topobench.Routing.ladder topo tm ~ks:[ 1; 4 ] in
  match restricted with
  | [ r1; r4 ] ->
    let v1 = Topobench.Routing.value r1 and v4 = Topobench.Routing.value r4 in
    Alcotest.(check bool) "k=4 >= k=1" true (v4 +. 0.05 >= v1);
    Alcotest.(check bool) "optimal >= k=4" true
      (optimal.Tb_flow.Mcf.upper +. 0.05 >= v4)
  | _ -> Alcotest.fail "expected two ladder entries"

let test_routing_single_path_hurts_expander () =
  let topo = jelly 34 20 5 in
  let tm = Synthetic.longest_matching topo in
  let r1 = Topobench.Routing.ksp_throughput topo tm ~k:1 in
  let opt = (Solve.throughput topo tm).Solve.estimate in
  Alcotest.(check bool) "single path strictly below optimum" true
    (Topobench.Routing.value r1 < opt.Tb_flow.Mcf.lower *. 1.0 +. 1e-9
    || Topobench.Routing.value r1 <= opt.Tb_flow.Mcf.upper)

(* ---- Xpander ---- *)

let test_xpander_structure () =
  let rng = Rng.make 35 in
  let topo = Tb_topo.Xpander.make ~rng ~lift:6 ~degree:5 () in
  let g = topo.Topology.graph in
  Alcotest.(check int) "nodes = lift*(d+1)" 36 (Graph.num_nodes g);
  Array.iter
    (fun d -> Alcotest.(check int) "regular" 5 d)
    (Graph.degree_sequence g);
  Alcotest.(check bool) "connected" true (Tb_graph.Traversal.is_connected g)

let test_xpander_expands () =
  (* Throughput within ~15% of a same-equipment random graph under LM. *)
  let rng = Rng.make 36 in
  let topo = Tb_topo.Xpander.make ~rng ~lift:5 ~degree:5 () in
  let r =
    Topobench.Relative.compute_gen ~iterations:2 ~rng:(Rng.make 37) topo
      (fun _ t -> Synthetic.longest_matching t)
  in
  Alcotest.(check bool) "~ random graph" true
    (abs_float (Topobench.Relative.ratio r -. 1.0) < 0.2)

let () =
  Alcotest.run "extensions"
    [
      ( "colgen",
        [
          Qseed.to_alcotest prop_colgen_matches_exact;
          Qseed.to_alcotest prop_colgen_paths_feasible;
          Alcotest.test_case "midsize bracket" `Slow test_colgen_midsize_bracket;
        ] );
      ( "vlb",
        [
          Alcotest.test_case "certificate" `Quick test_vlb_certificate;
          Alcotest.test_case "hose volume" `Quick test_vlb_hose_volume;
          Alcotest.test_case "demand scaling" `Quick test_vlb_skewed_tm_scaling;
          Alcotest.test_case "heterogeneous hosts" `Quick
            test_vlb_heterogeneous_hosts;
        ] );
      ( "routing",
        [
          Alcotest.test_case "monotone in k" `Slow test_routing_monotone_in_k;
          Alcotest.test_case "single path" `Quick
            test_routing_single_path_hurts_expander;
        ] );
      ( "xpander",
        [
          Alcotest.test_case "structure" `Quick test_xpander_structure;
          Alcotest.test_case "expands" `Slow test_xpander_expands;
        ] );
    ]
