module Graph = Tb_graph.Graph
module Traversal = Tb_graph.Traversal
module Topology = Tb_topo.Topology
module Rng = Tb_prelude.Rng
module Solve = Tb_harness.Solve
open Tb_topo

let connected t = Traversal.is_connected t.Topology.graph

let check_counts name t ~nodes ~edges ~servers =
  Alcotest.(check int) (name ^ " nodes") nodes (Graph.num_nodes t.Topology.graph);
  Alcotest.(check int) (name ^ " edges") edges (Graph.num_edges t.Topology.graph);
  Alcotest.(check int) (name ^ " servers") servers (Topology.num_servers t);
  Alcotest.(check bool) (name ^ " connected") true (connected t)

(* ---- Hypercube ---- *)

let test_hypercube () =
  let t = Hypercube.make ~dim:4 () in
  check_counts "hc4" t ~nodes:16 ~edges:32 ~servers:16;
  Alcotest.(check int) "diameter = dim" 4 (Traversal.diameter t.Topology.graph);
  Array.iter
    (fun d -> Alcotest.(check int) "regular" 4 d)
    (Graph.degree_sequence t.Topology.graph)

(* ---- Fat tree ---- *)

let test_fattree_structure () =
  let k = 6 in
  let t = Fattree.make ~k () in
  (* 5k^2/4 switches, k^3/4 servers, k^3/2 links. *)
  check_counts "ft6" t ~nodes:(5 * k * k / 4) ~edges:(k * k * k / 2)
    ~servers:(k * k * k / 4);
  (* Hosts only at edge switches. *)
  let num_edge = Fattree.num_edge_switches ~k in
  Array.iteri
    (fun v h ->
      if v < num_edge then Alcotest.(check int) "edge hosts" (k / 2) h
      else Alcotest.(check int) "no hosts" 0 h)
    t.Topology.hosts

let test_fattree_nonblocking () =
  (* The defining property: full throughput under all-to-all. *)
  let t = Fattree.make ~k:4 () in
  let tm = Tb_tm.Synthetic.all_to_all t in
  let est = (Solve.throughput t tm).Solve.estimate in
  (* Intra-switch flows are excluded from A2A, so the bound is slightly
     above 1 (each server only ships (N - s)/N units). *)
  Alcotest.(check bool) "throughput >= 1" true
    (est.Tb_flow.Mcf.upper >= 1.0)

let test_fattree_rejects_odd () =
  Alcotest.(check bool) "odd k rejected" true
    (try
       ignore (Fattree.make ~k:5 ());
       false
     with Invalid_argument _ -> true)

(* ---- BCube ---- *)

let test_bcube_counts () =
  (* BCube(n=4, k=1): 16 servers, 2 levels x 4 switches. *)
  let t = Bcube.make ~n:4 ~k:1 () in
  check_counts "bcube41" t ~nodes:24 ~edges:32 ~servers:16;
  (* Every server has k+1 = 2 links; switches have n = 4. *)
  Array.iteri
    (fun v h ->
      let d = Graph.degree t.Topology.graph v in
      if h = 1 then Alcotest.(check int) "server degree" 2 d
      else Alcotest.(check int) "switch degree" 4 d)
    t.Topology.hosts

let test_bcube_level2 () =
  let t = Bcube.make ~n:3 ~k:2 () in
  (* 27 servers + 3 levels x 9 switches. *)
  check_counts "bcube32" t ~nodes:54 ~edges:81 ~servers:27

(* ---- DCell ---- *)

let test_dcell_counts () =
  (* DCell(4,1): t1 = 20 servers, 5 switches, links: 20 (level 0) + 10. *)
  let t = Dcell.make ~n:4 ~k:1 () in
  check_counts "dcell41" t ~nodes:25 ~edges:30 ~servers:20;
  (* Level-1 servers have degree 2 (switch + 1 peer). *)
  Array.iteri
    (fun v h ->
      if h = 1 then
        Alcotest.(check int) "server degree" 2 (Graph.degree t.Topology.graph v))
    t.Topology.hosts

let test_dcell_level2_servers () =
  (* t2 for n=2: t0=2, g1=3, t1=6, g2=7, t2=42. *)
  let t = Dcell.make ~n:2 ~k:2 () in
  Alcotest.(check int) "42 servers" 42 (Topology.num_servers t);
  Alcotest.(check bool) "connected" true (connected t)

(* ---- Dragonfly ---- *)

let test_dragonfly_counts () =
  (* h=2: a=4, g=9, 36 routers; global links g*(g-1)/2 = 36; intra 9*6. *)
  let t = Dragonfly.balanced ~h:2 () in
  check_counts "df2" t ~nodes:36 ~edges:90 ~servers:72;
  (* Router degree: (a-1) local + h global = 5. *)
  Array.iter
    (fun d -> Alcotest.(check int) "router degree" 5 d)
    (Graph.degree_sequence t.Topology.graph)

let test_dragonfly_diameter () =
  let t = Dragonfly.balanced ~h:2 () in
  Alcotest.(check bool) "diameter <= 3" true
    (Traversal.diameter t.Topology.graph <= 3)

(* ---- Flattened butterfly ---- *)

let test_flat_butterfly_paper_example () =
  (* The 5-ary 3-stage instance of Section III-B. *)
  let t = Flat_butterfly.make ~k:5 ~stages:3 () in
  check_counts "fb53" t ~nodes:25 ~edges:100 ~servers:125;
  Alcotest.(check int) "diameter = dims" 2 (Traversal.diameter t.Topology.graph)

let test_flat_butterfly_binary () =
  (* 2-ary n-flat is the hypercube of dimension n-1. *)
  let t = Flat_butterfly.make ~k:2 ~stages:5 () in
  let h = Hypercube.make ~dim:4 () in
  Alcotest.(check int) "nodes" (Graph.num_nodes h.Topology.graph)
    (Graph.num_nodes t.Topology.graph);
  Alcotest.(check int) "edges" (Graph.num_edges h.Topology.graph)
    (Graph.num_edges t.Topology.graph)

(* ---- HyperX ---- *)

let test_hyperx_regular () =
  let c = { Hyperx.l = 2; s = 4; t = 2 } in
  let t = Hyperx.make c in
  check_counts "hx" t ~nodes:16 ~edges:48 ~servers:32;
  Alcotest.(check int) "diameter = L" 2 (Traversal.diameter t.Topology.graph)

let test_hyperx_search_respects_constraints () =
  match Hyperx.search ~radix:32 ~servers:256 ~bisection:0.4 () with
  | None -> Alcotest.fail "expected a configuration"
  | Some c ->
    Alcotest.(check bool) "servers" true (Hyperx.num_servers c >= 256);
    Alcotest.(check bool) "radix" true (Hyperx.switch_radix c <= 32);
    Alcotest.(check bool) "bisection" true (Hyperx.relative_bisection c >= 0.4);
    Alcotest.(check bool) "multi-dim" true (c.Hyperx.l >= 2)

let test_hyperx_search_infeasible () =
  Alcotest.(check bool) "tiny radix fails" true
    (Hyperx.search ~radix:3 ~servers:10_000 ~bisection:0.5 () = None)

(* ---- Jellyfish ---- *)

let test_jellyfish_regular () =
  let t = Jellyfish.make ~rng:(Rng.make 1) ~n:30 ~degree:5 ~hosts_per_switch:3 () in
  Alcotest.(check int) "servers" 90 (Topology.num_servers t);
  Array.iter
    (fun d -> Alcotest.(check int) "5-regular" 5 d)
    (Graph.degree_sequence t.Topology.graph);
  Alcotest.(check bool) "connected" true (connected t)

let test_jellyfish_matching_equipment () =
  let ft = Fattree.make ~k:4 () in
  let jf = Jellyfish.matching_equipment ~rng:(Rng.make 2) ft in
  Alcotest.(check (array int)) "same degrees"
    (Graph.degree_sequence ft.Topology.graph)
    (Graph.degree_sequence jf.Topology.graph);
  Alcotest.(check int) "same servers" (Topology.num_servers ft)
    (Topology.num_servers jf)

(* ---- Long Hop ---- *)

let test_longhop_counts () =
  let t = Longhop.make ~dim:5 () in
  Alcotest.(check int) "32 switches" 32 (Graph.num_nodes t.Topology.graph);
  Array.iter
    (fun d -> Alcotest.(check int) "degree 10" 10 d)
    (Graph.degree_sequence t.Topology.graph)

let test_longhop_beats_hypercube_diameter () =
  let lh = Longhop.make ~dim:6 () in
  let hc = Hypercube.make ~dim:6 () in
  Alcotest.(check bool) "long hops shrink diameter" true
    (Traversal.diameter lh.Topology.graph < Traversal.diameter hc.Topology.graph)

let test_longhop_generators_distinct () =
  let gens = Longhop.generators ~dim:5 ~degree:10 in
  Alcotest.(check int) "ten distinct generators" 10
    (List.length (List.sort_uniq compare gens))

(* ---- Slim Fly ---- *)

let test_slimfly_mms () =
  let t = Slimfly.make ~hosts_per_switch:1 ~q:5 () in
  Alcotest.(check int) "50 routers" 50 (Graph.num_nodes t.Topology.graph);
  Alcotest.(check int) "diameter 2" 2 (Traversal.diameter t.Topology.graph);
  Array.iter
    (fun d -> Alcotest.(check int) "degree (3q-1)/2" 7 d)
    (Graph.degree_sequence t.Topology.graph)

let test_slimfly_q13 () =
  let t = Slimfly.make ~hosts_per_switch:1 ~q:13 () in
  Alcotest.(check int) "338 routers" 338 (Graph.num_nodes t.Topology.graph);
  Alcotest.(check int) "diameter 2" 2 (Traversal.diameter t.Topology.graph);
  Array.iter
    (fun d -> Alcotest.(check int) "degree 19" 19 d)
    (Graph.degree_sequence t.Topology.graph)

let test_slimfly_rejects_bad_q () =
  Alcotest.(check bool) "q=7 invalid (3 mod 4)" true
    (try
       ignore (Slimfly.make ~q:7 ());
       false
     with Invalid_argument _ -> true)

(* ---- Natural zoo & catalog ---- *)

let test_natural_zoo () =
  let zoo = Natural.zoo ~count:12 ~seed:5 () in
  Alcotest.(check int) "twelve graphs" 12 (List.length zoo);
  List.iter
    (fun t ->
      Alcotest.(check bool) "connected" true (connected t);
      Alcotest.(check bool) "nontrivial" true
        (Graph.num_nodes t.Topology.graph >= 10))
    zoo

let test_natural_deterministic () =
  let a = Natural.zoo ~count:4 ~seed:5 () and b = Natural.zoo ~count:4 ~seed:5 () in
  List.iter2
    (fun x y ->
      Alcotest.(check int) "same edges"
        (Graph.num_edges x.Topology.graph)
        (Graph.num_edges y.Topology.graph))
    a b

let test_catalog_all_families_build () =
  let rng = Rng.make 9 in
  List.iter
    (fun family ->
      let reps = Catalog.small ~rng family in
      Alcotest.(check bool)
        (Catalog.family_name family ^ " has small instances")
        true
        (List.length reps > 0);
      List.iter
        (fun t -> Alcotest.(check bool) "connected" true (connected t))
        reps;
      let rep = Catalog.representative ~rng family in
      Alcotest.(check bool) "representative connected" true (connected rep))
    Catalog.all_families

let test_catalog_sweeps_grow () =
  let rng = Rng.make 9 in
  List.iter
    (fun family ->
      let sizes =
        List.map Topology.num_servers (Catalog.sweep ~rng family)
      in
      let sorted = List.sort compare sizes in
      Alcotest.(check (list int))
        (Catalog.family_name family ^ " sweep increasing")
        sorted sizes)
    Catalog.all_families

(* ---- Topology helpers ---- *)

let test_spread_hosts () =
  let h = Topology.spread_hosts ~n:5 ~total:12 in
  Alcotest.(check int) "total preserved" 12 (Array.fold_left ( + ) 0 h);
  Array.iter
    (fun x -> Alcotest.(check bool) "within 1 of even" true (x = 2 || x = 3))
    h;
  (* Fewer servers than nodes must stride, not fill a prefix. *)
  let h2 = Topology.spread_hosts ~n:8 ~total:4 in
  Alcotest.(check int) "total" 4 (Array.fold_left ( + ) 0 h2);
  Alcotest.(check bool) "not a prefix" true (h2.(6) + h2.(7) > 0 || h2.(4) + h2.(5) > 0)

let prop_spread_hosts_even =
  (* For any (n, total) the stride placement is balanced within one and
     preserves the total. *)
  let open QCheck in
  Test.make ~name:"spread_hosts balanced within one" ~count:200
    (pair (int_range 1 40) (int_range 0 200))
    (fun (n, total) ->
      let h = Topology.spread_hosts ~n ~total in
      let sum = Array.fold_left ( + ) 0 h in
      let lo = Array.fold_left min max_int h
      and hi = Array.fold_left max 0 h in
      sum = total && hi - lo <= 1)

let test_unit_hosts () =
  let t = Fattree.make ~k:4 () in
  let u = Topology.unit_hosts t in
  (* One server per endpoint; hostless agg/core switches stay hostless. *)
  Alcotest.(check int) "one per endpoint"
    (Array.length (Topology.endpoint_nodes t))
    (Topology.num_servers u);
  (* Server-centric topologies are untouched. *)
  let b = Bcube.make ~n:3 ~k:1 () in
  Alcotest.(check int) "bcube unchanged" (Topology.num_servers b)
    (Topology.num_servers (Topology.unit_hosts b))

let () =
  Alcotest.run "topo"
    [
      ("hypercube", [ Alcotest.test_case "structure" `Quick test_hypercube ]);
      ( "fattree",
        [
          Alcotest.test_case "structure" `Quick test_fattree_structure;
          Alcotest.test_case "nonblocking" `Quick test_fattree_nonblocking;
          Alcotest.test_case "odd k" `Quick test_fattree_rejects_odd;
        ] );
      ( "bcube",
        [
          Alcotest.test_case "counts k=1" `Quick test_bcube_counts;
          Alcotest.test_case "counts k=2" `Quick test_bcube_level2;
        ] );
      ( "dcell",
        [
          Alcotest.test_case "counts k=1" `Quick test_dcell_counts;
          Alcotest.test_case "level 2" `Quick test_dcell_level2_servers;
        ] );
      ( "dragonfly",
        [
          Alcotest.test_case "counts" `Quick test_dragonfly_counts;
          Alcotest.test_case "diameter" `Quick test_dragonfly_diameter;
        ] );
      ( "flattened-butterfly",
        [
          Alcotest.test_case "paper 25-switch example" `Quick
            test_flat_butterfly_paper_example;
          Alcotest.test_case "binary = hypercube" `Quick test_flat_butterfly_binary;
        ] );
      ( "hyperx",
        [
          Alcotest.test_case "regular" `Quick test_hyperx_regular;
          Alcotest.test_case "search constraints" `Quick
            test_hyperx_search_respects_constraints;
          Alcotest.test_case "search infeasible" `Quick test_hyperx_search_infeasible;
        ] );
      ( "jellyfish",
        [
          Alcotest.test_case "regular" `Quick test_jellyfish_regular;
          Alcotest.test_case "matching equipment" `Quick
            test_jellyfish_matching_equipment;
        ] );
      ( "longhop",
        [
          Alcotest.test_case "counts" `Quick test_longhop_counts;
          Alcotest.test_case "diameter" `Quick test_longhop_beats_hypercube_diameter;
          Alcotest.test_case "generators" `Quick test_longhop_generators_distinct;
        ] );
      ( "slimfly",
        [
          Alcotest.test_case "MMS q=5" `Quick test_slimfly_mms;
          Alcotest.test_case "MMS q=13" `Slow test_slimfly_q13;
          Alcotest.test_case "bad q" `Quick test_slimfly_rejects_bad_q;
        ] );
      ( "helpers",
        [
          Alcotest.test_case "spread hosts" `Quick test_spread_hosts;
          Qseed.to_alcotest prop_spread_hosts_even;
          Alcotest.test_case "unit hosts" `Quick test_unit_hosts;
        ] );
      ( "natural+catalog",
        [
          Alcotest.test_case "zoo" `Quick test_natural_zoo;
          Alcotest.test_case "deterministic" `Quick test_natural_deterministic;
          Alcotest.test_case "families build" `Quick test_catalog_all_families_build;
          Alcotest.test_case "sweeps grow" `Quick test_catalog_sweeps_grow;
        ] );
    ]
