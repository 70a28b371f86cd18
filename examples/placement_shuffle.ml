(* Workload placement shuffle: the paper's Section IV-B finding that for
   a skewed (frontend-like) workload, randomizing which rack hosts which
   role recovers substantial throughput on structured topologies —
   while expanders barely care where the load lands.

   This example places the synthetic frontend TM (heavy cache racks,
   light web racks) on a hypercube and on a Jellyfish of comparable
   size, in rack order and under ten random placements.

   Run with: dune exec examples/placement_shuffle.exe *)

module Topology = Tb_topo.Topology
module Realworld = Tb_tm.Realworld
module Tm = Tb_tm.Tm
module Mcf = Tb_flow.Mcf
module Solve = Tb_harness.Solve
module Stats = Tb_prelude.Stats
module Rng = Tb_prelude.Rng

let study name topo =
  let rng = Rng.make 99 in
  let tp tm = (Solve.throughput topo tm).Solve.estimate.Mcf.value in
  let sampled = tp (Realworld.instantiate topo Realworld.Frontend) in
  let shuffles =
    Array.init 10 (fun i ->
        tp
          (Realworld.instantiate ~rng:(Rng.split rng i) topo
             Realworld.Frontend))
  in
  let s = Stats.summarize shuffles in
  Printf.printf
    "%-24s in-order placement: %.4f   shuffled: %.4f (±%.4f)   gain: %+.1f%%\n"
    name sampled s.Stats.mean s.Stats.ci95
    (100.0 *. ((s.Stats.mean /. sampled) -. 1.0));
  ()

let () =
  print_endline "Frontend-like skewed TM, in-order vs shuffled rack placement:";
  study "Hypercube dim=6" (Tb_topo.Hypercube.make ~hosts_per_switch:2 ~dim:6 ());
  study "FlattenedBF 8-ary"
    (Tb_topo.Flat_butterfly.make ~hosts_per_switch:2 ~k:8 ~stages:3 ());
  study "Jellyfish 64x8"
    (Tb_topo.Jellyfish.make ~hosts_per_switch:2
       ~rng:(Tb_prelude.Rng.make 3)
       ~n:64 ~degree:8 ());
  print_endline
    "Reading: structured fabrics gain from randomized placement; the\n\
     expander is already insensitive to it."
