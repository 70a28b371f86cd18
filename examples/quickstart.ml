(* Quickstart: build a topology, generate traffic matrices, and measure
   throughput — the three core calls of the library.

   Run with: dune exec examples/quickstart.exe *)

module Topology = Tb_topo.Topology
module Synthetic = Tb_tm.Synthetic
module Mcf = Tb_flow.Mcf
module Solve = Tb_harness.Solve

let () =
  let rng = Tb_prelude.Rng.make 7 in

  (* 1. A topology: a Jellyfish fabric of 32 switches, 6 ports each used
     for the fabric, 4 servers per switch. *)
  let topo =
    Tb_topo.Jellyfish.make ~hosts_per_switch:4 ~rng ~n:32 ~degree:6 ()
  in
  Format.printf "Topology: %a@." Topology.pp topo;

  (* 2. Traffic matrices: the easy one and the near-worst-case one. *)
  let a2a = Synthetic.all_to_all topo in
  let lm = Synthetic.longest_matching topo in

  (* 3. Throughput: the maximum t such that the TM scaled by t routes
     feasibly (computed as a certified bracket). *)
  let show name tm =
    let est = (Solve.throughput topo tm).Solve.estimate in
    Format.printf "  %-18s throughput = %.4f  in [%.4f, %.4f]@." name
      est.Mcf.value est.Mcf.lower est.Mcf.upper;
    est.Mcf.value
  in
  let t_a2a = show "all-to-all" a2a in
  let t_lm = show "longest matching" lm in

  (* Theorem 2: no hose-model TM can push throughput below A2A/2. *)
  Format.printf "  %-18s %.4f@." "lower bound" (t_a2a /. 2.0);
  Format.printf "Longest matching sits %.0f%% of the way down to the bound.@."
    (100.0 *. (t_a2a -. t_lm) /. (t_a2a -. (t_a2a /. 2.0)))
