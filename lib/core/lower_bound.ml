module Topology = Tb_topo.Topology
module Synthetic = Tb_tm.Synthetic
module Mcf = Tb_flow.Mcf

(* Theorem 2: if the all-to-all TM is feasible at throughput [t], every
   hose-model TM is feasible at throughput at least [t / 2] (proved via
   two-hop Valiant routing over the A2A flow as an overlay). The paper
   uses [t_A2A / 2] as the universal lower bound that the longest
   matching TM is measured against. *)

let of_a2a_throughput t = t /. 2.0

(* Bracketed lower bound for a topology: [estimate.lower /. 2] is a
   certified floor; [estimate.value /. 2] the point value. *)
let compute ?policy topo =
  let est =
    (Tb_harness.Solve.throughput ?policy topo (Synthetic.all_to_all topo))
      .Tb_harness.Solve.estimate
  in
  {
    Mcf.value = of_a2a_throughput est.Mcf.value;
    lower = of_a2a_throughput est.Mcf.lower;
    upper = of_a2a_throughput est.Mcf.upper;
  }
