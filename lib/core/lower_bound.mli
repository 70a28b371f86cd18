(** Theorem 2: every hose-model TM is feasible at throughput at least
    [t_A2A / 2]. *)

module Topology = Tb_topo.Topology
module Mcf = Tb_flow.Mcf

val of_a2a_throughput : float -> float

(** Bracketed lower bound: the A2A throughput estimate halved. *)
val compute : ?policy:Tb_harness.Solve.policy -> Topology.t -> Mcf.estimate
