(** Routing-restricted throughput: any TM evaluated with flows pinned to
    their [k] diverse shortest paths ([k = 1] is single-path routing;
    growing [k] approaches optimal multipath — the paper's Section V
    point about routing studies vs topology studies). *)

module Topology = Tb_topo.Topology
module Tm = Tb_tm.Tm
module Mcf = Tb_flow.Mcf

type result = { k : int; lower : float; upper : float }

val value : result -> float

(** The path pools {!ksp_throughput} solves over: every flow of the TM
    with its [k] diverse shortest paths.
    @raise Invalid_argument if [k < 1]. *)
val ksp_specs : Topology.t -> Tm.t -> k:int -> Tb_flow.Fleischer.spec array

(** Certified bracket ([Tb_flow.Fleischer.solve_paths], default eps
    0.25 and tol 0.03) on the {!ksp_specs} pools. *)
val ksp_throughput :
  ?eps:float -> ?tol:float -> Topology.t -> Tm.t -> k:int -> result

(** Restricted results for each [k] in [ks], plus the unrestricted
    optimum. *)
val ladder :
  ?policy:Tb_harness.Solve.policy ->
  Topology.t ->
  Tm.t ->
  ks:int list ->
  result list * Mcf.estimate
