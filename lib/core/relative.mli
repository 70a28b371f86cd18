(** Relative throughput (Section IV): a topology's throughput normalized
    by same-equipment uniform-random graphs under the same traffic
    model. *)

module Topology = Tb_topo.Topology
module Tm = Tb_tm.Tm
module Mcf = Tb_flow.Mcf
module Rng = Tb_prelude.Rng
module Stats = Tb_prelude.Stats

(** How the TM is obtained for each evaluated graph. Graph-dependent TMs
    (longest matching and derivatives) must use [Generator] so each
    random graph faces its own near-worst-case TM; placement-sensitive
    TMs (the real-world rack workloads) use [Fixed]. *)
type tm_source =
  | Fixed of Tm.t
  | Generator of (Rng.t -> Topology.t -> Tm.t)

(** Server placement on the random baseline: [Spread] (default for
    generators) places the same server count evenly over all switches
    per the Jellyfish methodology; [Preserve] (default and required
    semantics for fixed TMs) keeps the original placement. *)
type placement = Spread | Preserve

type result = {
  absolute : Mcf.estimate; (** the topology's own throughput *)
  random_absolute : Stats.summary; (** same-equipment random graphs *)
  relative : Stats.summary; (** per-random-graph ratio samples *)
}

(** [compute ~rng topo source] evaluates [iterations] independent random
    rewirings in parallel (OCaml domains) and summarizes the ratios with
    95% confidence intervals. Every throughput is one
    {!Tb_harness.Solve.throughput} under [policy] (default
    {!Tb_harness.Solve.default_policy}). *)
val compute :
  ?policy:Tb_harness.Solve.policy ->
  ?iterations:int ->
  ?placement:placement ->
  rng:Rng.t ->
  Topology.t ->
  tm_source ->
  result

val compute_fixed :
  ?policy:Tb_harness.Solve.policy ->
  ?iterations:int ->
  ?placement:placement ->
  rng:Rng.t ->
  Topology.t ->
  Tm.t ->
  result

val compute_gen :
  ?policy:Tb_harness.Solve.policy ->
  ?iterations:int ->
  ?placement:placement ->
  rng:Rng.t ->
  Topology.t ->
  (Rng.t -> Topology.t -> Tm.t) ->
  result

val ratio : result -> float
