module Topology = Tb_topo.Topology
module Tm = Tb_tm.Tm
module Mcf = Tb_flow.Mcf
module Solve = Tb_harness.Solve
module Equipment = Tb_graph.Equipment
module Rng = Tb_prelude.Rng
module Stats = Tb_prelude.Stats
module Parallel = Tb_prelude.Parallel

(* Relative throughput (Section IV): normalize a topology's throughput
   by that of uniform-random graphs built with *exactly the same
   equipment* — same node count, same per-node degree, same server
   placement — evaluated under the same traffic model.

   Graph-dependent TMs (the longest matching, and anything built on it)
   must be regenerated for each random graph: the matching that is
   adversarial for the structured topology is not the random graph's
   worst case, and evaluating it there would deflate every ratio
   (Jellyfish's relative throughput is 1 by construction only if each
   random graph faces its own near-worst-case TM). Placement-sensitive
   real-world TMs are instead evaluated verbatim ([Fixed]). *)

type tm_source =
  | Fixed of Tm.t
  | Generator of (Rng.t -> Topology.t -> Tm.t)

(* Server placement on the random baseline. [Spread] (default for
   generators) places the same server count evenly over all switches,
   per the Jellyfish methodology — otherwise a fat tree's baseline would
   inherit the fat tree's own placement handicap (servers pinned to its
   lowest-degree switches) and read as worse than the structured design.
   [Preserve] keeps the original placement; placement-sensitive fixed
   TMs require it (their node ids must stay meaningful). For server-
   centric topologies [Spread] hangs the same number of traffic
   endpoints evenly over all fabric nodes (NICs and switch ports alike
   become fabric in the rewire). *)
type placement = Spread | Preserve

type result = {
  absolute : Mcf.estimate; (* the topology's own throughput *)
  random_absolute : Stats.summary; (* same-equipment random graphs *)
  relative : Stats.summary; (* ratio samples topo / random_i *)
}

let tm_for source rng topo =
  match source with Fixed tm -> tm | Generator gen -> gen rng topo

let compute ?policy ?(iterations = 3) ?placement ~rng (topo : Topology.t)
    source =
  if iterations < 1 then invalid_arg "Relative.compute";
  let placement =
    match (placement, source) with
    | Some p, _ -> p
    | None, Fixed _ -> Preserve
    | None, Generator _ -> Spread
  in
  let own_tm = tm_for source (Rng.split rng 999_999) topo in
  let absolute = (Solve.throughput ?policy topo own_tm).Solve.estimate in
  let n = Tb_graph.Graph.num_nodes topo.Topology.graph in
  let baseline_hosts =
    match placement with
    | Preserve -> topo.Topology.hosts
    | Spread -> Topology.spread_hosts ~n ~total:(Topology.num_servers topo)
  in
  let seeds = Array.init iterations (fun i -> Rng.split rng i) in
  let randoms =
    Parallel.map_array
      (fun r ->
        let g = Equipment.same_equipment_random r topo.Topology.graph in
        let random_topo =
          Topology.make ~name:"random" ~params:"same-equipment"
            ~kind:topo.Topology.kind ~graph:g ~hosts:baseline_hosts
        in
        let tm = tm_for source (Rng.split r 17) random_topo in
        (Solve.throughput ?policy random_topo tm).Solve.estimate.Mcf.value)
      seeds
  in
  {
    absolute;
    random_absolute = Stats.summarize randoms;
    relative =
      Stats.summarize
        (Array.map (fun rv -> absolute.Mcf.value /. rv) randoms);
  }

(* Convenience wrappers for the two common cases. *)
let compute_fixed ?policy ?iterations ?placement ~rng topo tm =
  compute ?policy ?iterations ?placement ~rng topo (Fixed tm)

let compute_gen ?policy ?iterations ?placement ~rng topo gen =
  compute ?policy ?iterations ?placement ~rng topo (Generator gen)

let ratio r = r.relative.Stats.mean
