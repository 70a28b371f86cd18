module Topology = Tb_topo.Topology
module Tm = Tb_tm.Tm
module Mcf = Tb_flow.Mcf
module Fleischer = Tb_flow.Fleischer
module Commodity = Tb_flow.Commodity

(* Routing-restricted throughput.

   The paper's headline numbers assume optimal (multipath) routing; its
   Section V argues that single-path studies measure the routing scheme
   rather than the topology. This module quantifies that: evaluate any
   TM with flows pinned to their k diverse shortest paths (k = 1 is
   single-path routing; growing k approaches the optimum, mimicking
   ECMP-style multipath). *)

type result = {
  k : int;
  lower : float;
  upper : float;
}

let value r = 0.5 *. (r.lower +. r.upper)

(* Every flow of [tm] with its [k] diverse shortest paths as its pool. *)
let ksp_specs (topo : Topology.t) tm ~k =
  if k < 1 then invalid_arg "Routing.ksp_specs: k < 1";
  let g = topo.Topology.graph in
  (* Share path computations across the forward/backward orientations of
     each unordered pair. *)
  let cache = Hashtbl.create 64 in
  let paths_for u v =
    let key = (min u v, max u v) in
    let fwd =
      match Hashtbl.find_opt cache key with
      | Some p -> p
      | None ->
        let p = Llskr.diverse_paths g ~src:(fst key) ~dst:(snd key) ~k in
        Hashtbl.add cache key p;
        p
    in
    if u = fst key then fwd
    else Array.map (fun arcs -> List.rev_map Tb_graph.Graph.arc_rev arcs) fwd
  in
  Array.map
    (fun (u, v, w) ->
      {
        Fleischer.commodity = Commodity.make ~src:u ~dst:v ~demand:w;
        paths = paths_for u v;
      })
    (Tm.flows tm)

(* Restricted concurrent throughput of [tm] with every flow limited to
   its [k] diverse shortest paths. *)
let ksp_throughput ?(eps = 0.25) ?(tol = 0.03) (topo : Topology.t) tm ~k =
  let specs = ksp_specs topo tm ~k in
  let r = Fleischer.solve_paths ~eps ~tol topo.Topology.graph specs in
  { k; lower = r.Fleischer.lower; upper = r.Fleischer.upper }

(* Convenience ladder: single path, modest multipath, optimal. *)
let ladder ?policy (topo : Topology.t) tm ~ks =
  let optimal =
    (Tb_harness.Solve.throughput ?policy topo tm).Tb_harness.Solve.estimate
  in
  let restricted = List.map (fun k -> ksp_throughput topo tm ~k) ks in
  (restricted, optimal)
