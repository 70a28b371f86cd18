(* Expanders vs fat trees — the paper's headline comparison, on equal
   equipment: take a fat tree, rewire exactly the same switches and
   ports uniformly at random (Jellyfish), spread the same servers evenly
   over the switches (the Jellyfish placement), and compare throughput
   under progressively harder traffic.

   Expected: the random rewiring is competitive with or beats the fat
   tree at equal cost; the fat tree's nonblocking guarantee is paid for
   with ports the expander converts into raw capacity. (Keeping the fat
   tree's own server placement on the rewired graph instead would pin
   every server to the lowest-degree switches and reverse the verdict —
   placement is part of the design.)

   Run with: dune exec examples/expander_vs_fattree.exe *)

module Topology = Tb_topo.Topology
module Synthetic = Tb_tm.Synthetic
module Mcf = Tb_flow.Mcf
module Solve = Tb_harness.Solve
module Table = Tb_prelude.Table

let () =
  let rng = Tb_prelude.Rng.make 23 in
  let fattree = Tb_topo.Fattree.make ~k:6 () in
  let jellyfish =
    let rewired = Tb_topo.Jellyfish.matching_equipment ~rng fattree in
    Topology.with_hosts rewired
      (Topology.spread_hosts
         ~n:(Tb_graph.Graph.num_nodes rewired.Topology.graph)
         ~total:(Topology.num_servers fattree))
  in
  let tms topo =
    [
      ("A2A", Synthetic.all_to_all topo);
      ("RM", Synthetic.random_matching ~k:1 (Tb_prelude.Rng.split rng 5) topo);
      ("LM", Synthetic.longest_matching topo);
    ]
  in
  let t =
    Table.create ~title:"Fat tree vs same-equipment Jellyfish (k=6)"
      [ "TM"; "fat tree"; "jellyfish"; "jf/ft" ]
  in
  List.iter2
    (fun (name, tm_ft) (_, tm_jf) ->
      let ft = (Solve.throughput fattree tm_ft).Solve.estimate.Mcf.value in
      let jf = (Solve.throughput jellyfish tm_jf).Solve.estimate.Mcf.value in
      Table.add_row t
        [ name; Table.cell_f ft; Table.cell_f jf; Table.cell_f (jf /. ft) ])
    (tms fattree) (tms jellyfish);
  Table.print t;
  Printf.printf
    "Equipment: %d switches, %d links, %d servers in both fabrics.\n"
    (Tb_graph.Graph.num_nodes fattree.Topology.graph)
    (Tb_graph.Graph.num_edges fattree.Topology.graph)
    (Topology.num_servers fattree)
