(* Worst-case traffic hunt: a capacity planner is choosing between three
   fabrics of comparable cost and wants to know how each behaves when
   the workload turns adversarial — exactly the paper's use case for the
   longest-matching TM.

   For each candidate this walks the TM ladder (all-to-all, random
   matching, longest matching) down toward the Theorem-2 floor and also
   reports the sparsest cut found by the estimator suite, illustrating
   how the cut overestimates the safe load.

   Run with: dune exec examples/worst_case_hunt.exe *)

module Topology = Tb_topo.Topology
module Synthetic = Tb_tm.Synthetic
module Tm = Tb_tm.Tm
module Mcf = Tb_flow.Mcf
module Solve = Tb_harness.Solve
module Table = Tb_prelude.Table

let evaluate rng topo =
  let tp tm = (Solve.throughput topo tm).Solve.estimate.Mcf.value in
  let a2a = tp (Synthetic.all_to_all topo) in
  let rm = tp (Synthetic.random_matching ~k:1 rng topo) in
  let lm_tm = Synthetic.longest_matching topo in
  let lm = tp lm_tm in
  let cut =
    (Tb_cuts.Estimator.run_tm topo.Topology.graph lm_tm)
      .Tb_cuts.Estimator.sparsity
  in
  (a2a, rm, lm, a2a /. 2.0, cut)

let () =
  let rng = Tb_prelude.Rng.make 11 in
  let candidates =
    [
      Tb_topo.Hypercube.make ~hosts_per_switch:2 ~dim:5 ();
      Tb_topo.Fattree.make ~k:6 ();
      Tb_topo.Jellyfish.make ~hosts_per_switch:2
        ~rng:(Tb_prelude.Rng.split rng 1)
        ~n:32 ~degree:5 ();
    ]
  in
  let t =
    Table.create ~title:"Worst-case traffic hunt"
      [ "fabric"; "A2A"; "RM"; "LM"; "floor=A2A/2"; "sparse-cut(LM)" ]
  in
  List.iter
    (fun topo ->
      let a2a, rm, lm, floor, cut =
        evaluate (Tb_prelude.Rng.split rng 2) topo
      in
      Table.add_row t
        [
          Topology.label topo;
          Table.cell_f a2a;
          Table.cell_f rm;
          Table.cell_f lm;
          Table.cell_f floor;
          Table.cell_f cut;
        ])
    candidates;
  Table.print t;
  print_endline
    "Reading: LM is the planner's safe number; the sparse cut would\n\
     overpromise wherever it exceeds the LM column."
