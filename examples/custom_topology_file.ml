(* Evaluating a hand-written topology file end to end: parse it, report
   its structural metrics, certify a guaranteed throughput floor for an
   arbitrary workload via the constructive Theorem 2 (no LP needed for
   the floor), then measure the exact bracket — the workflow an operator
   would use on a topology dump from their own tooling.

   Run with: dune exec examples/custom_topology_file.exe *)

module Topology = Tb_topo.Topology
module Metrics = Tb_graph.Metrics
module Tm = Tb_tm.Tm
module Mcf = Tb_flow.Mcf
module Solve = Tb_harness.Solve

(* A small leaf-spine fabric written in the text format of
   Tb_topo.Io: 4 spines, 6 leaves, servers on the leaves only. *)
let fabric_file =
  "name leafspine\n\
   kind switch\n\
   nodes 10            # 0-3 spines, 4-9 leaves\n\
   hosts 4 3\n\
   hosts 5 3\n\
   hosts 6 3\n\
   hosts 7 3\n\
   hosts 8 3\n\
   hosts 9 3\n\
   edge 0 4\nedge 0 5\nedge 0 6\nedge 0 7\nedge 0 8\nedge 0 9\n\
   edge 1 4\nedge 1 5\nedge 1 6\nedge 1 7\nedge 1 8\nedge 1 9\n\
   edge 2 4\nedge 2 5\nedge 2 6\nedge 2 7\nedge 2 8\nedge 2 9\n\
   edge 3 4\nedge 3 5\nedge 3 6\nedge 3 7\nedge 3 8\nedge 3 9\n"

(* A skewed workload in the TM file format: leaf 4 is a hot storage
   rack; everyone reads from it. *)
let workload_file =
  "4 5 2\n4 6 2\n4 7 2\n4 8 2\n4 9 2\n\
   5 4 1\n6 4 1\n7 4 1\n8 4 1\n9 4 1\n\
   5 6 1\n6 7 1\n7 8 1\n8 9 1\n9 5 1\n"

let () =
  let topo = Tb_topo.Io.of_string fabric_file in
  let tm = Tb_tm.Io.of_string workload_file in
  Format.printf "Topology: %a@." Topology.pp topo;
  Format.printf "Structure: %a@.@." Metrics.pp
    (Metrics.summarize topo.Topology.graph);

  (* A guaranteed floor from Theorem 2's explicit two-hop routing —
     certified without solving the workload's own LP. *)
  let cert = Topobench.Vlb.certify topo tm in
  Format.printf
    "VLB certificate: any hose workload of this volume is routable at \
     >= %.4f@."
    cert.Topobench.Vlb.vlb_throughput;
  Format.printf "  (A2A throughput %.4f; worst overlay load %.3f <= 1)@.@."
    cert.Topobench.Vlb.a2a_throughput cert.Topobench.Vlb.worst_overlay_load;

  (* The exact answer, bracketed. *)
  let est = (Solve.throughput topo tm).Solve.estimate in
  Format.printf "Measured throughput of the workload: %.4f in [%.4f, %.4f]@."
    est.Mcf.value est.Mcf.lower est.Mcf.upper;
  Format.printf "Floor holds: %b@."
    (est.Mcf.upper >= cert.Topobench.Vlb.vlb_throughput *. 0.999)
