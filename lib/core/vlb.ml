module Topology = Tb_topo.Topology
module Tm = Tb_tm.Tm
module Mcf = Tb_flow.Mcf
module Synthetic = Tb_tm.Synthetic

(* Constructive Theorem 2: Valiant load balancing over the A2A flow.

   The theorem's proof reserves the feasible A2A flow as an overlay — a
   complete digraph C with capacity t/n on every ordered endpoint pair —
   and routes an arbitrary hose TM in two hops over C: every demand
   v -> w is split into n equal parts relayed via each endpoint. Each
   overlay link i -> j then carries 1/n of everything i originates plus
   1/n of everything j sinks, which fits in t/n when the TM is scaled by
   t/2.

   This module makes that argument executable: it builds the two-hop
   relay loads explicitly and checks them against the overlay capacity,
   yielding a certified feasible throughput of any hose TM without
   solving its LP — exactly the paper's lower-bound machinery, and a
   useful fast estimator in its own right. *)

type certificate = {
  a2a_throughput : float; (* certified feasible A2A throughput *)
  vlb_throughput : float; (* resulting guaranteed throughput for the TM *)
  (* Worst overlay-link utilization at [vlb_throughput]; <= 1 + eps by
     construction. *)
  worst_overlay_load : float;
}

(* Hose volume of the TM: the largest per-endpoint send or receive
   total. The theorem guarantees t/2 for volume-1 TMs; general TMs scale
   by their volume. Send and receive totals are tracked under distinct
   keys (receives at [-v - 1]). *)
let hose_volume tm =
  let vol = Hashtbl.create 64 in
  let bump v w =
    Hashtbl.replace vol v (w +. Option.value ~default:0.0 (Hashtbl.find_opt vol v))
  in
  Array.iter
    (fun (u, v, w) ->
      bump u w;
      bump (-v - 1) w)
    (Tm.flows tm);
  Hashtbl.fold (fun _ w acc -> max acc w) vol 0.0

(* Per-server volume: endpoint volumes divided by attached servers —
   the unit in which the theorem's A2A (itself per-server) guarantees
   t/2. *)
let per_server_volume (topo : Topology.t) tm =
  let hosts = topo.Topology.hosts in
  let vol = Hashtbl.create 64 in
  let bump v w =
    Hashtbl.replace vol v (w +. Option.value ~default:0.0 (Hashtbl.find_opt vol v))
  in
  Array.iter
    (fun (u, v, w) ->
      bump u w;
      bump (-v - 1) w)
    (Tm.flows tm);
  Hashtbl.fold
    (fun key w acc ->
      let node = if key >= 0 then key else -key - 1 in
      let s = float_of_int (max 1 hosts.(node)) in
      max acc (w /. s))
    vol 0.0

let certify ?policy (topo : Topology.t) tm =
  let endpoints = Topology.endpoint_nodes topo in
  let n = Array.length endpoints in
  if n < 2 then invalid_arg "Vlb.certify: too few endpoints";
  let a2a =
    (Tb_harness.Solve.throughput ?policy topo (Synthetic.all_to_all topo))
      .Tb_harness.Solve.estimate
  in
  let volume = per_server_volume topo tm in
  if volume <= 0.0 then invalid_arg "Vlb.certify: empty TM";
  (* Guaranteed throughput for this TM. *)
  let t_vlb = a2a.Mcf.lower /. 2.0 /. volume in
  (* The certified overlay pair (i, j) has capacity
     t_A2A * s_i * s_j / N (the per-server A2A demand at the certified
     throughput). Valiant-splitting each demand proportionally to the
     relay's server count s_j puts
         out_i * s_j / N  +  in_j * s_i / N
     on that pair, so its utilization is
         (out_i / s_i + in_j / s_j) / t_A2A
     which the per-server volume bound caps at 1. We compute it
     explicitly — the executable proof. *)
  let hosts = topo.Topology.hosts in
  let index = Hashtbl.create n in
  Array.iteri (fun i v -> Hashtbl.replace index v i) endpoints;
  let out_total = Array.make n 0.0 and in_total = Array.make n 0.0 in
  Array.iter
    (fun (u, v, w) ->
      let iu = Hashtbl.find index u and iv = Hashtbl.find index v in
      out_total.(iu) <- out_total.(iu) +. (w *. t_vlb);
      in_total.(iv) <- in_total.(iv) +. (w *. t_vlb))
    (Tm.flows tm);
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let si = float_of_int (max 1 hosts.(endpoints.(i))) in
        let sj = float_of_int (max 1 hosts.(endpoints.(j))) in
        let load =
          ((out_total.(i) /. si) +. (in_total.(j) /. sj)) /. a2a.Mcf.lower
        in
        if load > !worst then worst := load
      end
    done
  done;
  {
    a2a_throughput = a2a.Mcf.lower;
    vlb_throughput = t_vlb;
    worst_overlay_load = !worst;
  }
