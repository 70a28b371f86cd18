(* The bracketed throughput estimate shared by every solve path; the
   solving itself lives in Tb_harness.Solve. *)

type estimate = {
  value : float; (* point estimate: midpoint of [lower, upper] *)
  lower : float;
  upper : float;
}
