(** The bracketed throughput estimate every solve path returns (see
    {!Tb_harness.Solve} for the one entry point that produces it). *)

type estimate = {
  value : float; (** point estimate (bracket midpoint) *)
  lower : float;
  upper : float;
}
