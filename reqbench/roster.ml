(* Seeded request rosters, one per workload.

   A roster is the ordered list of certified-throughput requests one
   pass of a workload replays. It is a pure function of the workload
   and the seed: the seed draws instance sizes, the seeds of randomized
   constructions and TMs, failure patterns and the request order, and
   nothing else. The program only ever sees the generated inputs. *)

module Catalog = Tb_topo.Catalog
module Rng = Tb_prelude.Rng
module Request = Tb_service.Request
module Tm = Tb_tm.Tm

type workload = Grid_fptas | Scale_sparse | Exact_cuts | Failure_sweep

let all = [ Grid_fptas; Scale_sparse; Exact_cuts; Failure_sweep ]

let name = function
  | Grid_fptas -> "grid-fptas"
  | Scale_sparse -> "scale-sparse"
  | Exact_cuts -> "exact-cuts"
  | Failure_sweep -> "failure-sweep"

let of_name s = List.find_opt (fun w -> name w = s) all

(* Where a request's demands come from: a named TM built by the program
   ([Request.build_named_tm]), or a seeded sparse demand set drawn here
   over the instance's switches. *)
type tm = Named of string | Sparse of (int * int * float) array

type kind =
  | Fptas  (** FPTAS-only harness solve *)
  | Exact_cut  (** exact rung, paired with its sparse-cut estimate *)
  | Sweep of { rate : float; fail_seed : int; k : int }
      (** one failure-sweep cell: fail links at [rate], solve warm
          through the harness, then under k-shortest-path routing *)

type req = {
  id : int;  (** position in the roster *)
  spec : Catalog.spec;
  tm : tm;
  tm_seed : int;
  kind : kind;
  tol : float;  (** certified relative gap requested of the FPTAS *)
}

(* A roster is [rounds] rounds of [round] requests each. Every round
   draws fresh seeded inputs (TM permutations, random graphs, demand
   sets, failure patterns), so a run samples many distinct requests
   rather than repeating a few: that is what keeps its medians steady
   from seed to seed. *)
type t = { workload : workload; seed : int; round : int; reqs : req array }

(* ---- Per-workload parameters. ---- *)

(* grid-fptas: the ten families of Figs 4/10 at mid sizes (every graph
   below the 32,768-arc delta-stepping threshold). Families with coarse
   size steps run at fixed sizes; Jellyfish, whose cost moves smoothly
   with its size, runs at [grid_jellyfish] sizes drawn from the seed.
   Keeping the roster's cost mix the same from seed to seed is what
   keeps the end-to-end figures steady across seeds. *)
let grid_specs =
  [
    "bcube:6"; "bcube:7"; "dcell:6"; "dcell:7"; "dragonfly:2"; "fattree:6";
    "fattree:8"; "flatbf:5"; "flatbf:6"; "hypercube:5"; "hyperx:64"; "hyperx:96";
    "longhop:5"; "slimfly:5";
  ]

let grid_jellyfish = 3
let grid_jellyfish_sizes = (40, 48)

let grid_tms = [ "a2a"; "rm1"; "lm" ]
let grid_tol = 0.05
(* Every FPTAS solve runs at the harness's default step size. *)
let fptas_eps = Tb_harness.Solve.default_policy.Tb_harness.Solve.eps

(* scale-sparse: instances at or above the delta-stepping threshold,
   each with [scale_pairs] seeded switch-to-switch unit demands. *)
let scale_specs = [ "fattree:32"; "xpander:128,deg=16"; "jellyfish:2048,deg=16" ]
let scale_pairs = 4
let scale_tol = 0.3

(* exact-cuts: small instances whose LP fits the exact rung, under the
   three TMs the exact rung affords (a2a solves take seconds each).
   Instances are chosen so request costs stay within about 10-300 ms:
   the narrower the cost spread, the steadier the median from seed to
   seed. Smaller instances (hypercube:3, bcube:2, ... at 0.1-6 ms)
   would put the median in a gap, and hypercube:4, bcube:4, dcell:4 or
   longhop:4 (0.5-7 s a request) would dominate the run. Random graphs
   stay out: Jellyfish instances of 10-12 switches ranged from 9 to
   415 ms a request, which moved the run's percentiles by a tenth from
   seed to seed. The seed draws the TMs and the order. *)
let exact_specs = [ "hyperx:24"; "flatbf:3"; "longhop:3"; "bcube:3"; "dcell:3"; "fattree:4" ]

let exact_tms = [ "lm"; "rm1"; "kodialam" ]

(* failure-sweep: neighbouring cells of a link-failure sweep on
   mid-size topologies, ordered by increasing rate per topology so the
   warm cache chains each cell to its neighbour. *)
let sweep_specs = [ "hypercube:5"; "jellyfish:24,deg=5"; "fattree:6"; "longhop:5" ]
let sweep_rates = [ 0.0; 0.05; 0.1; 0.15; 0.2 ]
let sweep_tms = [ "a2a"; "rm1" ]
let sweep_k = 4
let sweep_tol = 0.1

(* ---- Generation. ---- *)

let spec_of s =
  match Catalog.spec_of_string s with
  | Ok sp -> sp
  | Error e -> invalid_arg ("Roster: " ^ e)

(* Randomized constructions take their seed from the roster stream;
   deterministic families keep the catalog default so the same size
   names the same instance in every roster. *)
let randomized sp = sp.Catalog.family = "jellyfish" || sp.Catalog.family = "xpander"

let reseed rng sp =
  if randomized sp then { sp with Catalog.seed = Rng.int rng 1_000_000 } else sp

(* Switch count of a scale instance, from the catalog's closed-form
   estimate (every scale family has one). *)
let switches sp =
  match Catalog.estimate sp with
  | Some e -> e.Catalog.nodes
  | None -> invalid_arg "Roster: scale spec without a size estimate"

let sparse_flows rng ~pairs n =
  let seen = Hashtbl.create (2 * pairs) in
  let out = ref [] in
  while Hashtbl.length seen < pairs do
    let s = Rng.int rng n and t = Rng.int rng n in
    if s <> t && not (Hashtbl.mem seen (s, t)) then begin
      Hashtbl.add seen (s, t) ();
      out := (s, t, 1.0) :: !out
    end
  done;
  Array.of_list (List.rev !out)

(* [k] sizes in [lo, hi], one drawn from each of [k] consecutive equal
   slices of the range, so every round spans the whole range. *)
let stratified rng ~k (lo, hi) =
  List.init k (fun i ->
      let a = lo + (i * (hi - lo + 1) / k) and b = lo + ((i + 1) * (hi - lo + 1) / k) - 1 in
      Rng.int_range rng a b)

let grid rng =
  let jellyfish =
    List.map (Printf.sprintf "jellyfish:%d,deg=6")
      (stratified rng ~k:grid_jellyfish grid_jellyfish_sizes)
  in
  let reqs =
    List.concat_map
      (fun s ->
        let sp = reseed rng (spec_of s) in
        let tm_seed = Rng.int rng 1_000_000 in
        List.map (fun tm -> (sp, Named tm, tm_seed, Fptas, grid_tol)) grid_tms)
      (grid_specs @ jellyfish)
  in
  Rng.shuffle rng (Array.of_list reqs)

let scale rng =
  Array.of_list
    (List.map
       (fun s ->
         let sp = reseed rng (spec_of s) in
         let flows = sparse_flows rng ~pairs:scale_pairs (switches sp) in
         (sp, Sparse flows, 0, Fptas, scale_tol))
       scale_specs)

let exact rng =
  let reqs =
    List.concat_map
      (fun s ->
        let sp = spec_of s in
        let tm_seed = Rng.int rng 1_000_000 in
        List.map (fun tm -> (sp, Named tm, tm_seed, Exact_cut, 0.0)) exact_tms)
      exact_specs
  in
  Rng.shuffle rng (Array.of_list reqs)

let sweep rng =
  let topo_order = Rng.shuffle rng (Array.of_list sweep_specs) in
  Array.of_list
    (List.concat_map
       (fun s ->
         let sp = reseed rng (spec_of s) in
         List.concat_map
           (fun tm ->
             let tm_seed = Rng.int rng 1_000_000 in
             let fail_seed = Rng.int rng 1_000_000 in
             List.map
               (fun rate ->
                 ( sp,
                   Named tm,
                   tm_seed,
                   Sweep { rate; fail_seed; k = sweep_k },
                   sweep_tol ))
               sweep_rates)
           sweep_tms)
       (Array.to_list topo_order))

(* Rounds per roster: more than a 25 s timed run gets through. *)
let rounds = function
  | Grid_fptas | Scale_sparse -> 16
  | Failure_sweep -> 32
  | Exact_cuts -> 48

let make workload seed =
  let rng = Rng.make (Hashtbl.hash (name workload, seed)) in
  let gen =
    match workload with
    | Grid_fptas -> grid
    | Scale_sparse -> scale
    | Exact_cuts -> exact
    | Failure_sweep -> sweep
  in
  let per_round = List.init (rounds workload) (fun i -> gen (Rng.split rng i)) in
  let raw = Array.concat per_round in
  let reqs =
    Array.mapi
      (fun id (spec, tm, tm_seed, kind, tol) ->
        { id; spec; tm; tm_seed; kind; tol })
      raw
  in
  { workload; seed; round = Array.length (List.hd per_round); reqs }

(* Rounds [from] to [from + count - 1], clipped to the roster. *)
let round_range t ~from ~count =
  let n = Array.length t.reqs in
  let a = min n (from * t.round) in
  { t with reqs = Array.sub t.reqs a (min n ((from + count) * t.round) - a) }

let round_count t = Array.length t.reqs / t.round
let first_round t = round_range t ~from:0 ~count:1

(* The fixed request each set-up round runs before timing starts: the
   same entry points as the workload's requests, on one instance that
   does not depend on the seed, sized to a few hundred milliseconds so
   the set-up time is long enough to measure steadily. *)
let warmup workload =
  let spec, tm, kind, tol =
    match workload with
    | Grid_fptas -> ("jellyfish:40,deg=6", Named "lm", Fptas, grid_tol)
    | Scale_sparse ->
      let sp = spec_of "fattree:16" in
      ( "fattree:16",
        Sparse (sparse_flows (Rng.make 7) ~pairs:scale_pairs (switches sp)),
        Fptas,
        scale_tol )
    | Exact_cuts -> ("fattree:4", Named "lm", Exact_cut, 0.0)
    | Failure_sweep ->
      ("longhop:5", Named "rm1", Sweep { rate = 0.1; fail_seed = 7; k = sweep_k }, sweep_tol)
  in
  { id = -1; spec = spec_of spec; tm; tm_seed = 7; kind; tol }

(* ---- Canonical form. ---- *)

let solver_of r =
  match r.kind with Exact_cut -> Request.Exact_lp | Fptas | Sweep _ -> Request.Fptas

(* The service request a roster entry corresponds to, so the roster
   hashes through the program's own canonical serialization. Sparse
   demand sets travel inline in the TM file format. *)
let service_request r =
  let tm =
    match r.tm with
    | Named n -> Request.Named n
    | Sparse flows -> Request.Inline_tm (Tb_tm.Io.to_string (Tm.make ~label:"sparse" flows))
  in
  Request.make ~solver:(solver_of r) ~eps:fptas_eps ~tol:r.tol ~seed:r.tm_seed
    ~topo:(Request.Spec r.spec) ~tm ()

let canonical_line r =
  let extra =
    match r.kind with
    | Sweep { rate; fail_seed; k } ->
      Printf.sprintf "|sweep rate=%g fail_seed=%d ksp=%d" rate fail_seed k
    | Exact_cut -> "|cuts"
    | Fptas -> ""
  in
  Request.canonical_bytes (service_request r) ^ extra

let hash t =
  let b = Buffer.create 4096 in
  Array.iter
    (fun r ->
      Buffer.add_string b (canonical_line r);
      Buffer.add_char b '\n')
    t.reqs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let tm_name r = match r.tm with Named n -> n | Sparse f -> Printf.sprintf "sparse%d" (Array.length f)

let describe r =
  let kind =
    match r.kind with
    | Fptas -> "fptas"
    | Exact_cut -> "exact+cuts"
    | Sweep { rate; k; _ } -> Printf.sprintf "sweep rate=%.2f ksp=%d" rate k
  in
  Printf.sprintf "#%d %s %s %s" r.id (Catalog.spec_to_string r.spec) (tm_name r) kind
