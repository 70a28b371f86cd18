module Graph = Tb_graph.Graph
module Sssp = Tb_graph.Sssp
module Parallel = Tb_prelude.Parallel
module Metrics = Tb_obs.Metrics
module Trace = Tb_obs.Trace
module Convergence = Tb_obs.Convergence
module A1 = Bigarray.Array1
(* Maximum concurrent flow by multiplicative weights
   (Garg-Konemann / Fleischer FPTAS), with certified bounds.

   This is the workhorse that replaces the paper's Gurobi runs: the
   throughput of (network, traffic matrix) is the optimum of the
   max-concurrent-flow LP, which this solver brackets between a feasible
   primal value and a dual upper bound.

   Mechanics per the classic scheme:
   - every arc carries a length l(a), initially 1/c(a);
   - a "phase" routes each commodity's full demand along (approximately)
     shortest paths under l, multiplying l(a) by (1 + eps * f/c(a)) for
     every push of f across a;
   - commodities sharing a source are routed off one shortest-path tree,
     which is recomputed only when the tree path has grown stale by more
     than a (1 + eps) factor (Fleischer's speedup).

   Certification (instead of the textbook fixed phase count):
   - primal: after [p] completed phases every commodity has been routed
     [p * d_j]; dividing the accumulated arc flow by its worst
     congestion max_a F(a)/c(a) yields a feasible solution with
     lambda >= p / congestion;
   - dual: for any lengths l, lambda* <= D(l) / alpha(l) where
     D(l) = sum_a l(a) c(a) and alpha(l) = sum_j d_j dist_l(s_j, t_j)
     (LP duality for concurrent flow);
   - we stop when upper/lower <= 1 + tol.

   Lengths grow geometrically, so they are renormalized when they become
   large; every quantity used (path choice, D/alpha) is scale-invariant.

   One loop, two oracles. Everything above except "which path is
   shortest" is the same whatever paths a commodity may use, so [run]
   owns it once: the length start and warm-length validation, the
   phase loop, renormalization, both bounds with their snapshots, the
   stall-adaptive step and the stopping rule. A solve supplies an
   [oracle]: the demand pre-scale, one routing phase, and alpha(l).
   [solve] routes off shortest-path trees over the whole graph;
   [solve_paths] takes the argmin over an explicit path pool per
   commodity (routing-scheme studies, Fig. 15).

   Scale. All per-arc state (lengths, flows, snapshots) and per-node
   state (tree distances) lives in Bigarrays — flat, unscanned by the
   GC, shared across domains without copying — and the shortest-path
   workhorse is selected by instance size: the heap [Sssp.dijkstra]
   below [delta_threshold_arcs] arcs (where its constants win),
   delta-stepping with domain-parallel candidate generation above it
   (see {!Tb_graph.Sssp}). The one-off congestion estimate uses Dial buckets
   (its lengths are all-ones by construction). The longest current arc
   length is tracked incrementally so delta-stepping never rescans the
   length array to size its buckets.

   Parallelism: the route phases are inherently sequential (every push
   updates the lengths the next push routes against), but the two
   certification passes — the one-off congestion estimate and the dual
   bound recomputed every [tree_check_every] phases — are read-only over
   the lengths. On small instances they fan out one Dijkstra per source
   group across domains; each group produces a self-contained partial (a
   partial alpha sum, or a packed list of load contributions) and the
   partials are reduced sequentially in group order, so the result is
   bit-identical for any domain count, including the sequential gated
   path. On large instances the group loop runs sequentially and the
   parallelism moves *inside* each delta-stepping traversal, whose
   frozen-scan schedule gives the same any-domain-count guarantee. *)

type result = {
  lower : float; (* certified achievable throughput *)
  upper : float; (* certified upper bound *)
  flow : float array; (* feasible per-arc flow achieving [lower] *)
  lengths : float array; (* dual certificate: upper = D(l)/alpha(l) *)
  phases : int;
}

type workhorse = Auto | Heap_dijkstra | Delta_stepping

(* Arc count at which [Auto] switches the per-source traversals from
   heap Dijkstra to parallel delta-stepping. Chosen so every catalog
   and bench instance below the scale workloads stays on the heap path
   (whose trees, and so trajectories, are a pure function of the
   lengths) while the scale workloads get the bucketed traversal. *)
let delta_threshold_arcs = Sssp.auto_delta_arcs

let value r = 0.5 *. (r.lower +. r.upper)

(* Observability handles, obtained once; increments are plain field
   writes (see Tb_obs.Metrics). [m_dijkstra] shares its name with the
   other Dijkstra-driven solvers so "dijkstra.runs" aggregates across
   the process (delta-stepping/Dial runs count as one "run" each: the
   counter tracks SSSP tree builds, whichever algorithm builds them).
   The path-pool solve keeps its own "restricted.*" names so the two
   oracles' work stays separable in metric dumps. *)
let m_solves = Metrics.counter "fleischer.solves"
let m_phases = Metrics.counter "fleischer.phases"
let m_dijkstra = Metrics.counter "dijkstra.runs"
let t_solve = Metrics.timer "fleischer.solve"
let h_phases = Metrics.hdr "fleischer.phases_per_solve"
let g_lower = Metrics.gauge "fleischer.lower"
let g_upper = Metrics.gauge "fleischer.upper"
let m_pool_solves = Metrics.counter "restricted.solves"
let m_pool_phases = Metrics.counter "restricted.phases"
let t_pool_solve = Metrics.timer "restricted.solve"

(* Step size: larger steps converge in fewer phases and, with the
   certified stopping rule, do not cost accuracy until they approach the
   gap floor; 0.25 measured fastest across the experiment mix. *)
let default_eps = 0.4
let default_tol = 0.03

(* Dual-bound cadence (phases between alpha(l) evaluations) and phase
   caps per oracle. A tree dual pass costs one SSSP per source group,
   a pool pass only a scan of every path, hence the tighter cadence. *)
let tree_check_every = 10
let pool_check_every = 5
let pool_max_phases = 50_000

(* ---- The multiplicative-weights driver. ---- *)

(* Per-arc state an oracle routes against. The refs are read and
   written directly by the oracles' push loops. *)
type state = {
  cap : Graph.floats; (* arc capacities (the graph's own column) *)
  len : Graph.floats; (* current lengths l(a) *)
  flow : Graph.floats; (* flow accumulated over completed phases *)
  max_len : float ref; (* longest current length *)
  eps : float ref; (* current step; the stall rule may halve it *)
}

(* What a solve supplies to [run]. *)
type oracle = {
  sigma : float; (* demand pre-scale: one phase ~ unit congestion *)
  phase : unit -> unit; (* route every pre-scaled demand once *)
  alpha : unit -> float; (* sum_j d_j * (shortest usable l-length) *)
}

(* A warm length function is usable iff it covers every arc with a
   strictly positive finite value: both certified bounds hold for ANY
   positive lengths (the primal counts completed phases, the dual
   D(l)/alpha(l) is LP weak duality), so a warm start can only change
   how fast the bracket closes, never whether it is valid. *)
let warm_usable num_arcs w =
  Array.length w = num_arcs
  && Array.for_all (fun l -> Float.is_finite l && l > 0.0) w

(* Lengths start at 1/c(a), or at a usable warm length function. *)
let start ~eps ?warm_lengths g =
  let num_arcs = Graph.num_arcs g in
  let cap = Graph.ba_arc_caps g in
  let len = Graph.make_floats num_arcs in
  (* Longest current arc length, maintained incrementally: lengths only
     grow between renormalizations, so a max-tracking write per push
     keeps delta-stepping's bucket sizing O(1) per traversal. *)
  let max_len = ref 0.0 in
  let set a l =
    A1.set len a l;
    if l > !max_len then max_len := l
  in
  (match warm_lengths with
  | Some w when warm_usable num_arcs w ->
    (* Rescale so the largest warm length is 1.0: the dual bound is
       scale-invariant and this keeps lengths far from the 1e150
       renormalization ceiling regardless of what the caller saved. *)
    let wmax = Array.fold_left Float.max 0.0 w in
    for a = 0 to num_arcs - 1 do
      set a (w.(a) /. wmax)
    done
  | _ ->
    for a = 0 to num_arcs - 1 do
      set a (1.0 /. A1.get cap a)
    done);
  let flow = Graph.make_floats num_arcs in
  A1.fill flow 0.0;
  { cap; len; flow; max_len; eps = ref eps }

(* Phases until the bracket closes to [tol] or [max_phases] is hit.
   The step size adapts downward when the duality gap stalls: a large
   step closes most of the gap cheaply, a smaller one finishes the
   job. Both bounds are certified for any step schedule (the primal
   counts completed phases; the dual holds for any lengths), so
   adaptation cannot compromise correctness. *)
let run ~label ~m_phases ~check_every ~max_phases ~tol ?deadline ~on_check st
    o =
  (* A deadline is just another observer of the periodic checks: it
     raises Timed_out at the next bound evaluation after expiry. *)
  let on_check =
    match deadline with
    | None -> on_check
    | Some d -> Convergence.combine (Tb_obs.Deadline.sink d) on_check
  in
  let { cap; len; flow; max_len; eps } = st in
  let num_arcs = A1.dim len in
  (* Snapshot of the lengths that achieved [best_upper]: returned as the
     dual certificate, so a checker can re-derive the upper bound from
     the result alone (D(l)/alpha(l) is scale-invariant in [l], hence
     insensitive to renormalization and demand pre-scaling). *)
  let best_len = Graph.make_floats num_arcs in
  A1.blit len best_len;
  let renormalize () =
    let m = ref 0.0 in
    for a = 0 to num_arcs - 1 do
      let l = A1.unsafe_get len a in
      if l > !m then m := l
    done;
    if !m > 1e150 then begin
      let inv = 1.0 /. !m in
      let m' = ref 0.0 in
      for a = 0 to num_arcs - 1 do
        let l = A1.unsafe_get len a *. inv in
        A1.unsafe_set len a l;
        if l > !m' then m' := l
      done;
      max_len := !m'
    end
  in
  let congestion () =
    let w = ref 0.0 in
    for a = 0 to num_arcs - 1 do
      let r = A1.unsafe_get flow a /. A1.unsafe_get cap a in
      if r > !w then w := r
    done;
    !w
  in
  (* Dual bound D(l)/alpha(l) under the *current* lengths. *)
  let dual_bound () =
    let dsum = ref 0.0 in
    for a = 0 to num_arcs - 1 do
      dsum := !dsum +. (A1.unsafe_get len a *. A1.unsafe_get cap a)
    done;
    let alpha = o.alpha () in
    if alpha > 0.0 then !dsum /. alpha else infinity
  in
  let phases = ref 0 in
  let best_lower = ref 0.0 in
  let best_upper = ref infinity in
  let improve_upper () =
    let ub = dual_bound () in
    if ub < !best_upper then begin
      best_upper := ub;
      A1.blit len best_len
    end
  in
  let stall_window = 120 in
  let window_start = ref 0 in
  let window_gap = ref infinity in
  let flow_snapshot = Graph.make_floats num_arcs in
  A1.fill flow_snapshot 0.0;
  let snapshot_scale = ref 0.0 in
  let stop = ref false in
  while not !stop do
    o.phase ();
    incr phases;
    Metrics.incr m_phases;
    renormalize ();
    (* ---- Bounds. ---- *)
    let cong = congestion () in
    if cong > 0.0 then begin
      let lower = float_of_int !phases /. cong in
      if lower > !best_lower then begin
        best_lower := lower;
        A1.blit flow flow_snapshot;
        snapshot_scale := 1.0 /. cong
      end
    end;
    if !phases mod check_every = 0 || !phases = 1 then begin
      improve_upper ();
      Convergence.check on_check ~phase:!phases ~lower:!best_lower
        ~upper:!best_upper ~eps:!eps;
      (* Stall detection: if the gap improved by < 2% relatively since
         the window started, halve the step. *)
      let gap = !best_upper /. max !best_lower 1e-300 in
      if !phases - !window_start >= stall_window then begin
        if gap > !window_gap /. 1.02 && !eps > 0.021 then
          eps := max 0.02 (!eps /. 2.0);
        window_start := !phases;
        window_gap := gap
      end
      else if gap < !window_gap /. 1.02 then begin
        window_start := !phases;
        window_gap := gap
      end
    end;
    if
      !best_upper < infinity
      && !best_lower > 0.0
      && !best_upper /. !best_lower <= 1.0 +. tol
    then stop := true
    else if !phases >= max_phases then begin
      Logs.warn (fun m ->
          m "%s: phase cap %d hit (gap %.3f); result is still bracketed"
            label max_phases
            ((!best_upper /. !best_lower) -. 1.0));
      stop := true
    end
  done;
  (* Final tight dual check. *)
  improve_upper ();
  Convergence.check on_check ~phase:!phases ~lower:!best_lower
    ~upper:!best_upper ~eps:!eps;
  (* Undo the demand pre-scaling: lambda(d) = lambda(d') * sigma. *)
  {
    lower = !best_lower *. o.sigma;
    upper = !best_upper *. o.sigma;
    flow =
      Array.init num_arcs (fun a -> A1.get flow_snapshot a *. !snapshot_scale);
    lengths = Array.init num_arcs (fun a -> A1.get best_len a);
    phases = !phases;
  }

(* ---- Oracle 1: shortest-path trees over the whole graph. ---- *)

(* ---- Scratch-state pool for the parallel certification passes. ----

   Borrow one SSSP state per concurrently running domain; a solve
   allocates at most [domain_count] states however many groups it
   certifies, and the sequential path reuses a single state. *)

type pool = { mutex : Mutex.t; mutable free : Sssp.state list; nodes : int }

let pool_create nodes = { mutex = Mutex.create (); free = []; nodes }

let with_state pool f =
  let borrowed =
    Mutex.protect pool.mutex (fun () ->
        match pool.free with
        | st :: rest ->
          pool.free <- rest;
          Some st
        | [] -> None)
  in
  let st =
    match borrowed with
    | Some st -> st
    | None -> Sssp.create_state pool.nodes
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect pool.mutex (fun () -> pool.free <- st :: pool.free))
    (fun () -> f st)

(* Packed per-group load contributions, built by walking [parent_arc]
   (no per-commodity path list). Grown by doubling. *)
type contrib = {
  mutable c_arcs : int array;
  mutable c_amts : float array;
  mutable c_len : int;
}

let contrib_push c a x =
  let cap = Array.length c.c_arcs in
  if c.c_len = cap then begin
    let arcs = Array.make (2 * cap) 0 and amts = Array.make (2 * cap) 0.0 in
    Array.blit c.c_arcs 0 arcs 0 cap;
    Array.blit c.c_amts 0 amts 0 cap;
    c.c_arcs <- arcs;
    c.c_amts <- amts
  end;
  c.c_arcs.(c.c_len) <- a;
  c.c_amts.(c.c_len) <- x;
  c.c_len <- c.c_len + 1

exception Unreachable_commodity of Commodity.t

(* Load of routing every commodity once along hop-shortest paths,
   ignoring capacities; used to pre-scale demands so that a phase routes
   roughly "one unit of congestion" and the phase count stays O(log m /
   eps^2) regardless of the demand scale. Hop-shortest trees come from
   Dial buckets (unit lengths by definition). On small instances the
   source groups fan out across domains and the per-group contribution
   lists are applied to the load array sequentially in group order
   (deterministic for any domain count); large instances run the groups
   sequentially. The same trees are the reachability check: the
   lowest-index unreached commodity of the first group that has one is
   raised after the map, so the exception names the same commodity for
   any domain count. *)
let congestion_estimate ~big g cs =
  let n = Graph.num_nodes g in
  let num_arcs = Graph.num_arcs g in
  let groups = Commodity.group_by_source ~n cs in
  let pool = pool_create n in
  let run (s, idxs) =
    with_state pool @@ fun st ->
    Metrics.incr m_dijkstra;
    Sssp.dial g ~src:s st;
    let c = { c_arcs = Array.make 64 0; c_amts = Array.make 64 0.0; c_len = 0 } in
    let unreached = ref max_int in
    Array.iter
      (fun j ->
        let d = cs.(j).Commodity.demand in
        let dst = cs.(j).Commodity.dst in
        if not (Sssp.reached st dst) then unreached := min j !unreached;
        (* Walk the tree path dst -> src; unreached leaves nothing. *)
        let v = ref dst in
        let a = ref (Sssp.parent_arc st !v) in
        while !a >= 0 do
          contrib_push c !a d;
          v := Graph.arc_src g !a;
          a := Sssp.parent_arc st !v
        done)
      idxs;
    (c, !unreached)
  in
  let parts = if big then Array.map run groups else Parallel.map_array run groups in
  Array.iter
    (fun (_, j) -> if j < max_int then raise (Unreachable_commodity cs.(j)))
    parts;
  let load = Graph.make_floats num_arcs in
  A1.fill load 0.0;
  Array.iter
    (fun (c, _) ->
      for i = 0 to c.c_len - 1 do
        let a = c.c_arcs.(i) in
        A1.set load a (A1.get load a +. c.c_amts.(i))
      done)
    parts;
  let cap = Graph.ba_arc_caps g in
  let worst = ref 0.0 in
  for a = 0 to num_arcs - 1 do
    let r = A1.get load a /. A1.get cap a in
    if r > !worst then worst := r
  done;
  !worst

let solve ?deadline ?(eps = default_eps) ?(tol = default_tol)
    ?(max_phases = 30_000) ?(on_check = Convergence.tracing "fleischer")
    ?(sssp = Auto) ?warm_lengths g commodities =
  let cs = Commodity.normalize commodities in
  if Array.length cs = 0 then
    invalid_arg "Fleischer.solve: no non-trivial commodities";
  let n = Graph.num_nodes g in
  let num_arcs = Graph.num_arcs g in
  let use_delta =
    match sssp with
    | Auto -> num_arcs >= delta_threshold_arcs
    | Heap_dijkstra -> false
    | Delta_stepping -> true
  in
  let k = Array.length cs in
  Metrics.incr m_solves;
  Metrics.time t_solve @@ fun () ->
  Trace.span "fleischer.solve"
    ~args:[ ("commodities", Tb_obs.Json.Int k); ("arcs", Tb_obs.Json.Int num_arcs) ]
  @@ fun () ->
  (* Pre-scale demands so one phase ~ unit congestion. *)
  let sigma =
    let est = congestion_estimate ~big:use_delta g cs in
    if est > 0.0 then 1.0 /. est else 1.0
  in
  let demand = Array.map (fun c -> c.Commodity.demand *. sigma) cs in
  let state = start ~eps ?warm_lengths g in
  let { cap; len; flow; max_len; eps } = state in
  let groups = Commodity.group_by_source ~n cs in
  let st = Sssp.create_state n in
  let pool = pool_create n in
  (* Scratch: current tree distance per destination, per active source. *)
  let dist_at_tree = Graph.make_floats n in
  A1.fill dist_at_tree infinity;
  let sssp_tree ?target ~src st =
    Metrics.incr m_dijkstra;
    if use_delta then
      Sssp.delta_stepping ?target ~max_len:!max_len ~parallel:true g ~len ~src st
    else Sssp.dijkstra ?target g ~len ~src st
  in
  (* alpha(l): one SSSP per source group; each group's partial is
     summed within the group in commodity order and the partials are
     folded in group order, so the bound is bit-identical regardless of
     the domain count (the lengths are read-only during the pass). *)
  let alpha () =
    let run (s, idxs) =
      with_state pool @@ fun st ->
      sssp_tree ~src:s st;
      let acc = ref 0.0 in
      Array.iter
        (fun j ->
          acc := !acc +. (demand.(j) *. Sssp.distance st cs.(j).Commodity.dst))
        idxs;
      !acc
    in
    let parts =
      if use_delta then Array.map run groups else Parallel.map_array run groups
    in
    Array.fold_left ( +. ) 0.0 parts
  in
  (* Route [remaining] units from the current tree of [st] toward [t]:
     walk parent arcs to measure current length and bottleneck (no
     allocation), then either push or report the tree stale. *)
  let rec route_on_tree ~src ~dst remaining =
    if remaining > 1e-15 then begin
      let cur_len = ref 0.0 and bottleneck = ref infinity in
      let v = ref dst in
      while !v <> src do
        let a = Sssp.parent_arc st !v in
        if a < 0 then failwith "Fleischer: lost reachability";
        cur_len := !cur_len +. A1.unsafe_get len a;
        let c = A1.unsafe_get cap a in
        if c < !bottleneck then bottleneck := c;
        v := Graph.arc_src g a
      done;
      if !cur_len > ((1.0 +. !eps) *. A1.get dist_at_tree dst) +. 1e-300 then
        remaining (* stale: caller refreshes and retries *)
      else begin
        let f = min remaining !bottleneck in
        let v = ref dst in
        while !v <> src do
          let a = Sssp.parent_arc st !v in
          A1.unsafe_set flow a (A1.unsafe_get flow a +. f);
          let l =
            A1.unsafe_get len a *. (1.0 +. (!eps *. f /. A1.unsafe_get cap a))
          in
          A1.unsafe_set len a l;
          if l > !max_len then max_len := l;
          v := Graph.arc_src g a
        done;
        route_on_tree ~src ~dst (remaining -. f)
      end
    end
    else 0.0
  in
  (* One phase: route every commodity's full demand. *)
  let phase () =
    Array.iter
      (fun (s, idxs) ->
        (* Single-destination sources (matching TMs) afford an early-exit
           SSSP. *)
        let target =
          if Array.length idxs = 1 then Some cs.(idxs.(0)).Commodity.dst
          else None
        in
        let refresh () =
          sssp_tree ?target ~src:s st;
          match target with
          | Some t -> A1.set dist_at_tree t (Sssp.distance st t)
          | None ->
            for v = 0 to n - 1 do
              A1.unsafe_set dist_at_tree v (Sssp.distance st v)
            done
        in
        refresh ();
        Array.iter
          (fun j ->
            let dst = cs.(j).Commodity.dst in
            let remaining = ref demand.(j) in
            while !remaining > 1e-15 do
              remaining := route_on_tree ~src:s ~dst !remaining;
              if !remaining > 1e-15 then refresh ()
            done)
          idxs)
      groups
  in
  let on_check =
    Convergence.combine on_check (fun _ ->
        Trace.counter "dijkstra"
          [ ("runs", float_of_int (Metrics.count m_dijkstra)) ])
  in
  let r =
    run ~label:"Fleischer" ~m_phases ~check_every:tree_check_every ~max_phases
      ~tol ?deadline ~on_check state { sigma; phase; alpha }
  in
  Metrics.observe_hdr h_phases (float_of_int r.phases);
  Metrics.set g_lower r.lower;
  Metrics.set g_upper r.upper;
  r

(* ---- Oracle 2: argmin over an explicit path pool. ----

   Each commodity may only use its listed paths (arc lists). This
   replicates routing-scheme studies: the Fig. 15 comparison computes
   exact LP throughput restricted to LLSKR's path choices. The shortest
   path oracle degenerates to a min over the commodity's pool, so no
   SSSP runs and phases stay cheap even with thousands of
   commodities. *)

type spec = { commodity : Commodity.t; paths : int list array }

let path_length (len : Graph.floats) p =
  let s = ref 0.0 in
  for i = 0 to Array.length p - 1 do
    s := !s +. A1.get len p.(i)
  done;
  !s

(* Index of the first shortest path of [pool]. *)
let shortest (len : Graph.floats) pool =
  let best = ref 0 and best_len = ref infinity in
  for i = 0 to Array.length pool - 1 do
    let l = path_length len pool.(i) in
    if l < !best_len then begin
      best_len := l;
      best := i
    end
  done;
  !best

let solve_paths ?deadline ?(eps = 0.07) ?(tol = 0.03)
    ?(on_check = Convergence.tracing "restricted") ?warm_lengths g specs =
  let specs =
    Array.of_list
      (List.filter
         (fun s ->
           s.commodity.Commodity.demand > 0.0
           && s.commodity.Commodity.src <> s.commodity.Commodity.dst)
         (Array.to_list specs))
  in
  if Array.length specs = 0 then
    invalid_arg "Fleischer.solve_paths: no commodities";
  Array.iter
    (fun s ->
      if Array.length s.paths = 0 then
        invalid_arg "Fleischer.solve_paths: commodity with empty path set")
    specs;
  Metrics.incr m_pool_solves;
  Metrics.time t_pool_solve @@ fun () ->
  Trace.span "restricted.solve"
    ~args:[ ("commodities", Tb_obs.Json.Int (Array.length specs)) ]
  @@ fun () ->
  let num_arcs = Graph.num_arcs g in
  let pools = Array.map (fun s -> Array.map Array.of_list s.paths) specs in
  let state = start ~eps ?warm_lengths g in
  let { cap; len; flow; eps; _ } = state in
  (* Pre-scale demands: route once along first paths. *)
  let sigma =
    let load = Array.make num_arcs 0.0 in
    Array.iteri
      (fun j s ->
        Array.iter
          (fun a -> load.(a) <- load.(a) +. s.commodity.Commodity.demand)
          pools.(j).(0))
      specs;
    let worst = ref 0.0 in
    for a = 0 to num_arcs - 1 do
      let r = load.(a) /. A1.get cap a in
      if r > !worst then worst := r
    done;
    if !worst > 0.0 then 1.0 /. !worst else 1.0
  in
  let demand =
    Array.map (fun s -> s.commodity.Commodity.demand *. sigma) specs
  in
  let phase () =
    for j = 0 to Array.length pools - 1 do
      let remaining = ref demand.(j) in
      while !remaining > 1e-15 do
        let p = pools.(j).(shortest len pools.(j)) in
        let bottleneck = ref infinity in
        for x = 0 to Array.length p - 1 do
          let c = A1.get cap p.(x) in
          if c < !bottleneck then bottleneck := c
        done;
        let f = min !remaining !bottleneck in
        for x = 0 to Array.length p - 1 do
          let a = p.(x) in
          A1.set flow a (A1.get flow a +. f);
          A1.set len a (A1.get len a *. (1.0 +. (!eps *. f /. A1.get cap a)))
        done;
        remaining := !remaining -. f
      done
    done
  in
  let alpha () =
    let alpha = ref 0.0 in
    for j = 0 to Array.length pools - 1 do
      let pool = pools.(j) in
      alpha := !alpha +. (demand.(j) *. path_length len pool.(shortest len pool))
    done;
    !alpha
  in
  run ~label:"Fleischer.solve_paths" ~m_phases:m_pool_phases
    ~check_every:pool_check_every ~max_phases:pool_max_phases ~tol ?deadline
    ~on_check state { sigma; phase; alpha }
