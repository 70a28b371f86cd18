module Graph = Tb_graph.Graph
(* Path-restricted maximum concurrent flow.

   Same multiplicative-weights scheme as {!Fleischer}, but each commodity
   may only use an explicit set of paths (arc lists). This replicates
   routing-scheme studies: the Fig. 15 comparison computes exact LP
   throughput restricted to LLSKR's path choices. The "shortest path
   oracle" degenerates to a min over the commodity's path set, so no
   Dijkstra is needed and phases are cheap even with thousands of
   commodities. *)

type spec = { commodity : Commodity.t; paths : int list array }

type result = { lower : float; upper : float; phases : int }

let path_length len arcs = List.fold_left (fun s a -> s +. len.(a)) 0.0 arcs

module Metrics = Tb_obs.Metrics
module Trace = Tb_obs.Trace
module Convergence = Tb_obs.Convergence

let m_solves = Metrics.counter "restricted.solves"
let m_phases = Metrics.counter "restricted.phases"
let t_solve = Metrics.timer "restricted.solve"

let solve ?deadline ?(eps = 0.07) ?(tol = 0.03) ?(max_phases = 50_000)
    ?(on_check = Convergence.tracing "restricted") ?warm_lengths g specs =
  let on_check =
    match deadline with
    | None -> on_check
    | Some d -> Convergence.combine (Tb_obs.Deadline.sink d) on_check
  in
  let specs =
    Array.of_list
      (List.filter
         (fun s ->
           s.commodity.Commodity.demand > 0.0
           && s.commodity.Commodity.src <> s.commodity.Commodity.dst)
         (Array.to_list specs))
  in
  if Array.length specs = 0 then invalid_arg "Restricted.solve: no commodities";
  Array.iter
    (fun s ->
      if Array.length s.paths = 0 then
        invalid_arg "Restricted.solve: commodity with empty path set")
    specs;
  Metrics.incr m_solves;
  Metrics.time t_solve @@ fun () ->
  Trace.span "restricted.solve"
    ~args:[ ("commodities", Tb_obs.Json.Int (Array.length specs)) ]
  @@ fun () ->
  let num_arcs = Graph.num_arcs g in
  (* Read-only alias of the graph's per-arc capacity column. *)
  let cap = Graph.ba_arc_caps g in
  let len = Array.init num_arcs (fun a -> 1.0 /. cap.{a}) in
  (* Same warm-start contract as {!Fleischer.solve}: both bounds hold
     for any positive lengths, so a usable warm length function only
     accelerates convergence. Rescaled so max = 1.0 to stay clear of
     the renormalization ceiling. *)
  (match warm_lengths with
  | Some w
    when Array.length w = num_arcs
         && Array.for_all (fun l -> Float.is_finite l && l > 0.0) w ->
    let wmax = Array.fold_left Float.max 0.0 w in
    for a = 0 to num_arcs - 1 do
      len.(a) <- w.(a) /. wmax
    done
  | _ -> ());
  let flow = Array.make num_arcs 0.0 in
  (* Pre-scale demands: route once along first paths. *)
  let sigma =
    let load = Array.make num_arcs 0.0 in
    Array.iter
      (fun s ->
        List.iter
          (fun a -> load.(a) <- load.(a) +. s.commodity.Commodity.demand)
          s.paths.(0))
      specs;
    let worst = ref 0.0 in
    for a = 0 to num_arcs - 1 do
      let r = load.(a) /. cap.{a} in
      if r > !worst then worst := r
    done;
    if !worst > 0.0 then 1.0 /. !worst else 1.0
  in
  let demand =
    Array.map (fun s -> s.commodity.Commodity.demand *. sigma) specs
  in
  let shortest_of j =
    let best = ref 0 and best_len = ref infinity in
    Array.iteri
      (fun i p ->
        let l = path_length len p in
        if l < !best_len then begin
          best_len := l;
          best := i
        end)
      specs.(j).paths;
    (!best, !best_len)
  in
  let congestion () =
    let w = ref 0.0 in
    for a = 0 to num_arcs - 1 do
      let r = flow.(a) /. cap.{a} in
      if r > !w then w := r
    done;
    !w
  in
  let dual_bound () =
    let dsum = ref 0.0 in
    for a = 0 to num_arcs - 1 do
      dsum := !dsum +. (len.(a) *. cap.{a})
    done;
    let alpha = ref 0.0 in
    Array.iteri
      (fun j _ ->
        let _, l = shortest_of j in
        alpha := !alpha +. (demand.(j) *. l))
      specs;
    if !alpha > 0.0 then !dsum /. !alpha else infinity
  in
  let renormalize () =
    let m = ref 0.0 in
    Array.iter (fun l -> if l > !m then m := l) len;
    if !m > 1e150 then begin
      let inv = 1.0 /. !m in
      for a = 0 to num_arcs - 1 do
        len.(a) <- len.(a) *. inv
      done
    end
  in
  let phases = ref 0 in
  let best_lower = ref 0.0 and best_upper = ref infinity in
  let stop = ref false in
  while not !stop do
    Array.iteri
      (fun j _ ->
        let remaining = ref demand.(j) in
        while !remaining > 1e-15 do
          let i, _ = shortest_of j in
          let p = specs.(j).paths.(i) in
          let bottleneck =
            List.fold_left (fun b a -> min b cap.{a}) infinity p
          in
          let f = min !remaining bottleneck in
          List.iter
            (fun a ->
              flow.(a) <- flow.(a) +. f;
              len.(a) <- len.(a) *. (1.0 +. (eps *. f /. cap.{a})))
            p;
          remaining := !remaining -. f
        done)
      specs;
    incr phases;
    Metrics.incr m_phases;
    renormalize ();
    let cong = congestion () in
    if cong > 0.0 then begin
      let lower = float_of_int !phases /. cong in
      if lower > !best_lower then best_lower := lower
    end;
    if !phases mod 5 = 0 || !phases = 1 then begin
      let ub = dual_bound () in
      if ub < !best_upper then best_upper := ub;
      Convergence.check on_check ~phase:!phases ~lower:!best_lower
        ~upper:!best_upper ~eps
    end;
    if
      !best_upper < infinity
      && !best_lower > 0.0
      && !best_upper /. !best_lower <= 1.0 +. tol
    then stop := true
    else if !phases >= max_phases then begin
      Logs.warn (fun m -> m "Restricted: phase cap hit");
      stop := true
    end
  done;
  let ub = dual_bound () in
  if ub < !best_upper then best_upper := ub;
  Convergence.check on_check ~phase:!phases ~lower:!best_lower
    ~upper:!best_upper ~eps;
  {
    lower = !best_lower *. sigma;
    upper = !best_upper *. sigma;
    phases = !phases;
  }
