module Graph = Tb_graph.Graph
module Json = Tb_obs.Json

(* Warm-start state carried between neighboring solves of a sweep.

   An entry is the reusable part of a finished solve: the dual length
   function (per arc) and optionally a path pool (per commodity). Both
   are keyed by NODE identity — arc lengths by (src, dst) endpoints,
   paths as node sequences — because arc ids are renumbered whenever a
   failed topology is rebuilt, while node ids are stable across link
   failures. Transport back onto a concrete graph ({!lengths_for},
   {!paths_for}) re-resolves against that graph's arcs; anything that
   no longer maps (an arc of a deleted edge, a path through one) is
   dropped or back-filled, which is exactly the invalidation the
   warm-start contract needs: the consumers ({!Tb_flow.Fleischer}'s
   tree and path-pool solves, {!Tb_flow.Colgen}) treat warm input as a hint
   that may only change convergence speed, and the harness re-certifies
   every warm-started bracket, so a stale entry can cost time, never
   correctness.

   The cache is a small bounded FIFO keyed by caller-chosen strings
   (e.g. the intact topology label): a sweep's neighboring cells share
   a key, unrelated topologies do not evict each other until capacity
   forces it. [to_json]/[restore] round-trip the whole cache through
   the checkpoint's [extra] slot so a killed-and-resumed warm sweep
   sees exactly the state of the uninterrupted run (Json floats
   round-trip bit-exactly). *)

type entry = {
  nodes : int;  (* node count of the graph the entry came from *)
  lengths : ((int * int) * float) list;
  paths : ((int * int) * int list list) list;
}

type t = {
  capacity : int;
  tbl : (string, entry) Hashtbl.t;
  mutable order : string list; (* reverse insertion order *)
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 32) () =
  {
    capacity = max 1 capacity;
    tbl = Hashtbl.create 16;
    order = [];
    hits = 0;
    misses = 0;
  }

let size t = Hashtbl.length t.tbl
let hits t = t.hits
let misses t = t.misses

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
    t.hits <- t.hits + 1;
    Some e
  | None ->
    t.misses <- t.misses + 1;
    None

let store t key entry =
  if not (Hashtbl.mem t.tbl key) then begin
    if Hashtbl.length t.tbl >= t.capacity then begin
      (* Evict the oldest entry: last element of the reverse-insertion
         order. Capacity is small, the O(n) tail walk is fine. *)
      match List.rev t.order with
      | oldest :: rest_rev ->
        Hashtbl.remove t.tbl oldest;
        t.order <- List.rev rest_rev
      | [] -> ()
    end;
    t.order <- key :: t.order
  end;
  Hashtbl.replace t.tbl key entry

(* ---- building entries ---------------------------------------------- *)

let entry_of_lengths ?(paths = []) g lengths =
  let num_arcs = Graph.num_arcs g in
  if Array.length lengths <> num_arcs then
    invalid_arg "Warm.entry_of_lengths: length array does not match graph";
  let acc = ref [] in
  for a = num_arcs - 1 downto 0 do
    acc := (Graph.arc_endpoints g a, lengths.(a)) :: !acc
  done;
  { nodes = Graph.num_nodes g; lengths = !acc; paths }

let nodes_of_arc_path g ~src arcs =
  List.rev
    (List.fold_left (fun acc a -> Graph.arc_dst g a :: acc) [ src ] arcs)

(* ---- transport onto a concrete graph ------------------------------- *)

let lengths_for e g =
  if Graph.num_nodes g <> e.nodes || e.lengths = [] then None
  else begin
    let max_l =
      List.fold_left
        (fun m (_, l) -> if Float.is_finite l && l > m then l else m)
        0.0 e.lengths
    in
    if max_l <= 0.0 then None
    else begin
      let tbl = Hashtbl.create (List.length e.lengths) in
      List.iter (fun (k, l) -> Hashtbl.replace tbl k l) e.lengths;
      let num_arcs = Graph.num_arcs g in
      let missing = ref 0 in
      let out =
        Array.init num_arcs (fun a ->
            match Hashtbl.find_opt tbl (Graph.arc_endpoints g a) with
            | Some l when Float.is_finite l && l > 0.0 -> l
            | _ ->
              (* Unknown arc: start it at the most expensive known
                 length — conservative, since lengths only grow. *)
              incr missing;
              max_l)
      in
      (* A majority-unknown graph shares too little structure for the
         hint to help; let the solver start cold instead. *)
      if 2 * !missing > num_arcs then None else Some out
    end
  end

let arc_between g u v =
  let found = ref (-1) in
  Graph.iter_succ (fun w arc -> if w = v && !found = -1 then found := arc) g u;
  if !found = -1 then None else Some !found

let arcs_of_node_path g nodes =
  let n = Graph.num_nodes g in
  match nodes with
  | [] | [ _ ] -> None
  | n0 :: rest ->
    if n0 < 0 || n0 >= n then None
    else
      let rec go u acc = function
        | [] -> Some (List.rev acc)
        | v :: tl ->
          if v < 0 || v >= n then None
          else (
            match arc_between g u v with
            | Some a -> go v (a :: acc) tl
            | None -> None)
      in
      go n0 [] rest

let paths_for e g =
  if Graph.num_nodes g <> e.nodes then []
  else
    List.filter_map
      (fun ((s, d), ps) ->
        match List.filter_map (arcs_of_node_path g) ps with
        | [] -> None
        | arcs -> Some ((s, d), arcs))
      e.paths

(* ---- JSON round-trip ----------------------------------------------- *)

let entry_to_json e =
  Json.Obj
    [
      ("nodes", Json.Int e.nodes);
      ( "lengths",
        Json.List
          (List.map
             (fun ((u, v), l) ->
               Json.List [ Json.Int u; Json.Int v; Json.Float l ])
             e.lengths) );
      ( "paths",
        Json.List
          (List.map
             (fun ((s, d), ps) ->
               Json.List
                 [
                   Json.Int s;
                   Json.Int d;
                   Json.List
                     (List.map
                        (fun p ->
                          Json.List (List.map (fun n -> Json.Int n) p))
                        ps);
                 ])
             e.paths) );
    ]

let entry_of_json j =
  let ( let* ) = Option.bind in
  let* nodes = Option.bind (Json.member "nodes" j) Json.to_int in
  let* raw_lengths = Option.bind (Json.member "lengths" j) Json.to_list in
  let* lengths =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        match Json.to_list item with
        | Some [ u; v; l ] ->
          let* u = Json.to_int u in
          let* v = Json.to_int v in
          let* l = Json.to_float l in
          Some (((u, v), l) :: acc)
        | _ -> None)
      (Some []) raw_lengths
  in
  let node_list p =
    let* ns = Json.to_list p in
    List.fold_left
      (fun acc n ->
        let* acc = acc in
        let* n = Json.to_int n in
        Some (n :: acc))
      (Some []) ns
    |> Option.map List.rev
  in
  let* raw_paths = Option.bind (Json.member "paths" j) Json.to_list in
  let* paths =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        match Json.to_list item with
        | Some [ s; d; ps ] ->
          let* s = Json.to_int s in
          let* d = Json.to_int d in
          let* ps = Json.to_list ps in
          let* ps =
            List.fold_left
              (fun acc p ->
                let* acc = acc in
                let* p = node_list p in
                Some (p :: acc))
              (Some []) ps
          in
          Some (((s, d), List.rev ps) :: acc)
        | _ -> None)
      (Some []) raw_paths
  in
  Some { nodes; lengths = List.rev lengths; paths = List.rev paths }

let to_json t =
  Json.Obj
    [
      ("version", Json.Int 1);
      ( "entries",
        Json.Obj
          (List.rev_map
             (fun k -> (k, entry_to_json (Hashtbl.find t.tbl k)))
             t.order) );
    ]

let restore t j =
  match (Json.member "version" j, Json.member "entries" j) with
  | Some (Json.Int 1), Some (Json.Obj entries) ->
    let parsed =
      List.filter_map
        (fun (k, ej) -> Option.map (fun e -> (k, e)) (entry_of_json ej))
        entries
    in
    Hashtbl.reset t.tbl;
    t.order <- [];
    List.iter (fun (k, e) -> store t k e) parsed;
    true
  | _ ->
    Logs.warn (fun m -> m "Warm.restore: not a warm-cache document; ignored");
    false
