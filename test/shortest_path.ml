(* Test-only oracle: an independent int-array heap Dijkstra that
   test_sssp compares every [Tb_graph.Sssp] schedule against. The
   graph's CSR columns are copied into plain OCaml arrays on entry, so
   the oracle shares no storage access path with the code under test. *)

module Graph = Tb_graph.Graph
module Heap = Tb_graph.Heap

type state = {
  dist : float array;
  (* parent arc on the shortest path tree, -1 at the source/unreached. *)
  parent_arc : int array;
  heap : Heap.t;
  mutable stamp : int;
  visit_stamp : int array;
}

let create_state n =
  {
    dist = Array.make n infinity;
    parent_arc = Array.make n (-1);
    heap = Heap.create ~capacity:(max 16 n) ();
    stamp = 0;
    visit_stamp = Array.make n (-1);
  }

(* Run Dijkstra from [src] with per-arc lengths [len]; fills [st.dist]
   and [st.parent_arc]. Entries of nodes not reached in this run are
   identified by [st.visit_stamp.(v) <> st.stamp]. An optional [target]
   allows early exit once that node is settled.

   The inner loop uses unsafe indexing: every index is a node id in
   [0, n) or a CSR position in [adj_start.(u), adj_start.(u+1)), both
   established by the [Graph] construction invariants, and [len] is
   checked against [num_arcs] on entry. *)
let dijkstra_arrays ?target g ~len ~src st =
  let n = Graph.num_nodes g in
  if Array.length st.dist <> n then
    invalid_arg "Shortest_path.dijkstra: size";
  if Array.length len < Graph.num_arcs g then
    invalid_arg "Shortest_path.dijkstra: length array too short";
  let ints ba = Array.init (Bigarray.Array1.dim ba) (Bigarray.Array1.get ba) in
  let adj_start = ints (Graph.ba_adj_start g) in
  let adj_node = ints (Graph.ba_adj_node g) in
  let adj_arc = ints (Graph.ba_adj_arc g) in
  let dist = st.dist
  and parent_arc = st.parent_arc
  and visit_stamp = st.visit_stamp in
  st.stamp <- st.stamp + 1;
  let stamp = st.stamp in
  Heap.clear st.heap;
  dist.(src) <- 0.0;
  parent_arc.(src) <- -1;
  visit_stamp.(src) <- stamp;
  Heap.push st.heap 0.0 src;
  let target = match target with Some t -> t | None -> -1 in
  let finished = ref false in
  while (not !finished) && not (Heap.is_empty st.heap) do
    let d = Heap.top_prio st.heap in
    let u = Heap.top_data st.heap in
    Heap.drop st.heap;
    (* An entry is current iff its key still equals dist.(u): pushes
       strictly improve dist, so stale entries carry larger keys, and
       settled nodes are never re-pushed (the push guard rejects any
       nd >= dist). No separate settled-stamp array is needed. *)
    if d <= Array.unsafe_get dist u then begin
      if u = target then finished := true
      else begin
        let hi = Array.unsafe_get adj_start (u + 1) in
        for i = Array.unsafe_get adj_start u to hi - 1 do
          let v = Array.unsafe_get adj_node i in
          let arc = Array.unsafe_get adj_arc i in
          let w = Array.unsafe_get len arc in
          if w < infinity then begin
            let nd = d +. w in
            if
              not
                (Array.unsafe_get visit_stamp v = stamp
                && Array.unsafe_get dist v <= nd)
            then begin
              Array.unsafe_set dist v nd;
              Array.unsafe_set parent_arc v arc;
              Array.unsafe_set visit_stamp v stamp;
              Heap.push st.heap nd v
            end
          end
        done
      end
    end
  done

let reached st v = st.visit_stamp.(v) = st.stamp

let distance st v = if reached st v then st.dist.(v) else infinity

(* Parent arc of [v] in the most recent tree (-1 at the source or when
   unreached). *)
let parent_arc st v = if reached st v then st.parent_arc.(v) else -1
