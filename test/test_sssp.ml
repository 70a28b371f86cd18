(* Differential validation of the Bigarray SSSP traversals (Tb_graph.Sssp):
   delta-stepping, Dial buckets and the heap Dijkstra against an
   independent int-array heap Dijkstra (Shortest_path, the test-only
   oracle in test/shortest_path.ml).

   The contract under test (see sssp.mli): for a fixed length function,
   distances are the unique fixpoint of the Bellman equations over IEEE
   floats, so every schedule must produce bit-identical distances — we
   compare Int64 float bits, not a tolerance. Sssp.dijkstra runs the
   same heap discipline as the oracle, so its parent arcs must equal the
   oracle's exactly (column generation, LLSKR and the routing bound
   build their paths from them). The other schedules' parent arcs
   depend on relaxation order, so those are checked for validity (a
   reached node's parent arc must end at it and satisfy
   dist v = dist (src parent) + len parent exactly), not equality. *)

module Graph = Tb_graph.Graph
module Sssp = Tb_graph.Sssp
module Sp = Shortest_path
module Catalog = Tb_topo.Catalog
module Topology = Tb_topo.Topology
module Rng = Tb_prelude.Rng
module A1 = Bigarray.Array1

let bits = Int64.bits_of_float

let with_domains v f =
  Unix.putenv "TOPOBENCH_DOMAINS" v;
  Fun.protect ~finally:(fun () -> Unix.putenv "TOPOBENCH_DOMAINS" "") f

(* ---- Length-function generators. ----

   Deliberately adversarial shapes: unit lengths (Dial's domain),
   quantized random lengths (many exact duplicate path lengths, so
   tie-breaking differs between schedules), zero-length arcs mixed in
   (distance plateaus spanning several delta buckets), and
   infinity-banned arcs (the k-shortest ban mechanism). All are
   deterministic in the arc id, so oracle and subject see the same
   function. *)

let len_unit _ = 1.0
let mix a = (a * 2654435761) land 0xffff

let len_dup a = 0.5 *. float_of_int (1 + (mix a mod 8))

let len_zero a =
  if mix a mod 5 = 0 then 0.0 else 0.25 *. float_of_int (1 + (mix a mod 6))

let len_banned a =
  if mix a mod 7 = 0 then infinity else 1.0 +. float_of_int (mix a mod 4)

let variants =
  [
    ("unit", len_unit); ("dup", len_dup); ("zero", len_zero);
    ("banned", len_banned);
  ]

let ba_of_len g f =
  let num_arcs = Graph.num_arcs g in
  let ba = Graph.make_floats num_arcs in
  for a = 0 to num_arcs - 1 do
    A1.set ba a (f a)
  done;
  ba

(* Check one subject run (already in [st]) against the oracle state.
   With [~exact_parents] every parent arc must equal the oracle's. *)
let check_against ~what ~exact_parents g ~lenf (ost : Sp.state)
    (st : Sssp.state) =
  let n = Graph.num_nodes g in
  for v = 0 to n - 1 do
    if Sp.reached ost v <> Sssp.reached st v then
      Alcotest.failf "%s: node %d reached mismatch" what v;
    if Sp.reached ost v then begin
      if not (Int64.equal (bits (Sp.distance ost v)) (bits (Sssp.distance st v)))
      then
        Alcotest.failf "%s: node %d distance %.17g vs oracle %.17g" what v
          (Sssp.distance st v) (Sp.distance ost v);
      let p = Sssp.parent_arc st v in
      if exact_parents && p <> Sp.parent_arc ost v then
        Alcotest.failf "%s: node %d parent arc %d vs oracle %d" what v p
          (Sp.parent_arc ost v);
      if p <> -1 then begin
        if Graph.arc_dst g p <> v then
          Alcotest.failf "%s: node %d parent arc %d ends at %d" what v p
            (Graph.arc_dst g p);
        let u = Graph.arc_src g p in
        let d = Sssp.distance st u +. lenf p in
        if not (Int64.equal (bits d) (bits (Sssp.distance st v))) then
          Alcotest.failf "%s: node %d parent arc not tight: %.17g vs %.17g"
            what v d (Sssp.distance st v)
      end
    end
  done

let differential_graph ~tag g =
  let n = Graph.num_nodes g in
  let ost = Sp.create_state n in
  let st = Sssp.create_state n in
  let srcs = List.sort_uniq compare [ 0; n / 2; n - 1 ] in
  List.iter
    (fun (vname, lenf) ->
      let arr = Array.init (Graph.num_arcs g) lenf in
      let ba = ba_of_len g lenf in
      List.iter
        (fun src ->
          Sp.dijkstra_arrays g ~len:arr ~src ost;
          let subjects =
            [
              ("dijkstra", fun () -> Sssp.dijkstra g ~len:ba ~src st);
              ( "delta", fun () -> Sssp.delta_stepping g ~len:ba ~src st );
              ( "delta-par",
                fun () ->
                  Sssp.delta_stepping ~parallel:true g ~len:ba ~src st );
              ( "delta-narrow",
                (* A tiny delta forces many buckets and re-bucketed
                   stale entries. *)
                fun () ->
                  Sssp.delta_stepping ~delta:0.125 g ~len:ba ~src st );
            ]
            @ if vname = "unit" then [ ("dial", fun () -> Sssp.dial g ~src st) ]
              else []
          in
          List.iter
            (fun (sname, run) ->
              run ();
              let what =
                Printf.sprintf "%s/%s/%s/src=%d" tag vname sname src
              in
              check_against ~what ~exact_parents:(sname = "dijkstra") g
                ~lenf ost st)
            subjects)
        srcs)
    variants

let test_differential_catalog () =
  List.iter
    (fun family ->
      match Catalog.small family with
      | [] -> ()
      | topo :: _ ->
        differential_graph
          ~tag:(Catalog.family_name family)
          topo.Topology.graph)
    Catalog.all_families

let test_differential_gen_instances () =
  for seed = 0 to 99 do
    let inst = Tb_check.Gen.instance_of_seed seed in
    differential_graph
      ~tag:(Printf.sprintf "gen#%d" seed)
      inst.Tb_check.Gen.topo.Topology.graph
  done

(* ---- Domain-count bit-determinism of the parallel path. ----

   The frozen-scan schedule promises bit-identical results — distances
   AND parent arcs — for any TOPOBENCH_DOMAINS setting, including the
   sequential 1. *)
let test_delta_domain_determinism () =
  let rng = Rng.make 23 in
  let g = Tb_graph.Equipment.random_regular rng ~n:600 ~degree:8 in
  let ba = ba_of_len g len_dup in
  let n = Graph.num_nodes g in
  let capture domains =
    with_domains domains (fun () ->
        let st = Sssp.create_state n in
        Sssp.delta_stepping ~parallel:true g ~len:ba ~src:3 st;
        Array.init n (fun v ->
            (Sssp.reached st v, bits (Sssp.distance st v), Sssp.parent_arc st v)))
  in
  let base = capture "1" in
  List.iter
    (fun domains ->
      let got = capture domains in
      Alcotest.(check bool)
        (Printf.sprintf "domains=%s bit-identical" domains)
        true (base = got))
    [ "0"; "2"; "5" ]

(* ---- Fleischer workhorse cross-check. ----

   Forcing the two workhorses on the same instance must produce valid
   certified brackets from both (trajectories may differ — tie-broken
   trees differ — so the brackets need not be equal, but both must
   certify and overlap). *)
let test_fleischer_workhorse_agreement () =
  let rng = Rng.make 5 in
  let g = Tb_graph.Equipment.random_regular rng ~n:48 ~degree:6 in
  let cs =
    Array.init 24 (fun i ->
        Tb_flow.Commodity.make ~src:i ~dst:((i + 17) mod 48) ~demand:1.0)
  in
  let check name (r : Tb_flow.Fleischer.result) =
    (match
       Tb_cert.Cert.primal_feasible g cs ~throughput:r.lower ~flow:r.flow
     with
    | Ok () -> ()
    | Error m -> Alcotest.failf "%s: primal: %s" name m);
    (match
       Tb_cert.Cert.dual_bound_valid g cs ~lengths:r.lengths ~upper:r.upper
     with
    | Ok () -> ()
    | Error m -> Alcotest.failf "%s: dual: %s" name m);
    Alcotest.(check bool) (name ^ " bracket ordered") true (r.lower <= r.upper)
  in
  let rh = Tb_flow.Fleischer.solve ~tol:0.05 ~sssp:Heap_dijkstra g cs in
  let rd = Tb_flow.Fleischer.solve ~tol:0.05 ~sssp:Delta_stepping g cs in
  check "heap" rh;
  check "delta" rd;
  (* Both brackets contain the true optimum, so they must intersect. *)
  Alcotest.(check bool) "brackets overlap" true
    (rh.lower <= rd.upper && rd.lower <= rh.upper)

let test_fleischer_delta_domain_determinism () =
  let rng = Rng.make 31 in
  let g = Tb_graph.Equipment.random_regular rng ~n:40 ~degree:5 in
  let cs =
    Array.init 20 (fun i ->
        Tb_flow.Commodity.make ~src:i ~dst:((i + 13) mod 40) ~demand:1.0)
  in
  let solve domains =
    with_domains domains (fun () ->
        Tb_flow.Fleischer.solve ~tol:0.05 ~sssp:Delta_stepping g cs)
  in
  let r1 = solve "1" in
  let r4 = solve "4" in
  Alcotest.(check int) "same phases" r1.Tb_flow.Fleischer.phases
    r4.Tb_flow.Fleischer.phases;
  Alcotest.(check bool) "lower bit-identical" true
    (Int64.equal
       (bits r1.Tb_flow.Fleischer.lower)
       (bits r4.Tb_flow.Fleischer.lower));
  Alcotest.(check bool) "upper bit-identical" true
    (Int64.equal
       (bits r1.Tb_flow.Fleischer.upper)
       (bits r4.Tb_flow.Fleischer.upper));
  Alcotest.(check bool) "flows bit-identical" true
    (Array.for_all2
       (fun a b -> Int64.equal (bits a) (bits b))
       r1.Tb_flow.Fleischer.flow r4.Tb_flow.Fleischer.flow)

(* ---- Graph.Builder equivalence. ---- *)

let test_builder_matches_of_edges () =
  let rng = Rng.make 77 in
  let n = 40 in
  let edges = ref [] in
  let b = Graph.Builder.create ~n () in
  for _ = 1 to 120 do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && not (List.exists (fun (x, y, _) ->
        (min u v, max u v) = (min x y, max x y)) !edges)
    then begin
      let c = 0.5 +. Rng.float rng 2.0 in
      edges := (u, v, c) :: !edges;
      Graph.Builder.add b u v c
    end
  done;
  let via_builder = Graph.Builder.finish ~reverse:true b in
  (* of_edges prepend-era callers built the list newest-first, so the
     [~reverse:true] builder order equals the reversed insertion list. *)
  let via_of_edges = Graph.of_edges ~n !edges in
  Alcotest.(check int) "num_edges" (Graph.num_edges via_of_edges)
    (Graph.num_edges via_builder);
  for e = 0 to Graph.num_edges via_builder - 1 do
    let e1 = Graph.edge via_of_edges e in
    let e2 = Graph.edge via_builder e in
    if
      (e1.Graph.u, e1.Graph.v) <> (e2.Graph.u, e2.Graph.v)
      || not (Int64.equal (bits e1.Graph.cap) (bits e2.Graph.cap))
    then
      Alcotest.failf "edge %d mismatch: (%d,%d,%g) vs (%d,%d,%g)" e e1.Graph.u
        e1.Graph.v e1.Graph.cap e2.Graph.u e2.Graph.v e2.Graph.cap
  done;
  (* Same CSR adjacency. *)
  let n1 = Graph.num_nodes via_of_edges in
  for v = 0 to n1 - 1 do
    let s1 = ref [] and s2 = ref [] in
    Graph.iter_succ (fun w a -> s1 := (w, a) :: !s1) via_of_edges v;
    Graph.iter_succ (fun w a -> s2 := (w, a) :: !s2) via_builder v;
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "succ of %d" v)
      !s1 !s2
  done

let test_builder_validates () =
  let b = Graph.Builder.create ~n:4 () in
  Alcotest.check_raises "self-loop"
    (Invalid_argument "Graph.Builder.add: self-loop") (fun () ->
      Graph.Builder.add b 2 2 1.0);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.Builder.add: node out of range") (fun () ->
      Graph.Builder.add b 0 7 1.0);
  Alcotest.check_raises "non-positive capacity"
    (Invalid_argument "Graph.Builder.add: non-positive capacity") (fun () ->
      Graph.Builder.add b 0 1 0.0)

(* ---- Catalog validation and estimates. ---- *)

let test_spec_validation () =
  let ok s =
    match Catalog.spec_of_string s with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "%s should parse: %s" s m
  in
  let err s =
    match Catalog.spec_of_string s with
    | Ok _ -> Alcotest.failf "%s should be rejected" s
    | Error _ -> ()
  in
  ok "fattree:284";
  ok "slimfly:13";
  ok "hypercube:12";
  ok "dragonfly:30";
  ok "xpander:6000,deg=16";
  err "fattree:3";
  err "fattree:0";
  err "slimfly:6";
  err "slimfly:7";
  err "hypercube:0";
  err "hypercube:25";
  err "longhop:13";
  err "jellyfish:5,deg=5";
  err "jellyfish:7,deg=3";
  err "xpander:10,deg=1";
  (* build_spec turns the same rejection into Failure, not a deep
     generator Invalid_argument. *)
  (match Catalog.spec_of_string "fattree:4" with
  | Error m -> Alcotest.failf "fattree:4: %s" m
  | Ok sp ->
    (try
       ignore (Catalog.build_spec { sp with size = Some 3 });
       Alcotest.fail "build_spec fattree:3 should fail"
     with Failure m ->
       Alcotest.(check bool) "typed message" true
         (String.length m > 0 && m.[0] = 'f' (* "fattree: ..." *))))

let test_estimates_match_built () =
  List.iter
    (fun s ->
      match Catalog.spec_of_string s with
      | Error m -> Alcotest.failf "%s: %s" s m
      | Ok sp ->
        (match Catalog.estimate sp with
        | None -> Alcotest.failf "%s: expected an estimate" s
        | Some e ->
          let topo = Catalog.build_spec sp in
          let g = topo.Topology.graph in
          Alcotest.(check int) (s ^ " nodes") (Graph.num_nodes g)
            e.Catalog.nodes;
          Alcotest.(check int) (s ^ " edges") (Graph.num_edges g)
            e.Catalog.edges))
    [ "fattree:4"; "fattree:8"; "dragonfly:2"; "hypercube:5"; "slimfly:5";
      "xpander:8,deg=4,seed=3"; "jellyfish:16,deg=6" ]

let test_scale_specs_validate () =
  List.iter
    (fun (name, s) ->
      match Catalog.spec_of_string s with
      | Error m -> Alcotest.failf "scale spec %s (%s): %s" name s m
      | Ok sp ->
        (match Catalog.estimate sp with
        | None -> Alcotest.failf "scale spec %s: no estimate" name
        | Some e ->
          Alcotest.(check bool)
            (name ^ " is 100k-class")
            true
            (e.Catalog.nodes >= 100_000)))
    Catalog.scale_specs

let () =
  Alcotest.run "sssp"
    [
      ( "differential",
        [
          Alcotest.test_case "catalog families vs legacy Dijkstra" `Quick
            test_differential_catalog;
          Alcotest.test_case "100 fuzz instances vs legacy Dijkstra" `Quick
            test_differential_gen_instances;
          Alcotest.test_case "delta-stepping domain determinism" `Quick
            test_delta_domain_determinism;
        ] );
      ( "fleischer",
        [
          Alcotest.test_case "workhorse cross-certification" `Quick
            test_fleischer_workhorse_agreement;
          Alcotest.test_case "delta workhorse domain determinism" `Quick
            test_fleischer_delta_domain_determinism;
        ] );
      ( "builder",
        [
          Alcotest.test_case "matches of_edges" `Quick
            test_builder_matches_of_edges;
          Alcotest.test_case "validates input" `Quick test_builder_validates;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "spec validation" `Quick test_spec_validation;
          Alcotest.test_case "estimates match built graphs" `Quick
            test_estimates_match_built;
          Alcotest.test_case "scale roster validates" `Quick
            test_scale_specs_validate;
        ] );
    ]
