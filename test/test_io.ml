module Graph = Tb_graph.Graph
module Topology = Tb_topo.Topology
module Topo_io = Tb_topo.Io
module Tm = Tb_tm.Tm
module Tm_io = Tb_tm.Io
module Solve = Tb_harness.Solve

(* ---- Topology files ---- *)

let sample =
  "# a ring of four switches\n\
   name ring4\n\
   kind switch\n\
   nodes 4\n\
   hosts-all 2\n\
   edge 0 1\n\
   edge 1 2\n\
   edge 2 3\n\
   edge 3 0 2.5\n"

let test_topo_parse () =
  let t = Topo_io.of_string sample in
  Alcotest.(check string) "name" "ring4" t.Topology.name;
  Alcotest.(check int) "nodes" 4 (Graph.num_nodes t.Topology.graph);
  Alcotest.(check int) "edges" 4 (Graph.num_edges t.Topology.graph);
  Alcotest.(check int) "servers" 8 (Topology.num_servers t);
  (* The weighted edge survived. *)
  let heavy =
    Graph.fold_edges
      (fun acc _ e -> if e.Graph.cap > 2.0 then acc + 1 else acc)
      0 t.Topology.graph
  in
  Alcotest.(check int) "one heavy edge" 1 heavy

let test_topo_roundtrip () =
  let original = Tb_topo.Fattree.make ~k:4 () in
  let t = Topo_io.of_string (Topo_io.to_string original) in
  Alcotest.(check int) "nodes"
    (Graph.num_nodes original.Topology.graph)
    (Graph.num_nodes t.Topology.graph);
  Alcotest.(check int) "edges"
    (Graph.num_edges original.Topology.graph)
    (Graph.num_edges t.Topology.graph);
  Alcotest.(check (array int)) "hosts" original.Topology.hosts t.Topology.hosts;
  Alcotest.(check (array int)) "degrees"
    (Graph.degree_sequence original.Topology.graph)
    (Graph.degree_sequence t.Topology.graph)

let test_topo_default_hosts () =
  let t = Topo_io.of_string "nodes 3\nedge 0 1\nedge 1 2\n" in
  Alcotest.(check int) "one server per node" 3 (Topology.num_servers t)

let test_topo_server_kind () =
  let t = Topo_io.of_string "kind server\nnodes 2\nedge 0 1\nhosts 0 1\n" in
  Alcotest.(check bool) "server centric" true
    (t.Topology.kind = Topology.Server_centric);
  Alcotest.(check int) "one server" 1 (Topology.num_servers t)

let expect_parse_error s =
  Alcotest.(check bool) "parse error" true
    (try
       ignore (Topo_io.of_string s);
       false
     with Topo_io.Parse_error _ -> true)

let test_topo_errors () =
  expect_parse_error "edge 0 1\n";
  (* edge before nodes *)
  expect_parse_error "nodes 2\nedge 0 5\n";
  (* out of range *)
  expect_parse_error "nodes 2\nedge 0 1\nedge 0 1\n";
  (* parallel *)
  expect_parse_error "nodes 2\nfrobnicate 1\n";
  (* unknown directive *)
  expect_parse_error "nodes 2\nedge 0 1 -3\n" (* bad capacity *)

let test_topo_file_roundtrip () =
  let t = Tb_topo.Hypercube.make ~dim:3 () in
  let path = Filename.temp_file "topo" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Topo_io.save t path;
      let t' = Topo_io.load path in
      Alcotest.(check int) "edges"
        (Graph.num_edges t.Topology.graph)
        (Graph.num_edges t'.Topology.graph))

(* ---- TM files ---- *)

let test_tm_parse () =
  let tm = Tm_io.of_string "# demo\n0 1 2.5\n1 0 1\n\n2 0 0.5\n" in
  Alcotest.(check int) "flows" 3 (Tm.num_flows tm);
  Alcotest.(check (float 1e-9)) "demand" 4.0 (Tm.total_demand tm)

let test_tm_roundtrip () =
  let topo = Tb_topo.Hypercube.make ~dim:3 () in
  let tm = Tb_tm.Synthetic.longest_matching topo in
  let tm' = Tm_io.of_string (Tm_io.to_string tm) in
  let sorted t = List.sort compare (Array.to_list (Tm.flows t)) in
  Alcotest.(check bool) "same flows" true (sorted tm = sorted tm')

let test_tm_errors () =
  Alcotest.(check bool) "bad line" true
    (try
       ignore (Tm_io.of_string "0 1\n");
       false
     with Tm_io.Parse_error _ -> true);
  Alcotest.(check bool) "negative weight" true
    (try
       ignore (Tm_io.of_string "0 1 -2\n");
       false
     with Tm_io.Parse_error _ -> true)

(* ---- Typed parse errors: file/line context and result interface ---- *)

let test_error_context () =
  (match Topo_io.of_string ~file:"net.topo" "nodes 2\nfrobnicate 1\n" with
  | _ -> Alcotest.fail "accepted bad directive"
  | exception Topo_io.Parse_error { file; line; msg } ->
    Alcotest.(check string) "file" "net.topo" file;
    Alcotest.(check int) "line" 2 line;
    Alcotest.(check string) "rendered" "net.topo:2: unknown directive frobnicate"
      (Topo_io.error_message ~file ~line ~msg));
  match Tm_io.of_string ~file:"d.tm" "0 1 1\n0 1 -2\n" with
  | _ -> Alcotest.fail "accepted negative weight"
  | exception Tm_io.Parse_error { file; line; _ } ->
    Alcotest.(check string) "tm file" "d.tm" file;
    Alcotest.(check int) "tm line" 2 line

let test_load_result () =
  (match Topo_io.load_result "/nonexistent/net.topo" with
  | Ok _ -> Alcotest.fail "loaded a missing file"
  | Error msg -> Alcotest.(check bool) "message" true (String.length msg > 0));
  let path = Filename.temp_file "tm_bad" ".tm" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "0 1 not_a_number\n";
      close_out oc;
      match Tm_io.load_result path with
      | Ok _ -> Alcotest.fail "parsed garbage"
      | Error msg ->
        (* The printable error leads with file:line context. *)
        Alcotest.(check bool)
          (Printf.sprintf "has context: %s" msg)
          true
          (String.starts_with ~prefix:(path ^ ":1:") msg));
  let topo = Tb_topo.Hypercube.make ~dim:3 () in
  let path = Filename.temp_file "topo_ok" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Topo_io.save topo path;
      match Topo_io.load_result path with
      | Ok t ->
        Alcotest.(check int) "edges"
          (Graph.num_edges topo.Topology.graph)
          (Graph.num_edges t.Topology.graph)
      | Error msg -> Alcotest.fail msg)

(* End-to-end: a file-defined topology and TM run through the solver. *)
let test_io_throughput_end_to_end () =
  let t = Topo_io.of_string sample in
  let tm = Tm_io.of_string "0 2 1\n1 3 1\n" in
  let est = (Solve.throughput t tm).Solve.estimate in
  (* Crossing flows on a ring with one fattened link: throughput sits
     between the all-unit value (1.0) and the fully fattened one (2.0). *)
  Alcotest.(check bool) "ring cross flows in range" true
    (est.Tb_flow.Mcf.lower >= 0.95 && est.Tb_flow.Mcf.upper <= 2.0)

let () =
  Alcotest.run "io"
    [
      ( "topology",
        [
          Alcotest.test_case "parse" `Quick test_topo_parse;
          Alcotest.test_case "roundtrip" `Quick test_topo_roundtrip;
          Alcotest.test_case "default hosts" `Quick test_topo_default_hosts;
          Alcotest.test_case "server kind" `Quick test_topo_server_kind;
          Alcotest.test_case "errors" `Quick test_topo_errors;
          Alcotest.test_case "file roundtrip" `Quick test_topo_file_roundtrip;
        ] );
      ( "tm",
        [
          Alcotest.test_case "parse" `Quick test_tm_parse;
          Alcotest.test_case "roundtrip" `Quick test_tm_roundtrip;
          Alcotest.test_case "errors" `Quick test_tm_errors;
          Alcotest.test_case "error context" `Quick test_error_context;
          Alcotest.test_case "load_result" `Quick test_load_result;
          Alcotest.test_case "end to end" `Quick test_io_throughput_end_to_end;
        ] );
    ]
