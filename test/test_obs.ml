module Json = Tb_obs.Json
module Metrics = Tb_obs.Metrics
module Trace = Tb_obs.Trace
module Hdr = Tb_obs.Hdr
module Events = Tb_obs.Events
module Convergence = Tb_obs.Convergence
module Progress = Tb_obs.Progress
module Graph = Tb_graph.Graph
module Commodity = Tb_flow.Commodity
module Fleischer = Tb_flow.Fleischer

let check_float = Alcotest.(check (float 1e-9))

(* ---- Json ---- *)

let sample_json =
  Json.Obj
    [
      ("name", Json.String "he \"llo\"\nworld");
      ("count", Json.Int 42);
      ("ratio", Json.Float 0.14159265358979312);
      ("flag", Json.Bool true);
      ("nothing", Json.Null);
      ("items", Json.List [ Json.Int 1; Json.Float 2.5; Json.String "x" ]);
      ("empty_list", Json.List []);
      ("empty_obj", Json.Obj []);
    ]

let test_json_roundtrip () =
  List.iter
    (fun indent ->
      match Json.of_string (Json.to_string ~indent sample_json) with
      | Ok v -> Alcotest.(check bool) "round-trips" true (v = sample_json)
      | Error e -> Alcotest.fail ("parse error: " ^ e))
    [ false; true ]

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted invalid %S" s)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

let test_json_accessors () =
  let v = sample_json in
  Alcotest.(check (option int)) "int member" (Some 42)
    (Option.bind (Json.member "count" v) Json.to_int);
  Alcotest.(check (option string)) "missing member" None
    (Option.bind (Json.member "nope" v) Json.to_str);
  check_float "int coerces to float" 42.0
    (Option.get (Option.bind (Json.member "count" v) Json.to_float))

(* ---- Metrics ---- *)

let test_counter () =
  let c = Metrics.counter "test.counter" in
  let before = Metrics.count c in
  Metrics.incr c;
  Metrics.add c 10;
  Alcotest.(check int) "count" (before + 11) (Metrics.count c);
  Alcotest.(check bool) "same handle for same name" true
    (Metrics.counter "test.counter" == c);
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Metrics: \"test.counter\" already registered as another kind")
    (fun () -> ignore (Metrics.gauge "test.counter"))

let test_timer () =
  let t = Metrics.timer "test.timer" in
  let x = Metrics.time t (fun () -> 7) in
  Alcotest.(check int) "returns value" 7 x;
  Metrics.record_ns t 2_000_000L;
  Alcotest.(check int) "two samples" 2 (Metrics.timer_count t);
  Alcotest.(check bool) "total >= recorded 2ms" true
    (Metrics.timer_total_ms t >= 2.0)

let test_metrics_json_and_reset () =
  let c = Metrics.counter "test.json_counter" in
  Metrics.incr c;
  (match Json.member "test.json_counter" (Metrics.to_json ()) with
  | Some entry ->
    Alcotest.(check (option int)) "exported count" (Some (Metrics.count c))
      (Option.bind (Json.member "count" entry) Json.to_int)
  | None -> Alcotest.fail "counter missing from to_json");
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.count c)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_prometheus_exposition () =
  let c = Metrics.counter "test.prom.counter" in
  Metrics.add c 5;
  let h = Metrics.hdr "test.prom.lat_ms" in
  List.iter (Metrics.observe_hdr h) [ 1.0; 2.0; 3.0 ];
  let text = Metrics.to_prometheus () in
  let has sub = Alcotest.(check bool) sub true (contains ~sub text) in
  (* Dots sanitize to underscores; counters expose their raw count. *)
  has "# TYPE test_prom_counter counter";
  has "test_prom_counter 5";
  (* Hdr histograms render as summaries with quantile labels. *)
  has "# TYPE test_prom_lat_ms summary";
  has "test_prom_lat_ms{quantile=\"0.99\"}";
  has "test_prom_lat_ms_count 3";
  has "test_prom_lat_ms_sum 6";
  (* The snapshot-file path must render the same exposition. *)
  match Metrics.prometheus_of_json (Metrics.to_json ()) with
  | Ok from_snapshot ->
    Alcotest.(check bool) "snapshot rendering has same counter line" true
      (contains ~sub:"test_prom_counter 5" from_snapshot)
  | Error e -> Alcotest.fail ("prometheus_of_json: " ^ e)

(* ---- Hdr ---- *)

(* Deterministic samples spanning three decades (1..1000 "ms"), enough
   mass that adjacent order statistics differ far less than the
   histogram's precision contract. *)
let hdr_samples n =
  let state = ref 0x2545F491 in
  Array.init n (fun _ ->
      state := ((1103515245 * !state) + 12345) land 0x3FFFFFFF;
      let u = float_of_int !state /. float_of_int 0x40000000 in
      Float.pow 10.0 (3.0 *. u))

let oracle_quantile sorted q =
  let n = Array.length sorted in
  let idx = int_of_float (ceil (q *. float_of_int n)) - 1 in
  sorted.(max 0 (min (n - 1) idx))

let test_hdr_quantiles_vs_oracle () =
  let samples = hdr_samples 10_000 in
  let h = Hdr.create () in
  Array.iter (Hdr.record h) samples;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let last = Array.length sorted - 1 in
  Alcotest.(check int) "count" 10_000 (Hdr.count h);
  check_float "min exact" sorted.(0) (Hdr.min_value h);
  check_float "max exact" sorted.(last) (Hdr.max_value h);
  check_float "q=0 exact" sorted.(0) (Hdr.quantile h 0.0);
  check_float "q=1 exact" sorted.(last) (Hdr.quantile h 1.0);
  List.iter
    (fun q ->
      let est = Hdr.quantile h q in
      let truth = oracle_quantile sorted q in
      let rel = Float.abs (est -. truth) /. truth in
      if rel > 0.02 then
        Alcotest.failf "q=%.3f: estimated %.4f vs true %.4f (rel err %.4f)" q
          est truth rel)
    [ 0.25; 0.5; 0.75; 0.9; 0.99; 0.999 ]

let test_hdr_merge_of_shards_equals_whole () =
  let samples = hdr_samples 5_000 in
  let whole = Hdr.create () in
  let parts = Array.init 4 (fun _ -> Hdr.create ()) in
  Array.iteri
    (fun i v ->
      Hdr.record whole v;
      Hdr.record parts.(i mod 4) v)
    samples;
  let merged = Hdr.create () in
  Array.iter (fun p -> Hdr.merge ~into:merged p) parts;
  Alcotest.(check int) "count" (Hdr.count whole) (Hdr.count merged);
  (* Bucket counts are additive integers: quantiles are bit-identical,
     not merely close. The sum is a float re-accumulated in a different
     order, so it gets an ulp-scale tolerance. *)
  Alcotest.(check (float 1e-6)) "sum" (Hdr.sum whole) (Hdr.sum merged);
  check_float "min" (Hdr.min_value whole) (Hdr.min_value merged);
  check_float "max" (Hdr.max_value whole) (Hdr.max_value merged);
  List.iter
    (fun q ->
      check_float
        (Printf.sprintf "q=%.3f bit-identical" q)
        (Hdr.quantile whole q) (Hdr.quantile merged q))
    [ 0.0; 0.25; 0.5; 0.9; 0.99; 0.999; 1.0 ];
  (* The sharded recorder is the same machinery behind a domain-indexed
     shard array; a single-domain stream must read back identically. *)
  let sh = Hdr.sharded ~shards:4 () in
  Array.iter (Hdr.record_sharded sh) samples;
  let m = Hdr.merged sh in
  Alcotest.(check int) "sharded count" (Hdr.count whole) (Hdr.count m);
  check_float "sharded p99" (Hdr.quantile whole 0.99) (Hdr.quantile m 0.99);
  Hdr.clear_sharded sh;
  Alcotest.(check int) "clear_sharded" 0 (Hdr.count (Hdr.merged sh))

(* ---- Events (ndjson access-log substrate) ---- *)

let with_events_tmp f =
  let path = Filename.temp_file "tb_obs_events" ".ndjson" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        (path :: List.map (fun i -> path ^ "." ^ string_of_int i) [ 1; 2; 3 ]))
    (fun () -> f path)

let int_field name r = Option.bind (Json.member name r) Json.to_int

let test_events_roundtrip () =
  with_events_tmp @@ fun path ->
  let w = Events.open_ path in
  Events.write w [ ("i", Json.Int 1); ("s", Json.String "x\ny") ];
  Events.write w [ ("i", Json.Int 2); ("f", Json.Float 2.5) ];
  Events.close w;
  let records, skipped = Events.read path in
  Alcotest.(check int) "no skips" 0 skipped;
  match records with
  | [ r1; r2 ] ->
    Alcotest.(check (option int)) "first record" (Some 1) (int_field "i" r1);
    Alcotest.(check (option string)) "escaped string survives" (Some "x\ny")
      (Option.bind (Json.member "s" r1) Json.to_str);
    Alcotest.(check (option int)) "order preserved" (Some 2) (int_field "i" r2)
  | other -> Alcotest.failf "expected 2 records, got %d" (List.length other)

let test_events_torn_final_line () =
  with_events_tmp @@ fun path ->
  let w = Events.open_ path in
  Events.write w [ ("i", Json.Int 1) ];
  Events.write w [ ("i", Json.Int 2) ];
  Events.close w;
  (* A writer killed mid-record leaves a truncated, unterminated line. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc {|{"i": 3, "trunc|};
  close_out oc;
  let records, skipped = Events.read path in
  Alcotest.(check int) "torn line skipped, not fatal" 1 skipped;
  Alcotest.(check int) "intact records survive" 2 (List.length records);
  (* Reopening for append must newline-terminate the torn line first,
     so the next record never concatenates onto it. *)
  let w2 = Events.open_ path in
  Events.write w2 [ ("i", Json.Int 4) ];
  Events.close w2;
  let records2, skipped2 = Events.read path in
  Alcotest.(check int) "still one skip" 1 skipped2;
  Alcotest.(check int) "appended record readable" 3 (List.length records2);
  let last = List.nth records2 (List.length records2 - 1) in
  Alcotest.(check (option int)) "new record intact" (Some 4)
    (int_field "i" last)

let test_events_rotation () =
  with_events_tmp @@ fun path ->
  let w = Events.open_ ~max_bytes:256 ~max_keep:2 path in
  for i = 1 to 40 do
    Events.write w
      [ ("i", Json.Int i); ("pad", Json.String (String.make 16 'x')) ]
  done;
  Events.close w;
  Alcotest.(check bool) "rotated file exists" true
    (Sys.file_exists (path ^ ".1"));
  Alcotest.(check bool) "max_keep honored" false
    (Sys.file_exists (path ^ ".3"));
  (* Every surviving file is whole ndjson, and the newest record is in
     the live file. *)
  let records, skipped = Events.read path in
  Alcotest.(check int) "live file parses clean" 0 skipped;
  Alcotest.(check bool) "live file non-empty" true (records <> []);
  let last = List.nth records (List.length records - 1) in
  Alcotest.(check (option int)) "newest record in live file" (Some 40)
    (int_field "i" last);
  let _, skipped1 = Events.read (path ^ ".1") in
  Alcotest.(check int) "rotated file parses clean" 0 skipped1

(* ---- Trace ---- *)

let event_named name events =
  List.find_opt
    (fun e -> Json.member "name" e = Some (Json.String name))
    events

let field name e = Option.get (Option.bind (Json.member name e) Json.to_float)

let test_trace_nested_spans () =
  Trace.clear ();
  Trace.enable ();
  Trace.span "outer" (fun () ->
      Trace.span "inner" (fun () -> ignore (Sys.opaque_identity 1));
      Trace.counter "series" [ ("v", 1.5) ]);
  Trace.disable ();
  (* Round-trip through the printer and parser: the exported document
     must be valid JSON, not just a string we hope Chrome accepts. *)
  let doc =
    match Json.of_string (Json.to_string (Trace.to_json ())) with
    | Ok v -> v
    | Error e -> Alcotest.fail ("exported trace unparseable: " ^ e)
  in
  let events =
    Option.get (Option.bind (Json.member "traceEvents" doc) Json.to_list)
  in
  Alcotest.(check int) "three events" 3 (List.length events);
  let outer = Option.get (event_named "outer" events) in
  let inner = Option.get (event_named "inner" events) in
  Alcotest.(check (option string)) "complete event phase" (Some "X")
    (Option.bind (Json.member "ph" outer) Json.to_str);
  (* Nesting: the inner span must be contained in the outer one. *)
  Alcotest.(check bool) "inner starts after outer" true
    (field "ts" inner >= field "ts" outer);
  Alcotest.(check bool) "inner ends before outer" true
    (field "ts" inner +. field "dur" inner
    <= field "ts" outer +. field "dur" outer +. 1e-6);
  let c = Option.get (event_named "series" events) in
  Alcotest.(check (option string)) "counter phase" (Some "C")
    (Option.bind (Json.member "ph" c) Json.to_str);
  Trace.clear ()

let test_trace_disabled_records_nothing () =
  Trace.clear ();
  Alcotest.(check bool) "disabled by default" false (Trace.is_enabled ());
  Trace.span "ghost" (fun () -> ());
  Trace.counter "ghost" [ ("v", 1.0) ];
  Trace.instant "ghost";
  match Json.member "traceEvents" (Trace.to_json ()) with
  | Some (Json.List []) -> ()
  | _ -> Alcotest.fail "disabled tracing buffered events"

let test_trace_ring_overwrites_oldest () =
  let default_cap = Trace.capacity () in
  Fun.protect ~finally:(fun () ->
      Trace.disable ();
      Trace.set_capacity default_cap)
  @@ fun () ->
  Trace.set_capacity 4;
  Alcotest.(check int) "capacity readable" 4 (Trace.capacity ());
  Trace.enable ();
  for i = 1 to 10 do
    Trace.instant (Printf.sprintf "e%d" i)
  done;
  Trace.disable ();
  Alcotest.(check int) "overwrites counted" 6 (Trace.dropped ());
  let doc = Trace.to_json () in
  let events =
    Option.get (Option.bind (Json.member "traceEvents" doc) Json.to_list)
  in
  Alcotest.(check int) "ring holds capacity" 4 (List.length events);
  (* The ring keeps the most recent window: newest survive, oldest go. *)
  Alcotest.(check bool) "newest kept" true (event_named "e10" events <> None);
  Alcotest.(check bool) "window starts at e7" true
    (event_named "e7" events <> None);
  Alcotest.(check bool) "oldest dropped" true (event_named "e1" events = None);
  Alcotest.(check (option int)) "droppedEvents exported" (Some 6)
    (Option.bind (Json.member "droppedEvents" doc) Json.to_int);
  (* Resizing clears the buffer and the dropped counter. *)
  Trace.set_capacity 8;
  Alcotest.(check int) "set_capacity zeroes dropped" 0 (Trace.dropped ());
  Alcotest.check_raises "capacity below 1 rejected"
    (Invalid_argument "Trace.set_capacity") (fun () -> Trace.set_capacity 0)

(* ---- Convergence sink on a real solve ---- *)

let cube3 =
  Graph.of_unit_edges ~n:8
    [ (0, 1); (2, 3); (4, 5); (6, 7); (0, 2); (1, 3); (4, 6); (5, 7); (0, 4);
      (1, 5); (2, 6); (3, 7) ]

let test_fleischer_convergence_trace () =
  let cs =
    [| Commodity.make ~src:0 ~dst:7 ~demand:1.0;
       Commodity.make ~src:3 ~dst:4 ~demand:1.0;
       Commodity.make ~src:5 ~dst:2 ~demand:1.0 |]
  in
  let tol = 0.03 in
  let sink, samples = Convergence.recorder () in
  let r = Fleischer.solve ~tol ~on_check:sink cube3 cs in
  let samples = samples () in
  Alcotest.(check bool) "recorded at least two checks" true
    (List.length samples >= 2);
  (* The solver reports its *best* bounds: lower must never decrease,
     upper never increase, phase counts strictly advance. *)
  ignore
    (List.fold_left
       (fun prev (s : Convergence.sample) ->
         (match prev with
         | None -> ()
         | Some (p : Convergence.sample) ->
           Alcotest.(check bool) "phases advance" true (s.phase >= p.phase);
           Alcotest.(check bool) "lower non-decreasing" true
             (s.lower >= p.lower -. 1e-12);
           Alcotest.(check bool) "upper non-increasing" true
             (s.upper <= p.upper +. 1e-12);
           Alcotest.(check bool) "time advances" true (s.t_us >= p.t_us));
         Alcotest.(check bool) "eps positive" true (s.eps > 0.0);
         Some s)
       None samples);
  let last = List.nth samples (List.length samples - 1) in
  Alcotest.(check bool) "final bracket within 1+tol" true
    (last.upper /. last.lower <= 1.0 +. tol +. 1e-9);
  (* The sample bracket and the rescaled result agree on the ratio. *)
  check_float "bracket ratio preserved by rescaling"
    (last.upper /. last.lower) (r.Fleischer.upper /. r.Fleischer.lower)

let test_tracing_sink_emits_bounds () =
  let cs = [| Commodity.make ~src:0 ~dst:7 ~demand:1.0 |] in
  Trace.clear ();
  Trace.enable ();
  ignore (Fleischer.solve cube3 cs);
  Trace.disable ();
  let events =
    Option.get (Option.bind (Json.member "traceEvents" (Trace.to_json ())) Json.to_list)
  in
  Alcotest.(check bool) "has fleischer.solve span" true
    (event_named "fleischer.solve" events <> None);
  Alcotest.(check bool) "has bound samples" true
    (event_named "fleischer.bounds" events <> None);
  Alcotest.(check bool) "has dijkstra counters" true
    (event_named "dijkstra" events <> None);
  Trace.clear ()

(* ---- Progress ---- *)

let test_progress_fmt () =
  Alcotest.(check string) "seconds" "5.0s" (Progress.fmt_seconds 5.0);
  Alcotest.(check string) "minutes" "2m05s" (Progress.fmt_seconds 125.0);
  Alcotest.(check string) "hours" "1h01m" (Progress.fmt_seconds 3660.0)

let test_progress_counts () =
  let buf = Filename.temp_file "tb_obs" ".progress" in
  let oc = open_out buf in
  let p = Progress.create ~out:oc ~label:"sweep" 3 in
  Progress.step p;
  Progress.step p;
  Progress.step p;
  close_out oc;
  let ic = open_in buf in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove buf;
  Alcotest.(check int) "one line per step" 3 (List.length !lines);
  let final = List.hd !lines in
  Alcotest.(check bool) "final line reports completion" true
    (String.length final >= 15 && String.sub final 0 15 = "sweep: 3/3 done")

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "timer" `Quick test_timer;
          Alcotest.test_case "json export and reset" `Quick
            test_metrics_json_and_reset;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_exposition;
        ] );
      ( "hdr",
        [
          Alcotest.test_case "quantiles vs sorted oracle" `Quick
            test_hdr_quantiles_vs_oracle;
          Alcotest.test_case "merge of shards equals whole" `Quick
            test_hdr_merge_of_shards_equals_whole;
        ] );
      ( "events",
        [
          Alcotest.test_case "ndjson round-trip" `Quick test_events_roundtrip;
          Alcotest.test_case "torn final line recovery" `Quick
            test_events_torn_final_line;
          Alcotest.test_case "rotation" `Quick test_events_rotation;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nested spans round-trip" `Quick
            test_trace_nested_spans;
          Alcotest.test_case "disabled is silent" `Quick
            test_trace_disabled_records_nothing;
          Alcotest.test_case "ring overwrites oldest" `Quick
            test_trace_ring_overwrites_oldest;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "fleischer bound invariants" `Quick
            test_fleischer_convergence_trace;
          Alcotest.test_case "tracing sink emits events" `Quick
            test_tracing_sink_emits_bounds;
        ] );
      ( "progress",
        [
          Alcotest.test_case "duration formatting" `Quick test_progress_fmt;
          Alcotest.test_case "step lines" `Quick test_progress_counts;
        ] );
    ]
