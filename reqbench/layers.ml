(* Per-layer accounting, entirely from outside the program.

   Each layer call (catalog build, TM generation, harness solve, warm
   cache, routing, cut estimation) is timed by the benchmark around the
   public entry point it calls; the program's existing Tb_obs.Metrics
   counters and timers are read before and after each request and their
   deltas summed. In a traced pass every layer call is also wrapped in a
   Tb_obs.Trace span named after the layer and carrying the request id,
   and per-layer self times are recovered from the span tree. *)

module Metrics = Tb_obs.Metrics
module Trace = Tb_obs.Trace
module Clock = Tb_obs.Clock
module Json = Tb_obs.Json

let ms_since t0 = Clock.ns_to_ms (Clock.elapsed_ns t0)

(* CPU time of the whole process (user + system, from getrusage), in
   ms. On a shared machine wall time also counts the time other tenants
   hold the core; CPU time does not. *)
let cpu_ms () =
  let t = Unix.times () in
  1000.0 *. (t.Unix.tms_utime +. t.Unix.tms_stime)

(* ---- Named sums. ---- *)

type acc = (string, float) Hashtbl.t

let create () : acc = Hashtbl.create 64
let get (acc : acc) k = Option.value ~default:0.0 (Hashtbl.find_opt acc k)
let add (acc : acc) k v = Hashtbl.replace acc k (get acc k +. v)

(* ---- The program's own counters and timers. ---- *)

let counter_names =
  [
    "dijkstra.runs";
    "fleischer.phases";
    "simplex.pivots";
    "restricted.phases";
    "harness.retries";
    "harness.degradations";
    "harness.warm_attempts";
    "harness.warm_hits";
    "harness.warm_rejects";
  ]

let timer_names = [ "fleischer.solve"; "simplex.solve"; "restricted.solve" ]

(* Register-or-find returns the handles the program's modules created
   at initialization. *)
let counters = Array.of_list (List.map Metrics.counter counter_names)
let timers = Array.of_list (List.map Metrics.timer timer_names)

let snapshot () =
  Array.append
    (Array.map (fun c -> float_of_int (Metrics.count c)) counters)
    (Array.map Metrics.timer_total_ms timers)

let delta_names =
  Array.of_list (counter_names @ List.map (fun t -> t ^ "_ms") timer_names)

let add_delta acc ~before ~after =
  Array.iteri (fun i n -> add acc n (after.(i) -. before.(i))) delta_names

(* ---- Layer calls. ---- *)

type ctx = { acc : acc; traced : bool; req : int }

(* Time [f] as one call of [layer], adding to ["<layer>.busy_ms"] (and
   to each of [also]); in a traced pass, also record it as a span. *)
let call ?(also = []) ctx layer f =
  let t0 = Clock.now_ns () in
  let finish () =
    let ms = ms_since t0 in
    add ctx.acc (layer ^ ".busy_ms") ms;
    List.iter (fun k -> add ctx.acc k ms) also
  in
  let run () =
    if ctx.traced then Trace.span ~args:[ ("req", Json.Int ctx.req) ] layer f
    else f ()
  in
  Fun.protect ~finally:finish run

(* ---- Self times from the span tree. ---- *)

type span = { name : string; ts : float; dur : float }

let spans_of_trace json =
  let events =
    Option.value ~default:[]
      (Option.bind (Json.member "traceEvents" json) Json.to_list)
  in
  List.filter_map
    (fun e ->
      match
        ( Option.bind (Json.member "ph" e) Json.to_str,
          Option.bind (Json.member "name" e) Json.to_str,
          Option.bind (Json.member "ts" e) Json.to_float,
          Option.bind (Json.member "dur" e) Json.to_float )
      with
      | Some "X", Some name, Some ts, Some dur -> Some { name; ts; dur }
      | _ -> None)
    events

(* Self time of a span = its duration minus the part of that interval
   its direct children cover. Spans are nested by containment: sorted
   by start (longest first on ties), each span's parent is the innermost
   open span that has not ended yet; a child is clipped to its parent's
   end. Returns [(name, self_ms)] summed per name, and the root total
   (the sum of top-level span durations) in ms. *)
let self_times spans =
  let spans =
    Array.of_list
      (List.sort
         (fun a b -> if a.ts = b.ts then compare b.dur a.dur else compare a.ts b.ts)
         spans)
  in
  let self = Array.map (fun s -> s.dur) spans in
  let stack = ref [] in
  let roots = ref 0.0 in
  Array.iteri
    (fun i s ->
      let rec pop () =
        match !stack with
        | j :: rest when spans.(j).ts +. spans.(j).dur <= s.ts ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | j :: _ ->
        let p_end = spans.(j).ts +. spans.(j).dur in
        self.(j) <- self.(j) -. (Float.min (s.ts +. s.dur) p_end -. s.ts)
      | [] -> roots := !roots +. s.dur);
      stack := i :: !stack)
    spans;
  let by_name = create () in
  Array.iteri (fun i s -> add by_name s.name (self.(i) /. 1000.0)) spans;
  let rows =
    Hashtbl.fold (fun k v l -> (k, v) :: l) by_name []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  (rows, !roots /. 1000.0)

(* ---- Process memory. ---- *)

(* Peak resident set (VmHWM) from /proc, in MB; 0 where unavailable. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec loop () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          try Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> 0.0
        else loop ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) loop
