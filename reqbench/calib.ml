(* A fixed reference computation that measures how fast the machine is
   running right now.

   On a shared host, other tenants' memory traffic slows this
   benchmark's requests by 1.3-1.8x for stretches of seconds to
   minutes, while the program does exactly the same work. The
   benchmark times this computation between rounds and scales request
   times by its speed, so that a slow stretch of the machine does not
   read as a slow program. It is the benchmark's own code, so a change
   to the program does not move it; and it allocates nothing, so the
   program's garbage cannot slow it either.

   Its work resembles the program's: heap Dijkstra over a fixed random
   graph (array-backed, pointer-chasing) and a dense elimination (the
   simplex's row operations), on a working set of about 2.5 MB. *)

let nodes = 20_000
let degree = 6
let dim = 260

(* The fixed instance, built once from a fixed linear congruential
   stream. *)
let seed = ref 12345

let draw k =
  seed := ((!seed * 1103515245) + 12345) land 0x3fffffff;
  !seed mod k

let heads = Array.init (nodes * degree) (fun _ -> draw nodes)
let weights = Array.init (nodes * degree) (fun _ -> 1.0 +. float_of_int (draw 100))
let dist = Array.make nodes infinity

(* Binary heap of (key, node) in two parallel arrays; a node may be
   pushed once per improvement, so the heap holds at most one entry per
   arc plus the source. *)
let heap_key = Array.make ((nodes * degree) + 1) 0.0
let heap_node = Array.make ((nodes * degree) + 1) 0

let dijkstra src =
  Array.fill dist 0 nodes infinity;
  let size = ref 0 in
  let swap i j =
    let k = heap_key.(i) and v = heap_node.(i) in
    heap_key.(i) <- heap_key.(j);
    heap_node.(i) <- heap_node.(j);
    heap_key.(j) <- k;
    heap_node.(j) <- v
  in
  let push d v =
    let i = ref !size in
    incr size;
    heap_key.(!i) <- d;
    heap_node.(!i) <- v;
    while !i > 0 && heap_key.((!i - 1) / 2) > heap_key.(!i) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop_into () =
    decr size;
    swap 0 !size;
    let i = ref 0 and settled = ref false in
    while not !settled do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < !size && heap_key.(l) < heap_key.(!m) then m := l;
      if r < !size && heap_key.(r) < heap_key.(!m) then m := r;
      if !m = !i then settled := true
      else begin
        swap !i !m;
        i := !m
      end
    done
  in
  dist.(src) <- 0.0;
  push 0.0 src;
  while !size > 0 do
    pop_into ();
    let d = heap_key.(!size) and u = heap_node.(!size) in
    if d <= dist.(u) then
      for e = u * degree to ((u + 1) * degree) - 1 do
        let v = heads.(e) in
        let nd = d +. weights.(e) in
        if nd < dist.(v) then begin
          dist.(v) <- nd;
          push nd v
        end
      done
  done

let matrix = Array.make (dim * dim) 0.0

let eliminate () =
  for i = 0 to dim - 1 do
    for j = 0 to dim - 1 do
      matrix.((i * dim) + j) <-
        float_of_int (((i * 7) + (j * 13)) mod 17) +. if i = j then 50.0 else 0.0
    done
  done;
  for k = 0 to dim - 1 do
    let p = matrix.((k * dim) + k) in
    for i = k + 1 to dim - 1 do
      let f = matrix.((i * dim) + k) /. p in
      for j = k to dim - 1 do
        matrix.((i * dim) + j) <- matrix.((i * dim) + j) -. (f *. matrix.((k * dim) + j))
      done
    done
  done

(* What [run] takes on the 2-core machine this benchmark was built on,
   in ms: scaled request times read as if measured at that speed. *)
let nominal_ms = 30.0

(* Process CPU time of one reference computation, in ms. *)
let run () =
  let c0 = Layers.cpu_ms () in
  dijkstra 97;
  eliminate ();
  Layers.cpu_ms () -. c0
