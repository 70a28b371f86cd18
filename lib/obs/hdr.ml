(* HDR-style log-linear histogram.

   Bucketing: a positive sample v = m * 2^e (frexp, m in [0.5, 1)) lands
   in octave e, linear sub-bucket floor((2m - 1) * 128). 128 sub-buckets
   per octave bound the relative width of any bucket by 1/128 < 0.8%,
   and quoting the bucket midpoint halves that again — the "~1%
   relative error" contract. Octaves span 2^-24 .. 2^41 (sub-nanosecond
   to weeks, in milliseconds); samples outside clamp to the edge
   buckets, and exact min/max are tracked separately so the extreme
   quantiles stay exact.

   Everything is plain mutable ints/floats: recording is two array ops
   and four field writes, mergeable by bucket addition. Concurrent
   writers go through [sharded] (one histogram per domain slot) so the
   hot path never shares a cache line; the same plain-write slack policy
   as Metrics applies within a shard. *)

let sub_bits = 7
let sub = 1 lsl sub_bits (* 128 linear sub-buckets per octave *)
let e_min = -24
let e_max = 41
let octaves = e_max - e_min + 1
let num_buckets = octaves * sub

type t = {
  buckets : int array;
  mutable zero : int; (* samples <= 0 (or denormal-small) *)
  mutable n : int;
  mutable total : float;
  mutable vmin : float;
  mutable vmax : float;
}

let create () =
  {
    buckets = Array.make num_buckets 0;
    zero = 0;
    n = 0;
    total = 0.0;
    vmin = infinity;
    vmax = neg_infinity;
  }

let clear t =
  Array.fill t.buckets 0 num_buckets 0;
  t.zero <- 0;
  t.n <- 0;
  t.total <- 0.0;
  t.vmin <- infinity;
  t.vmax <- neg_infinity

let index_of v =
  let m, e = Float.frexp v in
  if e < e_min then 0
  else if e > e_max then num_buckets - 1
  else begin
    let s = int_of_float (((m *. 2.0) -. 1.0) *. float_of_int sub) in
    let s = if s < 0 then 0 else if s >= sub then sub - 1 else s in
    ((e - e_min) * sub) + s
  end

(* Midpoint of bucket [i]: e = e_min + i/sub, sub-bucket s = i mod sub,
   spanning [2^(e-1) * (1 + s/128), 2^(e-1) * (1 + (s+1)/128)). *)
let value_of i =
  let e = e_min + (i / sub) and s = i mod sub in
  Float.ldexp (0.5 *. (1.0 +. ((float_of_int s +. 0.5) /. float_of_int sub))) e

let record t v =
  let v = if Float.is_nan v then 0.0 else v in
  if v <= 0.0 then t.zero <- t.zero + 1
  else begin
    let i = index_of v in
    t.buckets.(i) <- t.buckets.(i) + 1
  end;
  let v = if v <= 0.0 then 0.0 else v in
  t.n <- t.n + 1;
  t.total <- t.total +. v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v

let count t = t.n
let sum t = t.total
let mean t = if t.n = 0 then 0.0 else t.total /. float_of_int t.n
let min_value t = if t.n = 0 then 0.0 else t.vmin
let max_value t = if t.n = 0 then 0.0 else t.vmax

let quantile t q =
  if t.n = 0 then 0.0
  else if q <= 0.0 then min_value t
  else if q >= 1.0 then max_value t
  else begin
    let target = q *. float_of_int t.n in
    let acc = ref t.zero in
    let v =
      if float_of_int !acc >= target then 0.0
      else begin
        let result = ref (max_value t) in
        (try
           for i = 0 to num_buckets - 1 do
             let c = t.buckets.(i) in
             if c > 0 then begin
               acc := !acc + c;
               if float_of_int !acc >= target then begin
                 result := value_of i;
                 raise Exit
               end
             end
           done
         with Exit -> ());
        !result
      end
    in
    (* The edge buckets hold clamped out-of-range samples and the
       midpoint of a partially filled extreme bucket can overshoot the
       data; exact min/max bound every answer. *)
    Float.min (Float.max v t.vmin) t.vmax
  end

let merge ~into src =
  for i = 0 to num_buckets - 1 do
    if src.buckets.(i) <> 0 then
      into.buckets.(i) <- into.buckets.(i) + src.buckets.(i)
  done;
  into.zero <- into.zero + src.zero;
  into.n <- into.n + src.n;
  into.total <- into.total +. src.total;
  if src.n > 0 then begin
    if src.vmin < into.vmin then into.vmin <- src.vmin;
    if src.vmax > into.vmax then into.vmax <- src.vmax
  end

(* ---- Sharding. ---- *)

(* A shard is allocated on its first record: a registered histogram
   that never records, and every slot no domain maps to, costs a
   pointer instead of [num_buckets] ints. Two domains racing to create
   one slot may drop the loser's first samples — the same plain-write
   slack as within a shard. *)
type sharded = { shards : t option array; mask : int }

let rec pow2_ge n k = if k >= n then k else pow2_ge n (2 * k)

let sharded ?(shards = 8) () =
  let n = pow2_ge (max 1 shards) 1 in
  { shards = Array.make n None; mask = n - 1 }

let record_sharded s v =
  let i = (Domain.self () :> int) land s.mask in
  match s.shards.(i) with
  | Some t -> record t v
  | None ->
    let t = create () in
    s.shards.(i) <- Some t;
    record t v

let merged s =
  let into = create () in
  Array.iter (Option.iter (fun sh -> merge ~into sh)) s.shards;
  into

let clear_sharded s = Array.iter (Option.iter clear) s.shards
