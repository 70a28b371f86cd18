(** Fixed-precision mergeable latency histograms (HDR-style).

    Samples land in log-linear buckets: each power-of-two range is split
    into 128 linear sub-buckets, so any quantile estimate is within
    ~0.8% relative error of the true sample — a fixed precision at
    every scale. Every distribution in {!Metrics} (request latency,
    queue wait, per-solve phases and pivots) reports through this
    module.

    Histograms are mergeable: bucket counts are additive, so recording a
    sample stream into any partition of shards and merging them yields
    bucket-for-bucket the same histogram as recording the whole stream
    into one — {!quantile} answers are bit-identical. The {!sharded}
    variant exploits this to keep concurrent domains off a shared cache
    line: each domain records into its own shard and readers merge at
    read time. *)

type t

val create : unit -> t

(** Record one nonnegative sample (negative samples count as zero;
    units are the caller's, conventionally milliseconds). *)
val record : t -> float -> unit

val count : t -> int
val sum : t -> float
val mean : t -> float

(** Smallest/largest recorded sample, exact (0 when empty). *)
val min_value : t -> float

val max_value : t -> float

(** [quantile h q] for [q] in [0,1]: the representative value of the
    smallest bucket prefix holding [q] of the mass, clamped to the
    exact recorded min/max (so [quantile h 0.0] and [quantile h 1.0]
    are exact). Within ~0.8% relative error of the true sample
    quantile; 0 when empty. *)
val quantile : t -> float -> float

(** [merge ~into src] adds [src]'s buckets into [into]; [src] is
    unchanged. *)
val merge : into:t -> t -> unit

val clear : t -> unit

(** {1 Sharded recording}

    One shard per concurrent writer (indexed by the current domain), so
    hot-path recording stays a plain array increment without
    cross-domain contention. Reads merge every shard into a fresh
    histogram. *)

type sharded

(** @param shards shard count, rounded up to a power of two
    (default 8). *)
val sharded : ?shards:int -> unit -> sharded

(** Record into the shard owned by the calling domain. *)
val record_sharded : sharded -> float -> unit

(** Merge of all shards at this instant. *)
val merged : sharded -> t

val clear_sharded : sharded -> unit
