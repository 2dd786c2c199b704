(** Per-warp cycle attribution: the data produced by [Sm.run ?profile].

    Each warp carries a tiny ledger — the cycle its current {e span}
    started and the bucket that span accrues into — flushed whenever the
    warp's classification changes. Because every flush advances the span
    origin and issue cycles are credited explicitly, the buckets of one
    warp always sum to the total cycle count exactly:

    {[ forall w.  sum_b buckets.(w).(b) = cycles ]}

    the conservation invariant [test/test_profile.ml] pins for every
    shipped kernel, and which the {!Chip} layer preserves per simulated
    SM round (the profiler rides the main round simulation only).

    This interface is the profiler's public surface; [Sm]'s hot path
    indexes {!t.buckets} through the integer bucket constants below, so
    they are part of the contract, not an implementation detail. *)

(** {1 Bucket taxonomy}

    Buckets are plain ints so the simulator's hot path can index arrays
    without boxing. The taxonomy follows the paper's §6 discussion:
    where does a warp-specialized warp spend its life? *)

val issue : int
(** issuing, or contending for one of the issue slots *)

val arith : int
(** scoreboard wait on an arithmetic producer, DP/ALU port busy *)

val mem : int
(** scoreboard wait on a load, LD/ST or shared port busy *)

val bar_named : int
(** parked on a named barrier (incl. post-release latency) *)

val bar_cta : int
(** parked on the CTA-wide barrier *)

val icache : int
(** instruction-fetch miss or in-flight fill *)

val ccache : int
(** constant-cache miss or in-flight fill *)

val idle : int
(** retired (and the pre-first-visit prologue gap) *)

val n_buckets : int

val bucket_names : string array
(** [n_buckets] display names, indexed by the constants above. *)

(** {1 Per-barrier wait histograms} *)

val hist_buckets : int

val hist_bucket : int -> int
(** Log2 bucket of a wait length: 0 -> 0, otherwise [1 + floor(log2 w)],
    capped at [hist_buckets - 1]; bucket [i >= 1] holds waits in
    [2^(i-1), 2^i). *)

type bar_wait = {
  bw_bar : int;  (** barrier id; -1 encodes the CTA-wide barrier *)
  bw_count : int;  (** completed waits (warp-release events) *)
  bw_total : int;  (** warp-cycles from park to release *)
  bw_max : int;
  bw_hist : int array;  (** [hist_buckets] log2 buckets; sums to bw_count *)
}

(** {1 Timeline} *)

type span = {
  sp_warp : int;
  sp_bucket : int;
  sp_start : int;
  sp_stop : int;  (** exclusive *)
}

type t = {
  cycles : int;
  warps : (int * int) array;  (** warp index -> (cta, wid) *)
  buckets : int array array;  (** [warp index][bucket] warp-cycles *)
  bar_waits : bar_wait list;  (** barriers with at least one completed wait *)
  timeline : span array;  (** chronological by span end; ring-truncated *)
  timeline_dropped : int;  (** spans evicted from the ring, 0 if it held *)
}

val n_warps : t -> int
val total_warp_cycles : t -> int

val bucket_totals : t -> int array
(** Column sums of [buckets]: warp-cycles per bucket across all warps. *)

val conservation_residual : t -> int
(** [sum of all bucket cells - total_warp_cycles]; 0 iff conserved. *)

val conservation_ok : t -> bool

val top_stalls : ?n:int -> t -> (int * int * int) list
(** Largest wait-bucket cells [(warp, bucket, warp-cycles)] (issue and
    idle excluded), descending; ties break on warp then bucket so output
    is deterministic. Default [n = 10]. *)

(** {1 Rendering} *)

val pp_breakdown : Format.formatter -> t -> unit
(** Per-warp table with totals, shares, and the conservation verdict. *)

val pp_bar_waits : Format.formatter -> t -> unit

(** {1 Serialization} *)

val to_chrome_trace : t -> string
(** Chrome trace-event JSON ("X" complete events): one event per span,
    pid = CTA, tid = warp id within the CTA, ts/dur in simulated cycles,
    sorted by start time so consumers see monotone timestamps. The
    document is built as a {!Sutil.Json.t} and printed by
    {!Sutil.Json.emit}, followed by a newline. *)

val to_json : t -> Sutil.Json.t
(** The perf-snapshot payload: totals plus the full per-warp breakdown
    (timeline spans are deliberately excluded — they belong in the
    Chrome trace, not a perf time series). *)
