(** Fixed-bucket histograms, used to characterise page-access locality and
    fault inter-arrival distributions in reports and tests. *)

type t

val create : ?auto_expand:bool -> lo:float -> hi:float -> buckets:int -> unit -> t
(** [create ~lo ~hi ~buckets ()] covers [\[lo, hi)] with equal-width buckets.
    Observations below [lo] land in an underflow bucket, at or above [hi]
    in an overflow bucket.

    With [~auto_expand:true] (default false) a finite observation at or
    above [hi] instead doubles the range — adjacent bucket pairs merge,
    the bucket count stays fixed — until the observation fits, so the
    overflow bucket stays empty and {!mean} is never biased by a
    mis-sized upper bound.  [lo] and the bucket count never change;
    resolution halves per doubling.  Non-finite observations still land
    in overflow rather than expanding forever.

    @raise Invalid_argument if [buckets <= 0] or [hi <= lo]. *)

val add : t -> float -> unit
(** Record one observation.  [nan] is quarantined in a dedicated counter
    ({!nan_count}) rather than bucketed — it neither perturbs the
    buckets nor poisons {!min_observed}/{!max_observed}. *)

val add_int : t -> int -> unit
(** [add_int t n] records the observation [float_of_int n], exactly as
    {!add} would, without allocating: the entry point for integer
    measurements (fault latencies, request latencies in cycles) on the
    per-event path. *)

val count : t -> int
(** Total observations, including under/overflow and nan. *)

val nan_count : t -> int
(** Observations that were [nan].  They count in {!count} but are
    excluded from every bucket, extremum and distributional summary. *)

val bucket_count : t -> int -> int
(** [bucket_count t i] is the number of observations in bucket [i]
    ([0 <= i < buckets]). *)

val underflow : t -> int
val overflow : t -> int
(** Observations at or above [hi].  They are counted, not clamped into
    the top bucket; pair with {!max_observed} to see how far past the
    range the distribution's tail reaches. *)

val max_observed : t -> float
val min_observed : t -> float
(** Exact extrema of every non-nan observation ever added, including
    under/overflow (the buckets only bound them).  [nan] when no real
    observation has been recorded. *)

val bucket_range : t -> int -> float * float
(** Inclusive-exclusive bounds of bucket [i]. *)

val mean : t -> float
(** Bucket-midpoint approximation of the sample mean; under/overflow
    observations count at [lo] / [hi], nan observations are excluded.
    [nan] when there is no real observation. *)

val fraction_below : t -> float -> float
(** [fraction_below t x] approximates P(obs < x) from bucket boundaries
    (whole buckets only; [x] is rounded down to a boundary).  Underflow
    observations always count as below; overflow observations (which
    live in [\[hi, ∞)]) count as below exactly when [x > hi], so
    [fraction_below t infinity = 1.0] even with nonzero overflow.  nan
    observations are excluded from the denominator. *)

val quantile : t -> float -> float
(** [quantile t q] estimates the [q]-quantile ([0 <= q <= 1]; values
    outside are clamped) by linear interpolation inside the bucket
    holding the [q*n]-th smallest real observation — exact to within one
    bucket width.  [quantile t 0.0] is {!min_observed} and
    [quantile t 1.0] is {!max_observed}, both exact; estimates are
    clamped to that observed range, which also anchors targets that fall
    in under/overflow.  [nan] when there is no real observation.

    @raise Invalid_argument if [q] is nan. *)

val pp : Format.formatter -> t -> unit
(** Render a compact ASCII sparkline of the distribution. *)
