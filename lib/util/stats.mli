(** Streaming and batch summary statistics used by metrics and reports. *)

type t
(** Mutable accumulator of a stream of floats (Welford's algorithm, so a
    single pass yields numerically stable mean/variance). *)

val create : unit -> t

val add : t -> float -> unit

val add_many : t -> float list -> unit

val count : t -> int

val total : t -> float

val mean : t -> float
(** Mean of the observations; [0.] when empty. *)

val variance : t -> float
(** Unbiased sample variance; [0.] with fewer than two observations. *)

val min : t -> float
(** Smallest observation; [nan] when empty. *)

val max : t -> float
(** Largest observation; [nan] when empty. *)

val merge : t -> t -> t
(** [merge a b] is a fresh accumulator equivalent to having observed both
    streams (parallel Welford merge). *)

val percentile : float array -> float -> float
(** [percentile xs p] is the [p]-th percentile of [xs] by linear
    interpolation; [p] outside [0., 100.] is clamped.  Sorts a copy; [xs]
    is unchanged.
    @raise Invalid_argument on an empty array, a nan [p], or a nan
    observation. *)

val geometric_mean : float list -> float
(** Geometric mean of positive values, the aggregation SPEC-style suites
    use for normalized times.  @raise Invalid_argument on an empty list or
    non-positive member. *)
