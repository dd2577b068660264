(** Deterministic pseudo-random number generation.

    All randomness in the reproduction flows through this module so that
    every experiment is reproducible bit-for-bit from its seed.  The
    generator is SplitMix64 (Steele, Lea & Flood, OOPSLA'14): tiny state,
    excellent statistical quality for simulation purposes, and trivially
    splittable, which lets independent workload phases draw from
    independent streams.

    The 64-bit state is kept unboxed in a buffer, so the draws that
    return an int or a bool ({!int}, {!int_in}, {!bool}, {!chance},
    {!zipf_draw}) allocate nothing per call, and a {!zipf_sampler}
    computes the Zipf envelope's constants once for repeated draws. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed.  Equal seeds
    yield equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will replay [t]'s future
    outputs; useful for look-ahead in tests. *)

val split : t -> t
(** [split t] advances [t] and returns a fresh generator whose stream is
    statistically independent of [t]'s remaining stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive.
    Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val geometric : t -> float -> int
(** [geometric t p] draws the number of failures before the first success
    of a Bernoulli([p]) sequence; mean [(1-p)/p].  Requires [0 < p <= 1]. *)

type zipf
(** A Zipf distribution's support and exponent with its rejection
    envelope's constants, computed once. *)

val zipf_sampler : n:int -> s:float -> zipf
(** The Zipf distribution over [\[0, n)] with exponent [s].
    @raise Invalid_argument if [n <= 0]. *)

val zipf_draw : t -> zipf -> int
(** One draw by inverse-CDF on a rejection envelope: no O(n) table, so
    the support may be very large.  Heavier head for larger [s]. *)

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] is [zipf_draw t (zipf_sampler ~n ~s)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
