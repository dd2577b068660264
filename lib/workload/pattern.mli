(** Composable page-access pattern generators.

    Every synthetic benchmark model is assembled from these blueprints.
    A blueprint knows its exact event count ({!length}, computed from its
    parameters without drawing) and, given a PRNG, starts as a {!cursor}:
    a pull function that writes each event into one reused {!slot} of
    four ints and returns [false] once the pattern is exhausted.  Leaves
    keep int state and combinators call their children's cursors
    directly, so generating an event allocates nothing.  A cursor draws
    from the PRNG as it is pulled, so it is single-consumption (start a
    fresh one from the same seed to replay — {!Trace} does exactly that).
    {!run} is the same stream as a [Seq] of {!Access.t} records.

    The leaf constructors mirror the memory behaviours the paper observes
    at page level (Fig. 3 and §4.4): sequential and strided sweeps,
    interleaved multi-stream scans, uniform/zipf randomness, pointer
    chasing, and the "same instruction mixes Class 1 and Class 3
    accesses" behaviour that makes mcf a wash for SIP (§5.2). *)

type t

val length : t -> int
(** The exact number of events the pattern generates. *)

type slot = {
  mutable site : int;
  mutable vpage : int;
  mutable compute : int;
  mutable thread : int;
}
(** The fields of one {!Access.t}, overwritten by every pull. *)

val slot : unit -> slot

type cursor = unit -> bool
(** Pull the next event into the slot; [false] once exhausted (and on
    every later pull, without drawing). *)

val cursor : t -> Repro_util.Prng.t -> slot -> cursor
(** Start the pattern on [slot].  Starting makes the draws a pattern
    makes before its first event: {!pointer_chase} and {!bursty} draw
    their first position, {!weighted_interleave} starts every child in
    list order, {!seq_list} and {!repeat} start their first child (each
    later one starts when the one before it runs dry).  An event with a
    negative page or compute raises [Invalid_argument] with
    {!Access.make}'s message when it is pulled. *)

val run : t -> Repro_util.Prng.t -> Access.t Seq.t
(** The cursor, started now, as a sequence of records.
    Single-consumption stream. *)

(** {1 Leaves}

    All leaves take [site] (the issuing instruction's identity), a mean
    [compute] cycle count preceding each access, and a relative [jitter]
    ([0.] = constant, [0.3] = ±30% uniform). *)

val sequential :
  site:int -> base:int -> pages:int -> events_per_page:int -> compute:int ->
  jitter:float -> t
(** Ascending page-by-page sweep of [\[base, base+pages)], touching each
    page [events_per_page] times before moving on. *)

val sequential_desc :
  site:int -> base:int -> pages:int -> events_per_page:int -> compute:int ->
  jitter:float -> t
(** Descending sweep from [base+pages-1] down to [base]; exercises the
    predictor's backward-stream detection. *)

val strided :
  site:int -> base:int -> pages:int -> stride:int -> events_per_page:int ->
  compute:int -> jitter:float -> t
(** Column-major sweep: consecutive accesses are [stride] pages apart
    ([stride >= 2] defeats next-page stream detection — the roms/wrf
    trap for DFP).  Every page of the range exactly [events_per_page]
    times; an empty range ([pages = 0]) emits nothing. *)

val multi_stream :
  site:int -> streams:(int * int) list -> events_per_page:int -> compute:int ->
  jitter:float -> t
(** Several concurrent ascending sweeps ([(base, pages)] each), randomly
    interleaved page-by-page — the bwaves shape; exercises the
    multiple-stream predictor's LRU list. *)

val uniform_random :
  site:int -> base:int -> pages:int -> events:int -> compute:int ->
  jitter:float -> t

val zipf :
  site:int -> base:int -> pages:int -> events:int -> s:float -> compute:int ->
  jitter:float -> t
(** Skewed random accesses; larger [s] concentrates on a hot head. *)

val pointer_chase :
  site:int -> base:int -> pages:int -> events:int -> locality:float ->
  compute:int -> jitter:float -> t
(** Random walk: with probability [locality] the next access stays within
    ±2 pages of the current one, otherwise it jumps uniformly — the
    deepsjeng/omnetpp shape. *)

val bursty :
  site:int -> base:int -> pages:int -> events:int -> run_min:int -> run_max:int ->
  events_per_page:int -> compute:int -> jitter:float -> t
(** Short sequential runs ([run_min..run_max] consecutive pages) starting
    at uniformly random positions.  Each adjacent-page fault pair looks
    like the start of a stream, so DFP keeps opening streams that die
    immediately — the misprediction generator behind the roms/deepsjeng
    pathology of Fig. 8.  Every run stays inside [\[base, base+pages)]:
    [run_max > pages] is rejected ("Pattern.bursty: bad runs"). *)

val mixed_site :
  site:int -> hot_base:int -> hot_pages:int -> cold_base:int -> cold_pages:int ->
  events:int -> irregular_ratio:float -> compute:int -> jitter:float -> t
(** A single site that issues mostly hot-set (Class 1) accesses but with
    probability [irregular_ratio] touches a cold page (Class 3) — the mcf
    dilemma of §5.2. *)

(** {1 Combinators} *)

val seq_list : t list -> t
(** Run the patterns one after another (program phases). *)

val interleave : t list -> t
(** Random merge: each step draws the next event from a uniformly chosen
    still-alive sub-pattern. *)

val weighted_interleave : (int * t) list -> t
(** Random merge with relative weights (a weight below 1 counts as 1):
    each step picks the first live child whose cumulative weight exceeds
    a uniform draw below the live children's total.  A child found
    exhausted drops out and the step draws again. *)

val repeat : int -> t -> t
(** The same blueprint [n] times in sequence (fresh draws each round). *)

val take : int -> t -> t
(** At most the first [n] events.
    @raise Invalid_argument on a negative count. *)

val on_thread : int -> t -> t
(** Stamp every event of the sub-pattern with a thread id (leaves emit
    thread 0 by default). *)

val parallel : (int * t) list -> t
(** [(thread, pattern)] pairs randomly merged — a multi-threaded enclave
    whose threads each run their own pattern.  Equivalent to
    [interleave] of [on_thread]-stamped sub-patterns. *)

val of_events : Access.t list -> t
(** A pattern that replays a fixed event list (used when loading recorded
    traces); draws nothing from the PRNG. *)

val empty : t
