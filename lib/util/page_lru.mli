(** An exact LRU set of page numbers over a fixed page domain.

    The §4.4 classifiers use it as a cheap stand-in for "would this page
    be resident in EPC by now" (Class 1): the most recently touched
    [capacity] pages are in.  [Preload.Sip_profiler] replays a train
    trace through it, [Preload.Online] every live access, the Markov
    ablation prefetcher ([Preload.Prefetch_baselines.attach_markov])
    bounds its successor table with it, and
    [Workload.Trace_stats.miss_ratio] replays a whole trace through it.

    The set is a doubly linked list threaded through two page-indexed int
    arrays, sized once for the page domain [\[0, pages)] (the ELRANGE).
    {!mem} and {!touch} are O(1) and allocate nothing. *)

type t

val create : capacity:int -> pages:int -> t
(** An empty set holding at most [capacity] of the pages [\[0, pages)].
    @raise Invalid_argument if [capacity <= 0] or [pages <= 0]. *)

val capacity : t -> int

val mem : t -> int -> bool
(** @raise Invalid_argument if the page is outside [\[0, pages)]. *)

val touch : t -> int -> bool
(** Make the page the most recently touched, inserting it if absent;
    returns whether it was already in the set.  Inserting into a full
    set evicts the least recently touched page.
    @raise Invalid_argument if the page is outside [\[0, pages)]. *)

val size : t -> int
(** Distinct pages currently in the set. *)

val clear : t -> unit
