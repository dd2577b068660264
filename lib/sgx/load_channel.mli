(** The exclusive EPC page-load channel.

    §3.1 and §5.6 of the paper establish the two constraints that shape
    everything DFP can achieve: the channel moves {e one} page at a time,
    and an in-progress ELDU/ELDB cannot be preempted.  A demand fault that
    arrives while a speculative preload is in flight therefore waits for
    the full remainder of that load.

    This module is pure bookkeeping over absolute cycle timestamps; the
    {!Enclave} facade decides when loads start and what happens on
    completion.

    The pending-preload FIFO is an indexed ring: a power-of-two ring of
    three int columns (page, enqueue time, sequence number) plus a
    per-page membership bitset and live sequence-number array.  Removals
    are lazy (the slot is invalidated in place and discarded when it
    reaches the head), so [queued_mem], [remove_queued], [pop_queued] and
    [next_queued_vpage] are O(1) amortized and [abort_queued_pages] is
    O(k) in the aborted set — the whole speculative-load path costs
    constant time per access regardless of queue depth.  Stale slots that
    never reach the head are reclaimed by compaction: once they outnumber
    both a small floor and the live entries, the live slots slide to the
    head in place (relative order kept), bounding the ring at O(live)
    between passes.

    Nothing on the per-access path allocates: a queued preload is three
    int stores into the ring (which grows, by doubling, only past its
    largest depth so far), the in-flight load is held as plain int fields
    of the channel (read through {!in_flight_vpage}, {!in_flight_kind}
    and {!in_flight_finishes}), and the FIFO head is peeked and popped as
    bare ints, with [-1] standing for "none". *)

type kind =
  | Demand  (** Load servicing an actual fault. *)
  | Preload_dfp  (** Speculative load issued by the DFP kernel thread. *)
  | Preload_sip  (** Load requested through the SIP notification. *)

type t

val create : pages:int -> t
(** A channel serving an ELRANGE of [pages] virtual pages (the membership
    index is per-page).  @raise Invalid_argument if [pages <= 0]. *)

val in_flight_vpage : t -> int
(** Page of the load occupying the channel — started and not yet
    collected by {!take_completed} — or [-1] when there is none. *)

val in_flight_kind : t -> kind
(** Kind of that load.  Meaningful only while {!in_flight_vpage} is
    [>= 0]. *)

val in_flight_finishes : t -> int
(** Completion cycle of that load.  Meaningful only while
    {!in_flight_vpage} is [>= 0]. *)

val is_busy : t -> now:int -> bool
(** Whether a load is still in progress at [now]. *)

val busy_until : t -> now:int -> int
(** First cycle at which the channel is free, [>= now]. *)

val free_at : t -> int
(** Completion time of the last load ever started (0 initially); the
    earliest time a new load may begin when the channel is idle. *)

val begin_load : t -> vpage:int -> kind:kind -> now:int -> duration:int -> int
(** Occupy the channel with a load of [vpage] from [now] to
    [now + duration]; returns that completion cycle.
    @raise Invalid_argument if busy at [now], if a finished load was
    never collected, or if [vpage < 0]. *)

val take_completed : t -> now:int -> bool
(** If the in-flight load has finished by [now], clear it and return
    [true]; otherwise change nothing and return [false].  Read the load's
    fields before collecting it. *)

val cancel_in_flight : t -> now:int -> unit
(** Crash path: drop the in-flight load (if any) without completing it
    and free the channel at [now].  The one exception to the
    can't-preempt-ELDU rule — a crashed enclave's load never lands.
    Read the abandoned load's fields first. *)

val queue_preload : t -> vpage:int -> at:int -> unit
(** Append a page to the pending-preload FIFO, stamped with its enqueue
    time (a queued load cannot start before it was requested).
    @raise Invalid_argument if the page is already queued (callers check
    {!queued_mem} first — a duplicate would corrupt the membership index)
    or outside [\[0, pages)]. *)

val next_queued_vpage : t -> int
(** Head page of the pending FIFO, not removed; [-1] when empty.
    Allocation-free: the background scheduler probes it on every step. *)

val next_queued_at : t -> int
(** Enqueue time of the pending FIFO's head; only meaningful when
    {!next_queued_vpage} is [>= 0].  Allocation-free. *)

val pop_queued : t -> int
(** Remove the head of the pending FIFO and return its page; [-1] when
    empty.  Read {!next_queued_at} first if the enqueue time matters. *)

val queued : t -> int list
(** Pending vpages, next-to-load first. *)

val queue_length : t -> int
(** Live (still pending) entries. *)

val physical_length : t -> int
(** Slots actually held in the ring, including lazily-deleted ones —
    [>= queue_length].  Compaction keeps this bounded by
    [max (2 * queue_length) constant]; exposed so tests can lock the
    bound. *)

val abort_queued : t -> int
(** Drop every pending (not yet started) preload; returns how many were
    dropped.  The in-flight load, if any, is untouched — it cannot be
    preempted. *)

val abort_queued_pages : t -> int array -> int -> int
(** [abort_queued_pages t pages n] drops the first [n] entries of
    [pages] from the pending FIFO, in order (pages not queued are
    ignored); returns the number dropped.  O(n) — the per-stream abort
    path. *)

val remove_queued : t -> int -> bool
(** Drop one specific pending page (demand load took over); [false] if it
    was not queued. *)

val queued_mem : t -> int -> bool
(** Whether a page is waiting in the pending FIFO. *)

(** Cross-tenant contention over the {e physical} paging channel.

    Each enclave still owns a logical {!t} (its loads serialize against
    themselves exactly as before), but in a fleet every tenant's loads
    also share one physical channel.  The arbiter is the deterministic
    bookkeeping for that sharing: each load asks for the channel with
    its clean duration and gets back a (possibly longer) duration that
    folds in the cross-tenant wait, scheduled under a policy.  Installed
    through {!Enclave.set_load_perturb}, so the enclave's own clamp
    ([duration >= base]) applies on top.

    With a single tenant the arbiter is the identity — the tenant's own
    exclusive channel already serializes its loads — which is what lets
    a fleet of one reproduce the solo runner byte-for-byte. *)
module Arbiter : sig
  type policy =
    | Fifo  (** First-come-first-served: wait for the channel, no bias. *)
    | Fair_share
        (** The contended wait grows with the tenant's cumulative channel
            occupancy above the fleet average — hogs queue longer. *)
    | Priority
        (** The contended wait is multiplied by the tenant's priority
            level (0 = highest = plain FIFO, higher = slower). *)

  val policy_name : policy -> string
  val policy_of_string : string -> policy option
  val policies : policy list

  type t

  val create : ?priorities:int array -> policy:policy -> int -> t
  (** Arbiter for [n] tenants (owners [0 .. n-1]).  [priorities]
      (default all 0) is only consulted by the [Priority] policy.
      @raise Invalid_argument on [n <= 0], a length mismatch, or a
      negative priority. *)

  val tenants : t -> int

  val request : t -> owner:int -> at:int -> int -> int
  (** [request t ~owner ~at d] books a load of clean duration [d]
      starting no earlier than [at]; returns the effective duration
      ([>= d]) including any cross-tenant wait.  The channel's free time
      advances by the FIFO backlog plus [d] only — a policy penalty
      delays the {e requester} (it models being overtaken by co-tenant
      loads, whose own service fills the channel meanwhile), so
      penalties never compound into later tenants' waits.  Deterministic:
      same call sequence, same results; with a single tenant whose own
      exclusive channel already serializes its loads, the wait is always
      zero and [request] is the identity on [d]. *)

  val wait_of : t -> int -> int
  (** Cumulative cross-tenant wait cycles charged to the tenant. *)

  val contentions : t -> int
  (** Number of requests that found the channel busy. *)
end
