(** Per-enclave virtual page table.

    One entry per page of the enclave linear address range (ELRANGE).  The
    simulator works at page granularity throughout — SGX clears the bottom
    12 bits of faulting addresses before the OS sees them (§3.1), so page
    numbers are the finest information any scheme can observe.

    Entries are packed one integer word per page in an off-heap
    [Bigarray], so a million-page ELRANGE costs the GC nothing to mark —
    which is what keeps several simultaneously-live enclaves (the fused
    replay) from multiplying major-collection work — and an entry probe
    is a single indexed load. *)

type provenance =
  | Demand  (** Loaded by the ordinary fault path. *)
  | Preloaded
      (** Loaded ahead of demand by DFP.  Whether the CLOCK service scan
          has already credited the page to the [AccPreloadCounter] (§4.2)
          is tracked separately: see {!counted} / {!set_counted}. *)

type t

val create : pages:int -> t
(** All pages absent.  @raise Invalid_argument if [pages <= 0]. *)

val pages : t -> int

val present : t -> int -> bool
(** Resident in EPC.  @raise Invalid_argument if the page number is out
    of ELRANGE (as do all the per-page accessors below). *)

val accessed : t -> int -> bool
(** PTE access bit, cleared by the scan. *)

val preloaded : t -> int -> bool
(** Provenance of the page's current (or, if absent, most recent)
    residency: [true] iff it came in as a speculative preload. *)

val counted : t -> int -> bool
(** Whether the service scan already credited this page's first use to
    the [AccPreloadCounter] — prevents double counting. *)

val set_counted : t -> int -> unit

val provenance : t -> int -> provenance

val slot : t -> int -> int
(** Index of the EPC frame slot holding this page, [-1] if absent.
    Maintained by {!Clock_evictor}. *)

val resident_count : t -> int
(** Number of present pages (O(1), maintained incrementally). *)

val mark_loaded : t -> int -> prov:provenance -> slot:int -> unit
(** Transition a page to present.  Demand loads come in with the access
    bit set (they are about to be touched); preloads come in clear, which
    is exactly the §4.2 bookkeeping.  Rewrites the provenance and counted
    state: a reloaded page starts a fresh counted life.
    @raise Invalid_argument if already present. *)

val mark_evicted : t -> int -> unit
(** Transition a page to absent.  @raise Invalid_argument if absent. *)

val touch : t -> int -> unit
(** Set the access bit of a present page (app-side memory access). *)

val clear_accessed : t -> int -> unit
(** Clear the access bit (CLOCK sweep's second-chance clear). *)

val pinned : t -> int -> bool
(** Whether the page is pinned: mid-return to a faulting thread, so the
    CLOCK sweep must pass it over (see {!Clock_evictor.choose_victim}).
    The bit lives in the same packed word as presence and the slot. *)

val pin : t -> int -> unit
(** Pin a present page.  @raise Invalid_argument if absent. *)

val unpin : t -> int -> unit
(** Clear the pinned bit (no-op if it was clear). *)

val drain_touched : t -> f:(int -> unit) -> unit
(** Visit every page whose access bit is currently set, then clear the
    bit — the service scan's harvest-and-clear sweep, at O(pages touched
    since the last drain) instead of O(frames resident).  [f] runs while
    the page's bit is still set and must not set access bits itself.
    Visit order is bit-setting order (first set first), not frame order;
    callers must be order-independent (the scan's counter harvesting
    is). *)
