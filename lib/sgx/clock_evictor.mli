(** CLOCK (second-chance) management of the EPC frame pool.

    Mirrors the Intel SGX driver's page reclaim: frames form a circular
    buffer over which a hand sweeps; a set access bit buys the page one
    more revolution.  The same structure hosts the periodic service-thread
    scan that clears access bits and — piggybacked, as in §4.2 of the
    paper — harvests "preloaded page was actually used" information for
    DFP's abort counters.

    Frames carry an {e owner} tag so one pool can be shared by a fleet of
    co-tenant enclaves: the sweep hands each frame's (owner, vpage) to
    the caller's probe, letting it consult the right page table per
    frame.  A single enclave tags every frame 0.

    Slots are handed out from a stack of free indices: a fresh pool fills
    slots 0, 1, 2, ... in order, and a freed slot is reused before any
    other (last freed, first reused).  The hand sweeps slots in index
    order, so this order decides which page a sweep meets first and is
    part of the simulated result. *)

type t

type verdict =
  | Pass
      (** Pinned: mid-return to a faulting thread.  Passed over with its
          access bit untouched, so it never ages toward victimhood. *)
  | Spare
      (** Access bit was set and the probe has cleared it: the page's
          second chance.  The hand moves on. *)
  | Take  (** Access bit clear: this frame is the victim. *)

exception No_evictable_page
(** The sweep exhausted its two-revolution budget without finding a
    victim: every resident frame is pinned (or kept permanently
    accessed).  Raised by {!choose_victim}; callers decide whether that
    is a drop-the-preload situation or a hard error. *)

val create : capacity:int -> t
(** An empty EPC with [capacity] frames.
    @raise Invalid_argument if [capacity <= 0]. *)

val capacity : t -> int

val used : t -> int
(** Frames currently holding a page. *)

val is_full : t -> bool

val insert : t -> owner:int -> int -> int
(** [insert t ~owner vpage] places a page into the most recently freed
    slot (the lowest never-used one on a fresh pool) and returns the slot
    index, to be recorded in the owner's page-table entry.  [owner] tags
    the frame for shared-pool sweeps.
    @raise Invalid_argument if full, if [vpage < 0], or if [owner] is
    outside the 16-bit tag range. *)

val remove : t -> slot:int -> unit
(** Free a frame by slot index (page evicted or enclave-destroyed); the
    slot is the next one {!insert} hands out.
    @raise Invalid_argument if the slot is already free. *)

val slot_owner : t -> int -> int
(** Owner tag of the page in a slot.
    @raise Invalid_argument if the slot is free or out of range. *)

val slot_vpage : t -> int -> int
(** Page held in a slot.
    @raise Invalid_argument if the slot is free or out of range. *)

val choose_victim : t -> (owner:int -> vpage:int -> verdict) -> int
(** [choose_victim t probe] runs the CLOCK sweep over a (possibly
    shared) pool.  From the hand onward, each occupied frame is shown to
    [probe], which reads the page's bits in its owner's page table and
    answers {!Pass} (pinned), {!Spare} (it has just cleared a set access
    bit) or {!Take}.  The first [Take] ends the sweep with the hand one
    past the victim; its slot is returned {e without} being freed —
    callers read it with {!slot_owner} / {!slot_vpage} and evict via
    {!remove} once the write-back completes.  The sweep allocates
    nothing.
    @raise Invalid_argument if the EPC is empty.
    @raise No_evictable_page if two full revolutions find no victim. *)

val scan : t -> (int -> unit) -> unit
(** [scan t f] visits every resident page once (service-thread pass);
    [f] receives the vpage.  Visit order is frame order, not recency. *)

val scan_owned : t -> (owner:int -> vpage:int -> unit) -> unit
(** {!scan} with the owner tag, for shared-pool walkers. *)

val resident : t -> int list
(** Resident vpages in frame order (testing/report helper). *)

val resident_by_owner : t -> (int * int) list
(** [(owner, frames held)] sorted by owner — the shared pool's view of
    who occupies what, checked by the fleet conservation invariant. *)
