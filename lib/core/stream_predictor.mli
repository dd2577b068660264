(** Algorithm 1: the multiple-stream page-fault predictor.

    A fixed-length LRU list of streams; each entry records the stream's
    tail page number ([stpn]).  On a fault with new page number [npn]:

    - if [npn] falls inside an entry's {e still-pending} preload window,
      the application skipped ahead of the loader: that preloading is
      aborted and [npn] restarts the stream (the paper's
      page(5)-while-loading-page(3) example in §4.1);
    - else if [npn] continues some entry (within [LOADLENGTH]+1 pages of
      its tail in the stream's direction — in steady state the preloaded
      pages never fault, so a live stream's next fault lands exactly
      [LOADLENGTH]+1 past the tail), the tail becomes [npn], the entry
      moves to the list head, and the following [LOADLENGTH] pages are
      predicted for preloading;
    - otherwise the least-recently-used entry is replaced by a fresh
      stream starting at [npn].

    Streams acquire a direction (ascending or descending) from their
    second sequential fault; until then both neighbours count as
    sequential.

    The list is flat: the scalar state of each MRU position (tail,
    direction, pending bounds, row slot) is a run of ints in one int
    array, and each stream's pending pages are a row of one flat int
    array.
    A promotion shifts ints, so it takes no write barrier, and
    {!on_fault} allocates nothing: it returns a constant {!verdict} and
    leaves the stream it touched at the head, where the caller reads
    the tail, the direction and the pending pages through the [head_*]
    accessors, and the pages to abort through {!dropped}.  Each stream
    keeps the bounds of its pending pages, so the pending scan walks a
    row only when the faulted page lies between them.  {!covers}, the
    classifiers' stream test, reads the same arrays. *)

type verdict =
  | Extend
      (** Sequential hit: the head's tail advanced to the fault and its
          direction is set; preload the [LOADLENGTH] pages past it
          ({!head_tail} [+ dir * i]).  Nothing is dropped. *)
  | Restart_within
      (** The fault landed inside the head's pending window: the head
          restarted at the faulted page with no direction, and its
          pending pages moved to {!dropped} (abort those queued
          preloads). *)
  | New_stream
      (** Irregular fault: a fresh stream is at the head.  If the list
          was full it replaced the LRU entry, whose pending pages are in
          {!dropped} (none when it had none, or when a free entry was
          used). *)

type t

val create :
  ?detect_backward:bool -> stream_list_length:int -> load_length:int -> unit -> t
(** [stream_list_length] is the paper's tuning knob of Fig. 6 (default
    sweet spot 30); [load_length] the preload distance of Fig. 7 (default
    sweet spot 4).  [detect_backward] (default [true]) lets streams run
    descending. *)

val load_length : t -> int
val stream_list_length : t -> int

val on_fault : t -> int -> verdict
(** Feed one fault (page number only — all the OS can see).  Allocates
    nothing. *)

(** {1 The head stream}

    Valid after the first {!on_fault}; each raises [Invalid_argument] on
    an empty list. *)

val head_tail : t -> int
(** The head's tail page number: the last page it faulted on. *)

val head_dir : t -> int
(** The head's direction: +1 ascending, -1 descending, 0 undetermined. *)

val head_pending_count : t -> int

val head_pending : t -> int -> int
(** [head_pending t i] is the head's [i]-th pending page
    ([0 <= i < head_pending_count t]), oldest first: a page the stream
    asked to preload that is believed still queued.  The caller
    maintains the list with the three functions below. *)

val set_head_pending : t -> int -> int -> unit
(** [set_head_pending t i page] overwrites the head's [i]-th pending
    page.  With {!truncate_head_pending} it filters the list in place:
    write the kept pages to the front, then truncate. *)

val truncate_head_pending : t -> int -> unit
(** [truncate_head_pending t n] keeps the head's first [n] pending pages
    and recomputes the window bounds over them.  O(n). *)

val push_head_pending : t -> int -> unit
(** Append a page to the head's pending pages.  Amortized O(1): the
    rows all double together when one outgrows them, so they grow only
    past the deepest window seen so far. *)

(** {1 Dropped pages} *)

val dropped_count : t -> int
(** Pages the last {!on_fault} took off a stream: the restarted head's
    pending pages after [Restart_within], the replaced LRU stream's
    after [New_stream], 0 after [Extend]. *)

val dropped : t -> int array
(** The predictor's buffer of those pages: entries [0, dropped_count)
    are valid, in pending order.  Read-only for the caller, and
    overwritten by the next {!on_fault}. *)

(** {1 Queries} *)

val covers : t -> int -> bool
(** The §4.4 Class 2 test: does the page lie 1..[load_length] pages
    past some stream's tail, in the stream's direction (on either side
    while the direction is undetermined)?  That is the window DFP would
    have preloaded.  Reads the list without changing it and allocates
    nothing. *)

type stream = { stpn : int; dir : int; pending : int list }
(** A snapshot of one entry: tail, direction, pending pages. *)

val streams : t -> stream list
(** Current entries, most recently used first (inspection/testing;
    allocates the snapshot). *)

val reset : t -> unit
