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

    The list is kept as records that never move plus an int array of
    their MRU order, so a promotion shifts ints, not pointers.  A fault
    allocates only its reaction: the predicted pages of an [Extend], and
    the new record of a [New_stream].  Each stream keeps the bounds of
    its pending pages, so the pending scan walks a stream's list only
    when the faulted page lies between them.  {!covers}, the classifiers'
    stream test, reads the same arrays. *)

type stream = private {
  mutable stpn : int;  (** Stream tail page number: the last faulted page. *)
  mutable dir : int;  (** +1 ascending, -1 descending, 0 undetermined. *)
  mutable pending : int list;
      (** Pages this stream asked to preload that are believed still
          queued; used for the within-window abort check.  Maintained by
          the caller via {!set_pending}. *)
  mutable pending_lo : int;
      (** Least page of [pending]; [max_int] when it is empty. *)
  mutable pending_hi : int;
      (** Greatest page of [pending]; [min_int] when it is empty. *)
}
(** Read-only outside this module: {!on_fault} and {!set_pending} keep
    the fields consistent. *)

type reaction =
  | Extend of { stream : stream; predict : int list }
      (** Sequential hit: preload [predict] (already tail-extended). *)
  | Restart_within of { stream : stream; abort : int list }
      (** The fault landed inside [stream]'s pending window: abort those
          queued preloads, the stream restarts at the faulted page. *)
  | New_stream of { stream : stream; replaced : stream option }
      (** Irregular fault: a fresh stream was inserted; [replaced] is the
          evicted LRU entry (its pending preloads should be aborted). *)

type t

val create :
  ?detect_backward:bool -> stream_list_length:int -> load_length:int -> unit -> t
(** [stream_list_length] is the paper's tuning knob of Fig. 6 (default
    sweet spot 30); [load_length] the preload distance of Fig. 7 (default
    sweet spot 4).  [detect_backward] (default [true]) lets streams run
    descending. *)

val load_length : t -> int
val stream_list_length : t -> int

val on_fault : t -> int -> reaction
(** Feed one fault (page number only — all the OS can see). *)

val set_pending : stream -> int list -> unit
(** Replace a stream's pending pages (and their bounds).  O(list). *)

val covers : t -> int -> bool
(** The §4.4 Class 2 test: does the page lie 1..[load_length] pages
    past some stream's tail, in the stream's direction (on either side
    while the direction is undetermined)?  That is the window DFP would
    have preloaded.  Reads the list without changing it and allocates
    nothing. *)

val streams : t -> stream list
(** Current entries, most recently used first (inspection/testing). *)

val reset : t -> unit
