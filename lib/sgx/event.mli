(** Timeline event log.

    Optional per-run recording of what happened when, used by the Fig. 2 /
    Fig. 4 timeline reproductions and by integration tests that assert on
    event ordering.  Recording is off by default; experiments that need it
    attach a bounded ring. *)

type t =
  | Access of { at : int; vpage : int }
      (** In-EPC access completed at [at]. *)
  | Fault of { at : int; vpage : int }  (** Fault raised (AEX begins). *)
  | Aex_done of { at : int; vpage : int }
  | Load_start of { at : int; vpage : int; kind : Load_channel.kind }
  | Load_done of { at : int; vpage : int; kind : Load_channel.kind }
  | Eresume of { at : int; vpage : int }
  | Evict of { at : int; vpage : int }
  | Preload_queued of { at : int; vpage : int }
  | Preload_aborted of { at : int; count : int }
  | Sip_check of { at : int; vpage : int; present : bool }
  | Sip_notify of { at : int; vpage : int }
  | Scan of { at : int }
  | Crash of { at : int; pages_lost : int }
      (** Instance crash: every resident page and pending load was lost. *)

val at : t -> int
(** Timestamp of the event. *)

val vpage : t -> int option
(** Page concerned, if any. *)

val pp : Format.formatter -> t -> unit

type log
(** Bounded recorder. *)

val make_log : capacity:int -> log

val recording : log -> bool
(** Whether {!record} keeps what it is given.  Hot paths test this
    first and build an event only when it is [true], so a run with the
    null log allocates no events at all. *)

val record : log -> t -> unit
(** Append to the ring; a no-op on the null log. *)

val events : log -> t list
(** Chronological (oldest first), up to the ring capacity. *)

val recorded : log -> int
(** Total events ever recorded, including any the ring has since
    dropped.  0 for the null log. *)

val truncated : log -> bool
(** Whether the ring overflowed and dropped its oldest events.  Event
    counts can then no longer be cross-checked against metric counters. *)

val null_log : log
(** Discards everything; the default. *)
