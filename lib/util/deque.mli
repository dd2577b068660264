(** Growable ring-buffer deque: O(1) [push_back]/[pop_front], O(n) scans.

    This is the index structure behind the load channel's pending-preload
    FIFO: entries are appended at the tail, started from the head, and
    logically deleted in place (the channel layers lazy deletion on top,
    so removals never shift elements).

    [dummy] is a throwaway element used to fill unused slots (a plain
    ['a array] backs the deque).  The head accessors return it for an
    empty deque instead of boxing their result in an option, so callers
    either check {!is_empty} first or use a recognizable dummy. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** Fresh empty deque.  [capacity] (default 8) is the initial allocation,
    rounded up to a power of two; the buffer doubles as needed. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push_back : 'a t -> 'a -> unit
(** Append at the tail; amortized O(1). *)

val front : 'a t -> 'a
(** Head element, not removed; [dummy] when empty.  Allocation-free. *)

val pop_front : 'a t -> 'a
(** Remove and return the head element; [dummy] (and no change) when
    empty.  Allocation-free. *)

val clear : 'a t -> unit
(** Drop every element (slots are reset to [dummy]). *)

val iter : ('a -> unit) -> 'a t -> unit
(** Front-to-back. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
(** Front-to-back. *)
