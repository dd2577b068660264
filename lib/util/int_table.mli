(** A table keyed by ints, for per-event lookups of small ids.

    Instruction sites and thread ids are small non-negative ints in every
    generated trace, so those keys index an array directly: no hashing,
    and {!find} allocates nothing.  Any other int (a negative id, or one
    from a plan or trace file far past the dense range) falls back to an
    int-specialised [Hashtbl], so every key works.

    The table is built around a [dummy] value: {!find}
    returns it for an unbound key instead of an option, so callers test
    the result with [==] against {!dummy}.  The dummy itself can never be
    bound, and values must not be floats, which physical equality cannot
    tell apart once an array unboxes them. *)

type 'a t

val create : dummy:'a -> 'a t

val dummy : 'a t -> 'a

val find : 'a t -> int -> 'a
(** The key's value, or {!dummy} when the key is unbound.  Allocates
    nothing. *)

val set : 'a t -> int -> 'a -> unit
(** Bind (or rebind) a key.
    @raise Invalid_argument if the value is physically the dummy. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Table order: the dense keys ascending, then the other keys in
    hash-table order.  Deterministic for a given sequence of {!set}s. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** In {!iter}'s order. *)
