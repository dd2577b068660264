(** Dense bitsets over [\[0, size)].

    This is the data structure behind the per-enclave page presence bitmap
    of SIP (§4.3 of the paper): one bit per enclave virtual page, shared
    between the enclave and the untrusted OS. *)

type t

val create : int -> t
(** All bits clear.  @raise Invalid_argument if [size < 0]. *)

val size : t -> int

val set : t -> int -> unit
val clear : t -> int -> unit
val mem : t -> int -> bool

val cardinal : t -> int
(** Number of set bits (O(words)). *)

val clear_all : t -> unit

val iter_set : (int -> unit) -> t -> unit
(** Visit indices of set bits in increasing order. *)

val copy : t -> t

val equal : t -> t -> bool
