(** Compiled trace arenas: the allocation-free replay path.

    {!compile} drains a {!Trace.t}'s pattern cursor once into packed
    [Bigarray] int columns (site, vpage, compute, thread), each
    allocated at the pattern's exact {!Pattern.length}, and
    hands back an arena whose {!iter}/{!fold} replay it as a tight index
    loop — no PRNG work, no per-access record allocation.  Arenas are
    memoised process-wide (keyed on the trace's identity: header fields,
    sites, and a fingerprint of the stream's first accesses) and, when
    [SGX_PRELOAD_ARENA_CACHE] names a directory, persisted through
    {!Trace_codec} so forked workers and repeated CLI invocations decode
    instead of regenerating.  Replays from an arena — memoised, decoded
    cold or decoded warm — are bit-identical to [Trace.events].

    Compiling also deposits the stream's distinct-page count on the
    trace ({!Trace.note_stats}), making [Trace.count_distinct_pages]
    O(1) afterwards, and records the memo
    key on the trace value ({!Trace.note_arena_key}), so compiling the
    same value again is a table lookup rather than a fingerprint
    replay. *)

type t

val compile : Trace.t -> t
(** Compile (or fetch the memoised / cached compilation of) a trace.
    A cache file that is truncated, corrupt, version-mismatched or for a
    different trace is treated as a miss and regenerated, never an
    error.
    @raise Invalid_argument if the pattern's stream does not deliver
    exactly {!Pattern.length} events (a generator bug), or when an event
    has a negative page or compute. *)

val derive : t -> tag:string -> length:int -> vpage:(int -> int -> int) -> t
(** [derive a ~tag ~length ~vpage] is the arena of [a]'s first
    [min length (length a)] events whose vpage column is
    [vpage i (vpage_of_a i)] for each index [i].  It shares [a]'s site,
    compute and thread columns (a prefix [Bigarray] sub when shortened)
    and owns its one new vpage column.

    Memoised in the process memo under [a]'s key plus [tag], so
    [clear_memo] drops it with its base; [tag] must determine [length]
    and [vpage] completely.  Never written to the disk cache.  Its
    {!length} and {!distinct_pages} are its own, and deriving never
    touches the base trace's stats; {!trace} is the base trace. *)

val trace : t -> Trace.t
val length : t -> int
val distinct_pages : t -> int

(** {1 Replay} *)

val iter :
  t -> f:(site:int -> vpage:int -> compute:int -> thread:int -> unit) -> unit
(** In-order replay; the callback receives unboxed ints, so the loop
    allocates nothing per access. *)

val iter_range :
  t ->
  lo:int ->
  hi:int ->
  f:(site:int -> vpage:int -> compute:int -> thread:int -> unit) ->
  unit
(** [iter] over indices [\[max lo 0, min hi (length t))] — the fused
    replay's chunking primitive (each scheme instance replays one
    cache-sized block of the columns before the next instance takes
    it). *)

val fold :
  t ->
  init:'a ->
  f:('a -> site:int -> vpage:int -> compute:int -> thread:int -> 'a) ->
  'a

val site : t -> int -> int
val vpage : t -> int -> int
val compute : t -> int -> int
val thread : t -> int -> int
(** Indexed column access (bounds-checked). *)

val get : t -> int -> Access.t
(** Indexed access as a record (allocates; for spot queries). *)

val to_seq : t -> Access.t Seq.t
(** The arena as a sequence — drop-in for [Trace.events] where a [Seq]
    is structurally required (e.g. the reference fault-plan trace
    perturbation). *)

(** {1 Cache plumbing} *)

val cache_env_var : string
(** ["SGX_PRELOAD_ARENA_CACHE"]: directory for the on-disk cache (created
    on first store).  Unset or empty disables persistence; the in-process
    memo always applies. *)

val cache_dir : unit -> string option

val cache_path : Trace.t -> string option
(** Where this trace's compilation lives (or would live) on disk, when
    the cache is enabled.  Costs a fingerprint prefix replay. *)

val compilations : unit -> int
(** Number of full stream materialisations this process has performed —
    memo and disk-cache hits do not count.  Tests pin "one compilation
    per trace" on this. *)

val clear_memo : unit -> unit
(** Drop the in-process memo, derived arenas included (tests use this to
    force the disk path). *)
