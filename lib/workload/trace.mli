(** A named, replayable workload: a pattern plus its seed and address-space
    size.

    Replays are the backbone of the PGO flow — the profiling run and the
    measured run both see streams rebuilt from the trace's seed, so "run
    the same binary again" is exact.  Hot consumers replay through
    {!Trace_arena}, which drains the pattern's cursor once into packed
    buffers; {!events} is the same cursor as a [Seq] of records, for
    [record], {!Trace_stats} and the tests. *)

type stats = { length : int; distinct_pages : int }
(** Whole-stream statistics, cached on the trace after the first full
    materialisation (by {!Trace_arena.compile} or by the first
    {!count_distinct_pages} query). *)

type t = {
  name : string;
  elrange_pages : int;  (** Virtual address-space size (ELRANGE), pages. *)
  footprint_pages : int;  (** Distinct pages the workload touches. *)
  seed : int;
  pattern : Pattern.t;
  sites : (int * string) list;  (** Site id -> human label, for reports. *)
  mutable stats : stats option;
      (** Memoised {!stats}; not part of the trace's identity.  Filled
          through {!note_stats}, never written directly. *)
  mutable arena_key : string option;
      (** The {!Trace_arena} memo key this value compiled under, so a
          repeated compile of the same value skips the stream
          fingerprint.  Not part of the trace's identity.  Filled
          through {!note_arena_key}, never written directly. *)
}

val make :
  name:string -> elrange_pages:int -> footprint_pages:int -> seed:int ->
  sites:(int * string) list -> Pattern.t -> t

val cursor : t -> Pattern.slot -> Pattern.cursor
(** A fresh cursor over the stream, started from the stored seed on the
    given slot.  Successive calls yield identical streams. *)

val events : t -> Access.t Seq.t
(** A fresh single-consumption stream built from the stored seed.
    Successive calls yield identical streams.  Compatibility view: one
    [Access.t] record is allocated per step, and every call re-runs the
    PRNG pattern — replay loops should go through {!Trace_arena}. *)

val site_name : t -> int -> string
(** Label of a site (falls back to ["site<i>"]). *)

val note_stats : t -> length:int -> distinct_pages:int -> unit
(** Deposit whole-stream statistics computed elsewhere (the arena
    compiler calls this while packing).  First writer wins; the values
    are a pure function of the trace, so any writer agrees. *)

val note_arena_key : t -> string -> unit
(** Record the arena memo key computed at this value's first compile.
    First writer wins; the key is a pure function of the trace. *)

val length : t -> int
(** Number of events: {!Pattern.length}, computed from the pattern's
    parameters without a replay. *)

val count_distinct_pages : t -> int
(** Distinct pages touched.  O(1) once the trace has been compiled or
    queried before; one full replay (then cached) otherwise. *)
