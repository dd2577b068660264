(** The SIP offline profiling pass (§3.2, §4.4).

    A profiling run replays the workload's full memory trace (the LLVM
    pass instruments every memory instruction in the paper) and classifies
    each access by the Algorithm-1 view of the page it touches:

    - {b Class 1}: the page was touched recently enough that it would be
      found in EPC with high probability;
    - {b Class 2}: the page extends (or sits within the preload window of)
      a detected sequential stream — DFP's territory;
    - {b Class 3}: neither — an irregular access likely to fault.

    Counts are aggregated per instruction site; {!Sip_instrumenter} turns
    them into instrumentation decisions. *)

type access_class = Class1 | Class2 | Class3

type site_counts = {
  mutable c1 : int;
  mutable c2 : int;
  mutable c3 : int;
}

type config = {
  stream_list_length : int;  (** Streams tracked while classifying. *)
  load_length : int;
      (** How far ahead of a stream tail still counts as Class 2. *)
  residency_pages : int;
      (** Size of the recent-page set standing in for EPC residency. *)
}

val default_config : residency_pages:int -> config
(** Paper-shaped defaults (list length 30, load length 4) with the
    residency set sized like the EPC under study. *)

type t = {
  workload : string;
  input : string;
  config : config;
  per_site : site_counts Repro_util.Int_table.t;
      (** Counts by site id; the dummy (all zero) stands for an unseen
          site. *)
  mutable total_accesses : int;
}

val profile : ?input:string -> config -> Workload.Trace.t -> t
(** Replay the trace and classify every access.  The residency set
    spans the trace's ELRANGE, so every page must lie inside it
    ([Invalid_argument] otherwise).  [input] labels which
    workload input produced the trace (e.g. ["train"]) and is carried
    verbatim into the profile's [input] field; default [""]. *)

val classify_one :
  Stream_predictor.t -> Repro_util.Page_lru.t -> int -> access_class
(** The classification step for a single page access, shared with
    {!Online}: checks residency, then stream cover
    ({!Stream_predictor.covers}), then falls through to Class 3.  Mutates
    both trackers as the profiling pass would.  A Class 1 access
    allocates nothing. *)

val site_counts : t -> int -> site_counts option

val sites : t -> (int * site_counts) list
(** All sites with at least one access, sorted by site id. *)

val irregular_ratio : site_counts -> float
(** [c3 / (c1+c2+c3)]; 0 for an empty site. *)

val totals : t -> site_counts
(** Whole-program class counts. *)
