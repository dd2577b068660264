(** The SIP instrumentation decision (§4.4, §5.2).

    Given a profile, select the memory-instruction sites to instrument
    with a preloading notification: every site whose share of Class 3
    (irregular) accesses exceeds the threshold.  The paper sweeps this
    threshold on deepsjeng (Fig. 9) and settles on 5%.

    Class 1-dominant sites are skipped (the page is almost always in
    EPC — a check would be pure overhead) and Class 2-dominant sites are
    left to DFP when the schemes are combined. *)

type decision = {
  site : int;
  counts : Sip_profiler.site_counts;
  ratio : float;  (** Class 3 share of the site's profiled accesses. *)
  instrument : bool;
}

type plan = {
  workload : string;
  threshold : float;
  decisions : decision list;  (** Sorted by site id. *)
}

val default_threshold : float
(** The paper's 5%. *)

val plan_of_profile : ?threshold:float -> Sip_profiler.t -> plan

val instrumented_sites : plan -> int list
(** Sites that get a notification, ascending. *)

val instrumentation_points : plan -> int
(** Number of instrumented sites — the Table 2 statistic. *)

val is_instrumented : plan -> int -> bool
(** Membership by list scan; fine for occasional queries. *)

val site_predicate : plan -> int -> bool
(** Build an O(1) membership test ({!Repro_util.Int_table}: no hashing
    for small site ids, no allocation per call); build it once per run
    and call it per access. *)

val empty_plan : workload:string -> plan
(** No instrumentation at all (what SIP produces when profiling finds
    only regular accesses, e.g. lbm / SIFT / the microbenchmark). *)

val pp : Format.formatter -> plan -> unit
