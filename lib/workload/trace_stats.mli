(** Offline workload characterisation.

    Computes the quantities Table 1 of the paper classifies benchmarks by
    (working-set size, regularity) plus the standard locality curves used
    to sanity-check the synthetic models: an LRU miss-ratio curve (what
    fraction of accesses would fault at a given EPC size) and the
    distribution of sequential run lengths in the page stream. *)

type t = {
  events : int;
  distinct_pages : int;
  sites : int;
  threads : int;
  total_compute : int;
  sequential_pairs : int;
      (** Adjacent consecutive accesses ([|Δpage| = 1]), the raw material
          of stream detection. *)
  same_page_pairs : int;  (** Consecutive accesses to the same page. *)
  run_length_mean : float;
      (** Mean length (in pages) of maximal ±1-step runs.  A same-page
          repeat terminates the run in progress (it neither extends it
          nor bridges it across the repeat: [A, A, A+1] is two runs) and
          the repeated page starts a fresh candidate run. *)
  hot_persistence : float;
      (** How much of one window's hot set survives into the next: the
          stream is split into 16 equal windows, each window's top-64
          pages by access count are its hot set (ties to the lower page
          number), and this is the mean of
          [|top(w) ∩ top(w+1)| / |top(w)|] over consecutive non-empty
          windows (0.0 with fewer than two non-empty windows).  1.0 = a
          stable hot set the whole run; near 0 = the hot set turns over
          every window, so learned page labels go stale as fast as an
          online classifier can earn them. *)
}

val analyse : Trace.t -> t
(** One replay of the trace (O(events)). *)

val miss_ratio : Trace.t -> epc_pages:int -> float
(** Fraction of accesses that miss an LRU set of [epc_pages] pages — a
    fast approximation of the baseline fault rate at that EPC size.  The
    trace's pages must lie inside its ELRANGE.
    @raise Invalid_argument if [epc_pages <= 0]. *)

val miss_ratio_curve : Trace.t -> epc_pages:int list -> (int * float) list
(** {!miss_ratio} at several sizes, one replay per size. *)

val pp : Format.formatter -> t -> unit
