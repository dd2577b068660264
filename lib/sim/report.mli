(** Formatting helpers shared by the bench harness, CLI and examples. *)

val summary : Runner.result -> string
(** One line: workload, scheme, cycles, faults, preload stats. *)

val breakdown_table : Runner.result -> Repro_util.Table.t
(** Cycle accounting by category (compute / access / AEX / loads / ...). *)

val diagnostics_table : Runner.result -> Repro_util.Table.t
(** End-of-run {!Runner.diagnostics} (pending / in-flight preloads,
    residency vs capacity, truncation flag) as a two-column table. *)

val fault_latency_table : Runner.result -> Repro_util.Table.t
(** Raise-to-handled latency per fault resolution kind: count, mean,
    sparkline histogram.  Rows with zero faults show a dash. *)

val geomean_normalized : (Runner.result * Runner.result) list -> float
(** Geometric mean of normalized times over [(baseline, candidate)]
    pairs — the SPEC-style aggregate. *)

val ascii_scatter :
  width:int -> height:int -> (int * int) list -> max_x:int -> max_y:int -> string
(** Render (x, y) points into an ASCII scatter plot, for the Fig. 3
    access-pattern reproduction. *)

val fault_reduction : baseline:Runner.result -> Runner.result -> float option
(** Fraction of baseline faults eliminated ([Some 0.7] = 70% fewer);
    [None] when the baseline had no faults at all (the reduction is
    undefined, not zero — a 0-of-0 baseline says nothing about the
    candidate). *)

(** How gracefully a scheme degrades under a {!Fault_plan}, measured
    against the same (workload, scheme) cell run fault-free.  Rate
    fields are [None] when their denominator is zero (e.g. a scheme
    that never issued a preload has no abort {e rate}); tables render
    those as ["n/a"] instead of a misleading 0%. *)
type degradation = {
  overhead : float;
      (** Slowdown vs the fault-free run ([0.25] = 25% more cycles). *)
  fault_increase : float option;
      (** Fractional growth in total faults; [None] when the fault-free
          run had none. *)
  preload_abort_rate : float option;  (** Aborted / issued preloads. *)
  mispreload_rate : float option;
      (** Preloaded-but-evicted-unused / completed preloads — wasted
          channel work under the fault. *)
}

val degradation : fault_free:Runner.result -> Runner.result -> degradation
(** @raise Invalid_argument if the fault-free baseline has zero cycles. *)
