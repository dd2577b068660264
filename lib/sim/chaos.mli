(** The chaos matrix: scheme grid × named fault plans, with
    graceful-degradation measurement and invariant enforcement.

    Each cell replays one (workload, scheme, fault plan) simulation,
    runs the full {!Validate} battery on it in the worker, and returns a
    slim record; the report prints, per workload, a degradation table
    against the same cell's fault-free run (overhead, fault increase,
    preload-abort and mispreload rates) plus every invariant violation.

    Cells are pure and the fault draws are position-keyed
    ({!Fault_plan}), so the whole matrix is byte-identical across [-j]
    values and across repeated runs with the same seed.  The matrix
    always runs on the hardened pool: a hung or dead cell is reported
    (and, with [keep_going], tolerated) without discarding its
    neighbours. *)

type settings = {
  epc_pages : int;
  input : Workload.Input.t;
  quick : bool;
  jobs : int;
  seed : int;  (** Re-seeds every plan in [plans]. *)
  plans : Fault_plan.t list;
  workloads : string list;
  cell_timeout : float option;
  retries : int;
  keep_going : bool;  (** Report failed cells instead of raising. *)
  journal_dir : string option;
  resume : bool;
  breaker : Preload.Breaker.config option;
      (** Attach a preload circuit breaker to every non-Native cell
          ([--breaker] on the CLI): hostile plans show the trip and its
          cost, clean plans show it staying Closed for free.  Part of
          the journal key. *)
  online : Preload.Online.config option;
      (** Attach the online adaptive controller to every non-Native cell
          ([--online] on the CLI): the matrix then doubles as the
          adversarial test of adaptation — the {!Validate} battery keeps
          checking controller legality while the fault plans perturb the
          signal it learns from.  Part of the journal key. *)
}

val default : settings
(** Full workload set, the whole {!Fault_plan.bank}, seed 42, serial. *)

val quick : settings
(** Two workloads; same plans.  For tests and CI smoke. *)

type cell = {
  workload : string;
  scheme : string;
  plan : string;
  cycles : int;
  faults : int;
  preloads_issued : int;
  preloads_aborted : int;
  preloads_completed : int;
  preload_evicted_unused : int;
  violations : string list;  (** Rendered {!Validate} violations; [[]] = ok. *)
}

type outcome = {
  cells : cell list;
      (** Grid order — workload-major, scheme, plan-minor. *)
  failed : Job_pool.failure list;
  violation_count : int;
}

val run : settings -> outcome
(** Execute the matrix.  @raise Experiments.Cells_failed if cells failed
    and [keep_going] is off. *)

val print_report : settings -> outcome -> unit
(** Degradation tables and the one-line summary to stdout; failed-cell
    details to stderr (stdout stays byte-identical across [-j]). *)

val ok : outcome -> bool
(** No failed cells and no invariant violations — the CLI's exit code. *)
