(** The paper's evaluation, experiment by experiment.

    One entry per table and figure of §5 (plus the §1 motivation numbers
    and the Fig. 2/Fig. 4 timelines), each with a data function usable
    from tests and a printer that emits the same rows/series the paper
    reports, side by side with the paper's values where the paper states
    them.  A handful of ablations beyond the paper close the list. *)

type settings = {
  epc_pages : int;  (** Simulated usable EPC size. *)
  ref_input : Workload.Input.t;  (** Input for measurement runs. *)
  quick : bool;  (** Trim sweeps (used by tests). *)
  jobs : int;
      (** Worker processes per table ({!Job_pool}).  Every experiment's
          cells fan out across this many forked workers; results merge in
          submission order, so output is byte-identical at any value. *)
  cell_timeout : float option;
      (** Wall-clock seconds per cell attempt; a hung cell is SIGKILLed
          and retried/failed.  [None] (default) disables the watchdog
          and keeps the serial in-process fast path at [jobs = 1]. *)
  retries : int;  (** Extra attempts for a failing cell (default 0). *)
  keep_going : bool;
      (** Collect failing experiments instead of aborting the matrix:
          {!run_many} reports them on stderr and returns them, the other
          experiments still print. *)
  journal_dir : string option;
      (** Directory for per-table cell journals ({!Job_pool.run_hardened});
          enables [resume]. *)
  resume : bool;  (** Reuse journaled cells from an interrupted run. *)
}

val default : settings
(** 2048 EPC pages, ref input 0, full sweeps, serial, no hardening. *)

val quick : settings
(** Smaller EPC and trimmed sweeps for fast integration tests. *)

exception Cells_failed of Job_pool.failure list
(** Raised by a table whose cells exhausted their retry budget when any
    hardening option is active (with none active, the first failure
    raises as {!Job_pool.run} does).  Carries {e every} failed cell of
    the table, not just the first: a table fails whole and never prints
    with a cell missing. *)

(** {1 Workload catalog} *)

val find_model : string -> Workload.Spec.model option
(** Resolve a workload name across every family (SPEC models, SD-VBS
    vision kernels, multi-threaded extensions, synthetic boundary
    cases). *)

val workload_families : (string * string) list
(** Every name {!find_model} resolves, paired with its family/category
    label, in family order — the catalog behind the CLI's [list]. *)

val workload_names : unit -> string list
(** [List.map fst workload_families]. *)

val trace_of : settings -> string -> input:Workload.Input.t -> Workload.Trace.t
(** Build the named workload's trace at the settings' EPC size.
    @raise Invalid_argument on an unknown name. *)

val plan_for :
  ?threshold:float -> settings -> string -> Preload.Sip_instrumenter.plan
(** Profile the workload on the train input and derive its SIP plan —
    the PGO step every SIP/hybrid experiment (and the chaos matrix)
    shares. *)

val prewarm : settings -> ?input:Workload.Input.t -> string list -> unit
(** Compile each named workload's trace (on [input], default the ref
    input) into the process-wide arena memo.  Called before a matrix
    forks, so every worker inherits the compiled arenas copy-on-write
    instead of compiling its own. *)

val settings_key : settings -> string
(** The settings' contribution to a cell-journal key: journals written
    under one EPC size / input / sweep shape never satisfy another. *)

(** {1 The cell runner} *)

val run_cells :
  ?journal_key:string ->
  settings ->
  table:string ->
  'a Job_pool.job list ->
  ('a, Job_pool.failure) result list
(** The one runner behind every matrix: each experiment table, [chaos],
    [fleet] and [service].  With no hardening option set (no
    [cell_timeout], [retries = 0], no [keep_going], no [journal_dir]) it
    is {!Job_pool.run} over [settings.jobs] workers: every result is
    [Ok] and a failing cell raises.  Otherwise it is
    {!Job_pool.run_hardened}, journaling into
    [journal_dir/<table>.journal] under [journal_key] (default
    {!settings_key}).  One result per job, in submission order; each
    caller decides what a lost cell costs.  Labels must be unique within
    one call, because a journal answers every occurrence of a label with
    the first one's value. *)

val failures : ('a, Job_pool.failure) result list -> Job_pool.failure list
(** The lost cells of a {!run_cells} result, in submission order. *)

(** {1 Data access} *)

type improvement_row = {
  workload : string;
  scheme : string;
  normalized : float;  (** Execution time / baseline execution time. *)
  improvement : float;  (** [1. - normalized]. *)
  fault_reduction : float option;
      (** [None] when the baseline run had no faults (rendered "n/a"). *)
  stopped : bool;  (** DFP-stop fired during the run. *)
}

val intro_slowdown : settings -> float
(** §1: enclave-baseline time over native time for the sequential-scan
    microbenchmark (paper observed ~46x; the cost model alone yields
    tens-of-x). *)

val fig2_timelines : settings -> Sgxsim.Event.t list * Sgxsim.Event.t list
(** Baseline and DFP event logs of the didactic 4-page sequence. *)

val fig3_series : settings -> (string * (int * int) list) list
(** Per benchmark (bwaves, deepsjeng, lbm): downsampled
    (access index, page) points. *)

val fig4_costs : settings -> int * int
(** Didactic per-fault cost: (baseline fault path, SIP notify path). *)

val table1_rows : settings -> (string * string * int * float * float) list
(** Per benchmark: (name, paper category, footprint pages,
    footprint/EPC ratio, irregular access share from profiling). *)

val fig6_sweep : settings -> (int * (string * float) list) list
(** Stream-list-length sweep: for each length, (benchmark, normalized
    DFP time) for lbm and bwaves. *)

val fig7_sweep : settings -> (string * (int * float) list) list
(** LOADLENGTH sweep per large-working-set benchmark: (benchmark,
    [(loadlength, normalized time)]). *)

val fig8_rows : settings -> improvement_row list
(** DFP and DFP-stop improvement for every large-working-set benchmark. *)

val fig9_sweep : settings -> (float * float) list
(** SIP threshold sweep on deepsjeng (train input, as in the paper):
    [(threshold, normalized time vs un-instrumented)]. *)

val fig10_rows : settings -> (improvement_row * int) list
(** SIP improvement + instrumentation points for the SIP-supported set. *)

val fig12_rows : settings -> improvement_row list
(** SIP vs DFP vs hybrid for the C/C++ set. *)

val fig13_rows : settings -> improvement_row list
(** mixed-blood under SIP, DFP, and SIP+DFP. *)

val table2_rows : settings -> (string * int * int) list
(** (benchmark, measured instrumentation points, paper's count). *)

(** {1 Ablations beyond the paper} *)

val ablation_predictor_rows : settings -> improvement_row list
(** Multiple-stream vs next-line vs stride preloading. *)

val ablation_backward_rows : settings -> improvement_row list
(** Backward-stream detection on/off over a descending sweep. *)

val ablation_threads_rows : settings -> improvement_row list
(** Multi-threaded scan: DFP with per-thread stream lists (Algorithm 1's
    [find_stream_list(ID)]) vs one shared list. *)

val ablation_share_rows : settings -> (int * float * float) list
(** §5.6 EPC sharing: a fixed-footprint workload on a full, half and
    quarter EPC partition; per row (epc pages, baseline slowdown vs full
    EPC, DFP improvement within the partition). *)

val ablation_sip_all_rows : settings -> improvement_row list
(** Profile-guided SIP vs instrumenting every site (an Eleos-like
    check-everything runtime, security trade-offs aside). *)

(** {1 Driver} *)

val all : (string * string) list
(** [(experiment id, description)] in paper order. *)

val run : string -> settings -> unit
(** Run one experiment by id and print its report.
    @raise Invalid_argument on an unknown id. *)

val run_many : string list -> settings -> (string * string) list
(** Run the listed experiments in order.  With [settings.keep_going], an
    experiment whose cells fail is reported on stderr and recorded in
    the returned [(id, reason)] list while the rest continue; without
    it, the first failure propagates (empty return = all passed).  The
    CLI exits nonzero when the list is non-empty. *)
