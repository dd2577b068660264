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
    raises {!Job_pool.Job_failed} as before).  Carries {e every} failed
    cell of the table, not just the first. *)

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

val table1_miss_ratios : settings -> (string * float) list
(** LRU miss ratio of each benchmark at the configured EPC size (the
    baseline fault-rate estimate shown alongside Table 1). *)

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

val fig11_rows : settings -> improvement_row list
(** SIFT and MSER under DFP and SIP. *)

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

val ablation_epc_rows : settings -> (int * float) list
(** Microbenchmark DFP improvement vs EPC size. *)

val ablation_scan_rows : settings -> (int * float * bool) list
(** roms DFP-stop normalized time and stop status vs CLOCK scan period. *)

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

val ablation_oram_rows : settings -> improvement_row list
(** DFP / DFP-stop on the boundary workloads: ORAM-style randomness
    (§3.1), an adversarial pair-walk, and an ideal endless stream. *)

val online_rows : settings -> improvement_row list
(** E-online: the online adaptive controller (zero training input,
    scheme [Baseline] plus {!Preload.Online.default_config} in the
    spec) against the PGO rows — SIP, DFP-stop and the hybrid — on
    phased and single-behaviour workloads.  The online rows' scheme
    label carries the ["+online"] suffix. *)

val online_epc_rows :
  settings -> (string * float * float * Preload.Online.summary) list
(** E-online's variable-EPC axis: mixed-blood under a fault-free plan
    and a co-tenant frame-stealing plan ({!Fault_plan.noisy_neighbor}'s
    [epc_budget] squeeze).  Per row (plan name, PGO-SIP normalized time,
    online normalized time, the online controller's summary). *)

(** {1 Driver} *)

val all : (string * string) list
(** [(experiment id, description)] in paper order. *)

val run : string -> settings -> unit
(** Run one experiment by id and print its report.
    @raise Invalid_argument on an unknown id. *)

val run_all : settings -> unit

val run_many : string list -> settings -> (string * string) list
(** Run the listed experiments in order.  With [settings.keep_going], an
    experiment whose cells fail is reported on stderr and recorded in
    the returned [(id, reason)] list while the rest continue; without
    it, the first failure propagates (empty return = all passed).  The
    CLI exits nonzero when the list is non-empty. *)
