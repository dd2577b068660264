(** Execute a workload trace against a simulated enclave under a scheme.

    This is the reproduction's measurement harness: one [run] call is one
    "execution" of the paper's methodology (they run each binary under
    Graphene-SGX and read wall-clock time; we replay the trace and read
    the cycle counter). *)

type config = {
  epc_pages : int;
      (** Usable EPC frames.  The default, 2048 (8 MB), keeps the full
          experiment matrix fast; workload footprints scale with it. *)
  costs : Sgxsim.Cost_model.t;
  log_capacity : int;  (** Event-log ring size; 0 disables logging. *)
}

val default_config : config

val resolution_name : Sgxsim.Enclave.fault_resolution -> string
(** Stable label ("already-present" / "waited-in-flight" /
    "demand-load") used by reports and exports. *)

type restart_policy =
  | Cold  (** Restart with an empty EPC: every page faults back in. *)
  | Rewarm
      (** Restart and immediately re-request the pre-crash resident set
          through the ordinary preload path (subject to the breaker gate
          and the usual disposition accounting). *)

val restart_policy_name : restart_policy -> string
(** ["cold"] / ["rewarm"]. *)

val restart_policy_of_string : string -> (restart_policy, string) result
(** Inverse of {!restart_policy_name}; [Error reason] on anything else. *)

(** The run specification: every cross-cutting knob of a replay in one
    validated record.  This replaces the
    [?config ?fault_plan ?input_label ?restart ?breaker] optional-arg
    sprawl the run entry points (and each driver above them) used to
    mirror — the online controller arrives as a field here, not as a
    sixth argument.  Build with {!Spec.make} (validating) or start from
    {!Spec.default} and override fields. *)
module Spec : sig
  type t = {
    config : config;
    fault_plan : Fault_plan.t;
        (** Default {!Fault_plan.none}: the unperturbed simulation. *)
    input_label : string;  (** Reported as [result.input]. *)
    restart : restart_policy;  (** Post-crash policy (default [Cold]). *)
    breaker : Preload.Breaker.config option;
        (** Attach the preload circuit breaker (never on Native). *)
    online : Preload.Online.config option;
        (** Attach the online adaptive controller (never on Native).
            The controller takes whatever actuation slots the base
            scheme left free: on [Baseline] it owns both the mode-gated
            DFP and the dynamic SIP predicate; a scheme with its own
            fault-hook preloader keeps it, and a static plan keeps its
            predicate.  Results carry a ["+online"] scheme-name
            suffix. *)
  }

  val default : t
  (** All defaults: paper config, no fault plan, no breaker, no
      controller, cold restarts, empty input label. *)

  val make :
    ?config:config ->
    ?fault_plan:Fault_plan.t ->
    ?input_label:string ->
    ?restart:restart_policy ->
    ?breaker:Preload.Breaker.config ->
    ?online:Preload.Online.config ->
    unit ->
    t
  (** Validating constructor: raises [Invalid_argument] on a
      non-positive EPC, a negative log capacity, or an invalid
      breaker/online config (via their own [validate]).  Omitted fields
      take the {!default} values. *)
end

type diagnostics = {
  pending_preloads : int;  (** Preloads still queued at end of run. *)
  in_flight_preloads : int;
      (** Speculative loads (DFP {e or} SIP kind) mid-load at end of run
          (0/1).  A demand load in flight does not count. *)
  in_flight_kind : Sgxsim.Load_channel.kind option;
      (** Kind of the load occupying the channel at end of run, if any;
          lets {!Validate} attribute the dangling load to the right
          disposition identity. *)
  events_truncated : bool;
      (** The event ring overflowed: [events] is only the tail, so event
          counts cannot be cross-checked against metric counters. *)
  resident_at_end : int;
      (** Pages resident in EPC when the replay finished; {!Validate}
          checks page conservation against the event log and
          [epc_capacity]. *)
  restarts : int;
      (** Crash–restart cycles completed.  In a trace replay restart is
          charged atomically with the crash, so this equals
          [Metrics.crashes]; {!Validate.check_resilience} enforces it. *)
  breaker_state : Preload.Breaker.state option;
      (** Final breaker state; [None] when no breaker was attached. *)
  breaker_trips : int;  (** Transitions into Open. *)
  breaker_transitions : Preload.Breaker.transition list;
      (** Full chronological state-change log, checked for legality by
          {!Validate.check_resilience}. *)
  online : Preload.Online.summary option;
      (** End-of-run controller snapshot (final mode, transition and
          label-change logs, per-site classification totals); [None]
          when no controller was attached.  Checked by
          {!Validate.check_online}. *)
}
(** End-of-run diagnostic state.  One typed value consumed by
    {!Validate}, {!Report} and {!Trace_export}; grows here rather than
    as loose fields on {!result}. *)

type result = {
  workload : string;
  input : string;
  scheme : string;
  fault_plan : string;
      (** Name of the {!Fault_plan} the run executed under
          (["fault-free"] when none was given). *)
  cycles : int;  (** Total simulated execution time ([Metrics.total_cycles]). *)
  final_now : int;
      (** The simulated clock when the replay finished.  Must equal
          [cycles]; [Validate] enforces the identity. *)
  costs : Sgxsim.Cost_model.t;  (** Cost model the run actually used. *)
  metrics : Sgxsim.Metrics.t;
  events : Sgxsim.Event.t list;  (** Empty unless logging was enabled. *)
  diagnostics : diagnostics;
  fault_latency : (Sgxsim.Enclave.fault_resolution * Repro_util.Histogram.t) list;
      (** Raise-to-handled latency histogram per fault resolution kind.
          The histograms auto-expand, so the overflow bucket is empty on
          a healthy run ({!Validate} checks). *)
  dfp_stopped : bool;  (** Whether the §4.2 safety valve fired. *)
  instrumentation_points : int;  (** 0 for non-SIP schemes. *)
  epc_capacity : int;  (** EPC frames the run was configured with. *)
}

val run : ?spec:Spec.t -> scheme:Preload.Scheme.t -> Workload.Trace.t -> result
(** Replay the trace once, from its compiled {!Workload.Trace_arena}
    (compiling it on first use; see the arena's memo/cache), under
    [spec] (default {!Spec.default}).  [Native] schemes run with the
    native cost model and an effectively unbounded EPC (the machine's
    RAM); fault-plan EPC-budget and channel-jitter hooks do not apply to
    it (there is no enclave to perturb), so Native cycles are invariant
    across fault plans up to trace corruption.  The spec's fault plan
    perturbs the run at the plan's injection points; a stale plan
    scrambles the SIP plan before attachment, and a corrupted trace
    replays its {!Fault_plan.perturb_arena}, derived once per process
    and identical on every replay (the draws are seeded by event
    index). *)

val run_fused :
  ?spec:Spec.t -> schemes:Preload.Scheme.t list -> Workload.Trace.t ->
  result list
(** Replay the trace {e once}, driving one independent simulation
    instance per scheme off the single pass.  Results come back in
    [schemes] order and are field-for-field identical to
    [List.map (fun s -> run ~scheme:s trace) schemes]: instances share
    nothing mutable, each advances its own clock, and under a
    trace-corrupting plan all instances replay the one perturbed arena
    each solo run would have replayed.  The win is wall-clock: the arena
    is decoded and iterated once per trace instead of once per cell.
    [run] is the singleton case. *)

(** {1 Single-instance machinery}

    The pieces [run_fused] is built from, exposed so {!Fleet} can drive
    several enclaves against {e different} traces under one shared EPC —
    a shape the scheme-fan-out of [run_fused] (one trace, many schemes)
    cannot express.  The contract: [make_instance] + per-event [step]s
    + [finalize] is exactly one [run]. *)

type instance = {
  i_scheme : Preload.Scheme.t;  (** Post stale-plan scramble. *)
  enclave : Sgxsim.Enclave.t;
  log : Sgxsim.Event.log;
  dfp : Preload.Dfp.t option;
  fault_latency_h :
    (Sgxsim.Enclave.fault_resolution * Repro_util.Histogram.t) list;
  sip_site : int -> bool;
  i_costs : Sgxsim.Cost_model.t;
  mutable now : int;  (** The instance's private simulated clock. *)
  i_fault_plan : Fault_plan.t;
  i_crash : Fault_plan.crash_fault option;
      (** [None] for Native or a crash-free plan — crash handling inert. *)
  i_crash_key : int;
      (** Instance index in the crash draw chain (the [owner] tag, 0 for
          a solo run), so fleet members crash independently. *)
  i_restart : restart_policy;
  i_breaker : Preload.Breaker.t option;
  i_online : Preload.Online.t option;
  mutable crash_window : int;
      (** Highest crash window already evaluated (-1 initially). *)
  mutable restarts : int;
}
(** One scheme's complete simulation state within a (possibly fused or
    fleet) replay.  Instances never share mutable state beyond an
    explicitly shared EPC pool. *)

val make_instance :
  ?epc:Sgxsim.Clock_evictor.t ->
  ?owner:int ->
  spec:Spec.t ->
  trace:Workload.Trace.t ->
  Preload.Scheme.t ->
  instance
(** Build a ready-to-step instance under [spec]: scrambles a stale SIP
    plan, creates the enclave, installs the plan's per-instance
    channel-jitter and EPC-budget samplers (non-Native only), attaches
    the preloader, the optional online controller (on
    the actuation slots the scheme left free), the optional circuit
    breaker (chained after everything; never on Native) and the latency
    histograms.  A fleet passes the shared [epc] pool and per-tenant
    [owner] tag; both are ignored for Native (which models
    unconstrained RAM and must not contend for EPC). *)

val check_crash : instance -> unit
(** Evaluate the crash schedule up to the instance's current clock:
    every not-yet-judged crash window gets its seeded draw; the first
    that fires crashes the enclave at [now], charges the restart delay
    to [cyc_restart] {e and} the clock (preserving the cycle identity),
    then rewarns under [Rewarm].  Called by {!step} before each event;
    exposed for drivers (e.g. [Service]) that advance clocks outside
    [step]. *)

val step :
  instance -> site:int -> vpage:int -> compute:int -> thread:int -> unit
(** Replay one trace event: crash-schedule check, compute span, then the
    (SIP-checked or plain) access, advancing the instance's private
    clock. *)

val finalize : spec:Spec.t -> trace:Workload.Trace.t -> instance -> result
(** Drain background work at the instance's final clock and package the
    {!result}.  Pass the same spec the instance was built with. *)

val improvement : baseline:result -> result -> float
(** Fractional improvement of a result over the baseline run
    ([0.114] = 11.4% faster; negative = overhead). *)

val normalized_time : baseline:result -> result -> float
(** Execution time normalized to the baseline ([< 1.] is faster). *)
