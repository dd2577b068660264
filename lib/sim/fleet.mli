(** Multi-enclave fleet simulation: co-tenant enclaves over one EPC.

    The paper evaluates one enclave at a time and defers EPC-sharing
    fairness to future work (§5.6); this module promotes co-tenancy to a
    first-class model.  A fleet is N concurrent enclaves — each with its
    own trace, scheme and preloader — interleaved by virtual time over:

    - {b one EPC}, either a single {e shared} pool swept by a global
      CLOCK evictor whose frames carry owner tags (a tenant's load can
      evict a co-tenant's page: cross-tenant interference), or {e static
      partitions} sized [capacity/N] apiece;
    - {b one paging channel}, arbitrated across tenants under a
      scheduling policy (FIFO / per-enclave fair-share / priority) on
      top of whatever {!Fault_plan} jitter is active.

    The replay always advances the tenant whose private clock is
    furthest behind, so the shared structures observe accesses in global
    time order and the whole run is deterministic — a fleet of one in
    shared mode reproduces {!Runner.run} byte for byte (the differential
    test and CI lock), and partition-of-1 coincides with shared-of-1.

    Outputs per tenant: the ordinary {!Runner.result} plus arbiter wait
    cycles; across the fleet: the victim × aggressor interference table,
    checked against the eviction counters by {!Validate.check_fleet}. *)

type epc_mode = Shared | Partitioned

val mode_name : epc_mode -> string
val mode_of_string : string -> epc_mode option

type tenant = {
  label : string;
  trace : Workload.Trace.t;
  scheme : Preload.Scheme.t;
  priority : int;
      (** Weight under the [Priority] channel policy; ignored by the
          other policies. *)
}

val tenant :
  ?priority:int ->
  label:string ->
  scheme:Preload.Scheme.t ->
  Workload.Trace.t ->
  tenant
(** [priority] defaults to 1.  @raise Invalid_argument if negative. *)

type config = {
  epc_pages : int;  (** Total EPC frames across the whole fleet. *)
  costs : Sgxsim.Cost_model.t;
  log_capacity : int;
      (** Per-tenant event-log ring; 0 (the default) disables logging —
          a co-tenant's evictions land in the victim's log at the
          aggressor's clock, so fleet logs are not globally monotone. *)
  policy : Sgxsim.Load_channel.Arbiter.policy;
  mode : epc_mode;
}

val default_config : config
(** 2048 shared frames, paper costs, no logs, FIFO channel. *)

type outcome = {
  mode : epc_mode;
  policy : Sgxsim.Load_channel.Arbiter.policy;
  epc_pages : int;
  fault_plan : string;
  labels : string list;
  results : Runner.result list;  (** Tenant order. *)
  shared_pool : bool array;
      (** Which tenants actually share the global pool: [false] for
          every tenant in [Partitioned] mode and for Native tenants
          (which model unconstrained RAM and never contend). *)
  interference : int array array;
      (** [interference.(victim).(aggressor)]: evictions of [victim]'s
          pages performed by [aggressor]'s sweeps.  Diagonal =
          self-eviction; strictly diagonal in partitioned mode. *)
  triggered : int array;  (** Evictions performed, per aggressor. *)
  channel_waits : int array;
      (** Cycles each tenant's loads spent queued behind co-tenants at
          the arbiter (0 for a fleet of one). *)
  channel_contentions : int;  (** Arbiter requests that had to wait. *)
}

val run :
  ?config:config ->
  ?fault_plan:Fault_plan.t ->
  ?input_label:string ->
  ?online:Preload.Online.config ->
  tenant list ->
  outcome
(** Execute the fleet to completion (every tenant's full trace).  With
    one tenant and [Shared] mode, [results] is [[Runner.run ... ]],
    structurally equal field for field.  [online] attaches the adaptive
    controller to every non-Native tenant (each learns from its own
    stream; the controllers share nothing).
    @raise Invalid_argument on an empty fleet. *)

val check : outcome -> Validate.violation list
(** {!Validate.check_fleet} over this outcome. *)

val assert_valid : outcome -> unit
(** @raise Validate.Invalid when {!check} reports anything. *)

(** {1 The scheme × mode matrix} *)

type cell = { c_tag : string; c_mode : epc_mode; c_outcome : outcome }

val matrix :
  ?config:config ->
  ?fault_plan:Fault_plan.t ->
  ?input_label:string ->
  scheme_for:(string -> string -> Preload.Scheme.t) ->
  tags:string list ->
  modes:epc_mode list ->
  tenant list ->
  cell Job_pool.job list
(** One fleet-run job per (scheme tag, mode) cell, labelled
    ["fleet/<tag>/<mode>"], in tag-major order; run the list through
    {!Experiments.run_cells} (or {!Job_pool.run}).  [scheme_for tag
    label] supplies each tenant's scheme for the cell (called inside the
    worker — SIP plan profiling is paid per cell, not serialised through
    the parent); the tenants' traces are compiled while the list is
    built, before any cell forks, so workers share their arenas.  Every
    outcome passes {!assert_valid} in its worker.  The input [tenant]s'
    own [scheme] fields are placeholders. *)

(** {1 Report} *)

val interference_table : labels:string list -> int array array -> Repro_util.Table.t
(** Victim-major rows, one aggressor column each plus a row total. *)

val summary_lines : outcome -> string list
(** One {!Report.summary} line per tenant, label-prefixed — the CLI's
    [--summaries] output and the CI determinism diff. *)

val print_outcome : outcome -> unit
(** Per-tenant table (cycles, faults, fault rate, evictions suffered,
    channel wait), the interference table, and the contention count. *)

val print_cells : cell list -> unit
(** {!print_outcome} per cell plus, when both modes are present, the
    partition-vs-share total-cycles comparison per scheme. *)
