(** Open-loop request serving: preloading as a tail-latency story.

    The paper scores schemes by whole-trace cycle totals, but a
    production enclave serves {e requests}; what a serving stack buys
    from preloading is fewer faults on the critical path of each call,
    i.e. a shorter latency tail.  This harness dispatches short slices
    of a workload's trace as requests into a pool of warm enclave
    instances (the {!Runner} single-instance machinery, exactly as the
    fleet uses it), charges the enclave call boundary
    ({!Sgxsim.Cost_model.transition_cost}: EENTER+EEXIT, or the
    switchless mailbox handoff) per request at the service layer, and
    reports per-scheme latency percentiles, throughput and
    SLO-violation counts.

    {b Determinism.}  Arrivals are a pure function of the config's seed
    ({!arrival_times}); the per-instance schedule breaks ties by index;
    and {!matrix} fans cells through {!Job_pool}, so output is
    byte-identical at any [-j] and across reruns with the same seed.
    Transition cycles are charged on the service timeline only — never
    to the instance clock — so every finalized instance run still
    satisfies {!Validate.check}'s cycle identity. *)

type arrival_process =
  | Poisson  (** Exponential inter-arrival gaps with mean [mean_gap]. *)
  | Bursty of { burst : int }
      (** Whole bursts of [burst] requests arrive at one instant;
          inter-burst gaps scale by [burst] to hold offered load. *)
  | Diurnal of { period : int; swing : float }
      (** Sinusoidally modulated rate: local mean gap swings by
          [±swing] around [mean_gap] over one [period] (cycles). *)

type resilience = {
  deadline : int option;
      (** Per-attempt latency bound in cycles; an attempt finishing
          later than [dispatch + deadline] has failed its round.
          [None] = attempts never fail. *)
  retries : int;
      (** Retry rounds after the first attempt; round [r+1] dispatches
          at [dispatch_r + deadline + retry_backoff * 2^r] on a
          different instance (pool permitting).  Requires a deadline. *)
  retry_backoff : int;  (** Base backoff in cycles, doubling per round. *)
  hedge_after : int option;
      (** Launch a duplicate attempt on another instance once the
          primary has been outstanding this many cycles; the first
          completion wins (ties to the primary), the loser is cancelled
          and counted — it can never double-complete the request.
          Needs [pool > 1]; [None] disables hedging. *)
  restart : Runner.restart_policy;
      (** Post-crash policy for every pool instance. *)
  breaker : Preload.Breaker.config option;
      (** Attach a preload circuit breaker to every pool instance. *)
  online : Preload.Online.config option;
      (** Attach the online adaptive controller to every pool instance
          (each learns from its own request stream; never on Native).
          The outcome's [scheme] label gains the ["+online"] suffix the
          per-instance results carry. *)
}

val no_resilience : resilience
(** The inert knobs: no deadline, no retries, no hedging, cold restarts,
    no breaker, no online controller.  With a crash-free plan, {!run}
    under [no_resilience] is field-for-field the pre-resilience service
    loop. *)

type config = {
  epc_pages : int;  (** EPC frames per warm instance. *)
  costs : Sgxsim.Cost_model.t;
  pool : int;  (** Warm enclave instances serving in parallel. *)
  requests : int;  (** Requests dispatched (the open-loop total). *)
  request_events : int;  (** Trace events replayed per request. *)
  mean_gap : int;  (** Mean inter-arrival gap in cycles. *)
  arrivals : arrival_process;
  seed : int;  (** Seeds the arrival generator. *)
  slo : int;  (** Latency objective in cycles; above it is a violation. *)
  switchless : bool;
      (** Charge the switchless mailbox handoff instead of EENTER+EEXIT. *)
  horizon : int option;
      (** Requests completing past this cycle count as in-flight
          (latency unrecorded); [None] completes everything.  Must be
          positive when given ({!arrival_times} validates). *)
  resilience : resilience;
}

val default_config : config
(** Poisson arrivals at ~50% pool utilisation for paper-cost traces:
    pool 4, 400 requests of 400 events, mean gap 2.5M cycles, SLO 30M
    cycles, seed 1, synchronous calls, no horizon, {!no_resilience}. *)

val arrival_name : arrival_process -> string
(** ["poisson"], ["bursty:<burst>"], ["diurnal:<period>,<swing>"] —
    always re-parseable by {!arrival_of_string} (total round-trip). *)

val arrival_of_string : string -> (arrival_process, string) result
(** Parse ["poisson"] / ["bursty"] / ["diurnal"] (stock parameters), or
    parameterized ["bursty:16"] / ["diurnal:200000000,0.8"] (the [(...)]
    spelling also works, mirroring [Scheme.of_string]). *)

val arrival_times : config -> int array
(** The full deterministic arrival schedule (absolute cycles,
    non-decreasing), exactly as {!run} consumes it: same seed, same
    arrivals.  Exposed for tests and the CI determinism contract.

    @raise Invalid_argument on a non-positive pool/gap/SLO or
    out-of-range arrival parameters. *)

type outcome = {
  scheme : string;
  fault_plan : string;
  switchless : bool;
  arrivals : string;  (** {!arrival_name} of the generator used. *)
  dispatched : int;
  completed : int;
  failed : int;  (** Requests that blew the deadline in every round. *)
  in_flight : int;  (** Requests unfinished at the horizon. *)
  attempts : int;
      (** Total attempts = dispatched + retried + hedged
          ({!Validate.check_resilience} enforces). *)
  retried : int;  (** Retry re-dispatches after a blown round. *)
  hedged : int;  (** Hedged duplicates launched. *)
  hedge_wins : int;  (** Hedge races the duplicate won. *)
  hedge_cancelled : int;
      (** Losing attempts cancelled (one per hedge race; the loser never
          double-completes a request). *)
  crashes : int;  (** Instance crashes across the pool. *)
  restarts : int;  (** Crash–restart cycles completed across the pool. *)
  down_at_end : int;  (** [crashes - restarts]. *)
  crash_pages_lost : int;  (** Resident pages wiped across all crashes. *)
  latencies : float array;
      (** Per-completed-request latency (cycles), dispatch order. *)
  latency_h : Repro_util.Histogram.t;
      (** Auto-expanding latency histogram (overflow stays empty;
          {!Validate.check_service} enforces). *)
  slo : int;
  slo_violations : int;
  makespan : int;  (** Cycle the last request finished. *)
  results : Runner.result list;  (** One finalized run per instance. *)
}

val run :
  ?config:config ->
  ?fault_plan:Fault_plan.t ->
  ?input_label:string ->
  scheme:Preload.Scheme.t ->
  Workload.Trace.t ->
  outcome
(** Serve [requests] trace slices through a pool of warm instances of
    [scheme].  Request [k] replays [request_events] events starting at
    index [k * request_events mod length], wrapping; its latency is
    queueing + transition + the instance-clock delta of its steps.
    Under a trace-corrupting [fault_plan] all schemes replay the same
    {!Fault_plan.perturb_arena} (draws keyed by event index, derived
    once per process); channel/EPC faults
    apply inside each instance as in any chaos run, surfacing as
    degraded-mode tails.

    A crash fault in the plan kills instances on their own clocks
    (schedules keyed by pool index, so members crash independently);
    downtime is charged to [cyc_restart] and therefore to every request
    queued behind the dead instance.  [config.resilience] adds the
    service-side responses: per-round deadlines, retry re-dispatch with
    exponential backoff onto a different instance, hedged duplicates
    (first completion wins, the loser is cancelled and counted — never
    double-completed), and an optional preload circuit breaker per
    instance.  Under {!no_resilience} and a crash-free plan the loop is
    field-for-field the pre-resilience dispatch. *)

val quantile : outcome -> float -> float
(** [quantile o q] ([0 <= q <= 1]): exact {!Repro_util.Stats.percentile}
    over the sorted latencies for small runs, {!Repro_util.Histogram.quantile}
    past 4096 completed requests.  [nan] when nothing completed. *)

val throughput : outcome -> float
(** Completed requests per million cycles of makespan (0 when idle). *)

val check : outcome -> Validate.violation list
(** {!Validate.check_resilience} over this outcome's packaged arguments
    (the superset of the old service battery: conservation with the
    failure disposition, attempt conservation, crash bookkeeping,
    breaker-transition legality, latency sanity, per-instance runs). *)

val assert_valid : outcome -> unit
(** @raise Validate.Invalid when {!check} reports anything. *)

val matrix :
  ?config:config ->
  ?fault_plan:Fault_plan.t ->
  ?input_label:string ->
  label:string ->
  scheme_for:(string -> Preload.Scheme.t) ->
  tags:string list ->
  Workload.Trace.t ->
  (string * outcome) Job_pool.job list
(** One {!run} job per tag, labelled ["<label>/<tag>"], each yielding
    the tag and its outcome, {!assert_valid}ed in its worker; run the
    list through {!Experiments.run_cells} (or {!Job_pool.run}).
    [scheme_for] is called inside the worker.  The trace is compiled
    while the list is built, before any cell forks, so workers share its
    arena. *)

val summary_table : (string * outcome) list -> Repro_util.Table.t
(** The per-scheme p50/p95/p99/p999 + SLO table — the stable surface
    the CI determinism diff compares. *)

val print_cells : (string * outcome) list -> unit
