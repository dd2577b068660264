module Enclave = Sgxsim.Enclave
module Cost_model = Sgxsim.Cost_model
module Metrics = Sgxsim.Metrics
module Event = Sgxsim.Event
module Trace = Workload.Trace
module Scheme = Preload.Scheme
module Breaker = Preload.Breaker
module Histogram = Repro_util.Histogram

type config = { epc_pages : int; costs : Cost_model.t; log_capacity : int }

let default_config =
  { epc_pages = 2048; costs = Cost_model.paper; log_capacity = 0 }

let resolution_name = function
  | Enclave.Already_present -> "already-present"
  | Enclave.Waited_in_flight -> "waited-in-flight"
  | Enclave.Demand_load -> "demand-load"

type restart_policy = Cold | Rewarm

let restart_policy_name = function Cold -> "cold" | Rewarm -> "rewarm"

let restart_policy_of_string = function
  | "cold" -> Ok Cold
  | "rewarm" -> Ok Rewarm
  | s ->
    Error (Printf.sprintf "unknown restart policy %S (expected cold|rewarm)" s)

(* The one run-entry record.  Every knob that used to be a mirrored
   optional argument on [run]/[run_fused]/[make_instance] (and then on
   Fleet/Service/Chaos in turn) lives here once, validated once. *)
module Spec = struct
  type t = {
    config : config;
    fault_plan : Fault_plan.t;
    input_label : string;
    restart : restart_policy;
    breaker : Preload.Breaker.config option;
    online : Preload.Online.config option;
  }

  let default =
    {
      config = default_config;
      fault_plan = Fault_plan.none;
      input_label = "";
      restart = Cold;
      breaker = None;
      online = None;
    }

  let make ?(config = default_config) ?(fault_plan = Fault_plan.none)
      ?(input_label = "") ?(restart = Cold) ?breaker ?online () =
    if config.epc_pages <= 0 then
      invalid_arg "Runner.Spec: epc_pages must be positive";
    if config.log_capacity < 0 then
      invalid_arg "Runner.Spec: log_capacity must be non-negative";
    ignore (Option.map Preload.Breaker.validate breaker);
    ignore (Option.map Preload.Online.validate online);
    { config; fault_plan; input_label; restart; breaker; online }
end

type diagnostics = {
  pending_preloads : int;
  in_flight_preloads : int;
  in_flight_kind : Sgxsim.Load_channel.kind option;
  events_truncated : bool;
  resident_at_end : int;
  restarts : int;
  breaker_state : Breaker.state option;
  breaker_trips : int;
  breaker_transitions : Breaker.transition list;
  online : Preload.Online.summary option;
}

type result = {
  workload : string;
  input : string;
  scheme : string;
  fault_plan : string;
  cycles : int;
  final_now : int;
  costs : Cost_model.t;
  metrics : Metrics.t;
  events : Event.t list;
  diagnostics : diagnostics;
  fault_latency : (Enclave.fault_resolution * Histogram.t) list;
  dfp_stopped : bool;
  instrumentation_points : int;
  epc_capacity : int;
}

(* One scheme's complete simulation state within a (possibly fused)
   replay: its enclave, attached preloader, measurement histograms and
   private clock.  Instances never share mutable state, so fanning one
   trace pass out across many of them is observationally identical to
   running each scheme in its own pass. *)
type instance = {
  i_scheme : Scheme.t; (* post stale-plan scramble *)
  enclave : Enclave.t;
  log : Event.log;
  dfp : Preload.Dfp.t option;
  fault_latency_h : (Enclave.fault_resolution * Histogram.t) list;
  sip_site : int -> bool;
  i_costs : Cost_model.t;
  mutable now : int;
  (* Crash–restart machinery (inert when the plan has no crash fault or
     the scheme is Native). *)
  i_fault_plan : Fault_plan.t;
  i_crash : Fault_plan.crash_fault option;
  i_crash_key : int; (* instance index in the crash draw chain *)
  i_restart : restart_policy;
  i_breaker : Breaker.t option;
  i_online : Preload.Online.t option;
  mutable crash_window : int; (* highest crash window already evaluated *)
  mutable restarts : int;
}

let make_instance ?epc ?owner ~(spec : Spec.t) ~(trace : Trace.t) scheme =
  let config = spec.Spec.config in
  let fault_plan = spec.Spec.fault_plan in
  (* A stale profile perturbs the scheme itself, before anything else
     sees it: SIP/Hybrid run with the scrambled plan throughout. *)
  let scheme =
    if fault_plan.Fault_plan.stale_sip_plan then
      match scheme with
      | Scheme.Sip plan -> Scheme.Sip (Fault_plan.scramble_plan fault_plan plan)
      | Scheme.Hybrid (d, plan) ->
        Scheme.Hybrid (d, Fault_plan.scramble_plan fault_plan plan)
      | s -> s
    else scheme
  in
  let costs, epc_pages =
    match scheme with
    | Scheme.Native ->
      (* Outside SGX the whole footprint fits in RAM: faults are cheap
         first-touch minor faults and nothing is ever evicted. *)
      (Cost_model.native, trace.Trace.elrange_pages)
    | _ -> (config.costs, config.epc_pages)
  in
  let log =
    if config.log_capacity > 0 then Event.make_log ~capacity:config.log_capacity
    else Event.null_log
  in
  (* Native models unconstrained RAM: it must never join a shared EPC
     pool even inside a fleet, so the pass-through is suppressed (its
     private pool spans the whole ELRANGE and nothing evicts). *)
  let epc = match scheme with Scheme.Native -> None | _ -> epc in
  let enclave =
    Enclave.create ~costs ~log ?epc ?owner ~epc_pages
      ~elrange_pages:trace.Trace.elrange_pages ()
  in
  (* Install fault hooks only when the respective fault is present, so a
     fault-free run is the exact pre-fault-plan simulation.  Each hook is
     the instance's own sampler, which draws once per time window.
     Native runs outside the enclave entirely: there is no EPC for a
     co-tenant to squeeze and no load channel for jitter to stretch, so
     neither hook applies (installing them was a bug — it made the
     native yardstick drift with the fault plan). *)
  (match scheme with
  | Scheme.Native -> ()
  | _ ->
    Option.iter (Enclave.set_load_perturb enclave)
      (Fault_plan.jitter_sampler fault_plan);
    Option.iter (Enclave.set_epc_budget enclave)
      (Fault_plan.budget_sampler fault_plan));
  let dfp =
    match scheme with
    | Scheme.Dfp dfp_config | Scheme.Hybrid (dfp_config, _) ->
      Some (Preload.Dfp.attach enclave dfp_config)
    | Scheme.Next_line { degree } ->
      ignore (Preload.Prefetch_baselines.attach_next_line enclave ~degree);
      None
    | Scheme.Stride { degree } ->
      ignore (Preload.Prefetch_baselines.attach_stride enclave ~degree);
      None
    | Scheme.Markov { table_pages; degree } ->
      ignore
        (Preload.Prefetch_baselines.attach_markov enclave ~table_pages ~degree);
      None
    | Scheme.Baseline | Scheme.Native | Scheme.Sip _ -> None
  in
  (* The online controller attaches to whatever actuation slots the base
     scheme left free: it owns the mode-gated stream preloader when the
     fault hook is unclaimed (Baseline, SIP) and the dynamic SIP
     predicate when there is no static plan.  Native runs outside SGX —
     nothing to adapt.  Its observations come from [step], which (unlike
     the fault hook) sees instruction sites. *)
  let online =
    match (scheme, spec.Spec.online) with
    | Scheme.Native, _ | _, None -> None
    | _, Some ocfg ->
      let can_dfp =
        match scheme with
        | Scheme.Baseline | Scheme.Sip _ -> true
        | Scheme.Native | Scheme.Dfp _ | Scheme.Hybrid _ | Scheme.Next_line _
        | Scheme.Stride _ | Scheme.Markov _ ->
          false
      in
      let can_sip = Scheme.sip_plan scheme = None in
      let ctl =
        Preload.Online.create ~config:ocfg ~residency_pages:epc_pages
          ~elrange_pages:trace.Trace.elrange_pages ~can_dfp ~can_sip ()
      in
      Preload.Online.attach ctl enclave;
      Some ctl
  in
  (* The breaker chains after the scheme's (and controller's) hooks,
     which own the set_* slots, and installs the admission gate.  Native
     never speculates, so a breaker on it would only log an
     eternally-Closed machine. *)
  let breaker =
    match (scheme, spec.Spec.breaker) with
    | Scheme.Native, _ | _, None -> None
    | _, Some bconfig ->
      let b = Breaker.create ~config:bconfig () in
      Breaker.attach b enclave;
      Some b
  in
  (* Fault-resolution latency (raise -> execution resumed), one histogram
     per resolution kind.  Chained after the scheme's own on_fault so the
     measurement never displaces DFP. *)
  let latency_hi =
    float_of_int
      (2
      * (costs.Cost_model.t_aex + costs.Cost_model.t_evict
       + costs.Cost_model.t_load + costs.Cost_model.t_eresume))
  in
  (* [auto_expand]: the initial bound covers one drained load plus the
     fault's own; a fault queued behind a deeper preload window must
     widen the buckets, not vanish into overflow and bias the mean.
     [Validate] asserts the overflow bucket stays empty. *)
  let hist_for () =
    Histogram.create ~auto_expand:true ~lo:0.0 ~hi:(Float.max latency_hi 1.0)
      ~buckets:32 ()
  in
  let h_already = hist_for () in
  let h_waited = hist_for () in
  let h_demand = hist_for () in
  let fault_latency_h =
    [
      (Enclave.Already_present, h_already);
      (Enclave.Waited_in_flight, h_waited);
      (Enclave.Demand_load, h_demand);
    ]
  in
  (* The hook fires between the handler's return and the ERESUME, whose
     fixed cost is still part of what the faulting thread waits for.  The
     histogram is selected by a direct match — this runs per fault, and an
     assoc lookup here was a measurable slice of the replay (polymorphic
     compare on the resolution variant). *)
  Enclave.add_on_fault enclave (fun _ (ctx : Enclave.fault_ctx) ->
      let h =
        match ctx.resolution with
        | Enclave.Already_present -> h_already
        | Enclave.Waited_in_flight -> h_waited
        | Enclave.Demand_load -> h_demand
      in
      Histogram.add_int h
        (ctx.handled_at - ctx.raised_at + costs.Cost_model.t_eresume));
  let sip_site =
    match (Scheme.sip_plan scheme, online) with
    | Some plan, _ -> Preload.Sip_instrumenter.site_predicate plan
    | None, Some ctl -> Preload.Online.site_predicate ctl
    | None, None -> fun _ -> false
  in
  {
    i_scheme = scheme;
    enclave;
    log;
    dfp;
    fault_latency_h;
    sip_site;
    i_costs = costs;
    now = 0;
    i_fault_plan = fault_plan;
    i_crash =
      (* Native runs outside SGX: an enclave-instance crash has nothing
         to kill, so Native stays invariant across crash plans exactly as
         it does across channel/EPC faults. *)
      (match scheme with
      | Scheme.Native -> None
      | _ -> fault_plan.Fault_plan.crash);
    i_crash_key = Option.value owner ~default:0;
    i_restart = spec.Spec.restart;
    i_breaker = breaker;
    i_online = online;
    crash_window = -1;
    restarts = 0;
  }

(* Evaluate the crash schedule up to the instance's current clock.  Each
   crash window not yet judged gets one seeded draw; the first that fires
   kills the instance at [now] (at most one crash per evaluation — an
   instance cannot die twice without running in between), charges the
   restart delay to [cyc_restart] while advancing the clock by the same
   amount (so the cycle identity [total_cycles = final_now] survives),
   and, under [Rewarm], re-requests the lost resident set through the
   ordinary preload path so every page flows through the standard
   disposition identities. *)
let check_crash inst =
  match inst.i_crash with
  | None -> ()
  | Some c ->
    let w = inst.now / c.Fault_plan.crash_period in
    if w > inst.crash_window then begin
      let fired = ref false in
      for w' = inst.crash_window + 1 to w do
        if
          (not !fired)
          && Fault_plan.crash_fires inst.i_fault_plan ~instance:inst.i_crash_key
               ~window:w'
        then fired := true
      done;
      inst.crash_window <- w;
      if !fired then begin
        let lost = Enclave.crash inst.enclave ~now:inst.now in
        let m = Enclave.metrics inst.enclave in
        m.Metrics.cyc_restart <- m.Metrics.cyc_restart + c.restart_delay;
        inst.now <- inst.now + c.restart_delay;
        inst.restarts <- inst.restarts + 1;
        match inst.i_restart with
        | Cold -> ()
        | Rewarm ->
          List.iter
            (fun vpage ->
              ignore (Enclave.request_preload inst.enclave ~now:inst.now vpage))
            lost
      end
    end

let finalize ~(spec : Spec.t) ~(trace : Trace.t) inst =
  Enclave.sync inst.enclave ~now:inst.now;
  let metrics = Enclave.metrics inst.enclave in
  {
    workload = trace.Trace.name;
    input = spec.Spec.input_label;
    scheme =
      (* An adaptive run is a different scheme from its base: tables and
         journals must never conflate the two. *)
      (match inst.i_online with
      | Some _ -> Scheme.name inst.i_scheme ^ "+online"
      | None -> Scheme.name inst.i_scheme);
    fault_plan = spec.Spec.fault_plan.Fault_plan.name;
    cycles = Metrics.total_cycles metrics;
    final_now = inst.now;
    costs = inst.i_costs;
    metrics;
    events = Enclave.events inst.enclave;
    diagnostics =
      {
        events_truncated = Event.truncated inst.log;
        pending_preloads = Enclave.pending_preload_count inst.enclave;
        in_flight_preloads =
          (* Both speculative kinds: a SIP-requested load mid-flight at
             run end is as much an unfinished preload as a DFP one.
             Demand loads stay excluded — they resolve a fault, not a
             prediction. *)
          (match Enclave.in_flight_kind inst.enclave with
          | Some Sgxsim.Load_channel.(Preload_dfp | Preload_sip) -> 1
          | Some Sgxsim.Load_channel.Demand | None -> 0);
        in_flight_kind = Enclave.in_flight_kind inst.enclave;
        resident_at_end = Enclave.resident_count inst.enclave;
        restarts = inst.restarts;
        breaker_state = Option.map Breaker.state inst.i_breaker;
        breaker_trips =
          (match inst.i_breaker with Some b -> Breaker.trips b | None -> 0);
        breaker_transitions =
          (match inst.i_breaker with
          | Some b -> Breaker.transitions b
          | None -> []);
        online = Option.map Preload.Online.summary inst.i_online;
      };
    fault_latency = inst.fault_latency_h;
    dfp_stopped =
      (match inst.dfp with Some d -> Preload.Dfp.stopped d | None -> false);
    instrumentation_points =
      (match Scheme.sip_plan inst.i_scheme with
      | Some plan -> Preload.Sip_instrumenter.instrumentation_points plan
      | None -> 0);
    epc_capacity = Enclave.epc_capacity inst.enclave;
  }

let step inst ~site ~vpage ~compute ~thread =
  check_crash inst;
  (* The classifier observes from here — the only place that sees the
     instruction site — and never touches the enclave, so observation
     cannot perturb the replay. *)
  (match inst.i_online with
  | Some ctl -> Preload.Online.observe ctl ~site ~vpage
  | None -> ());
  let t = Enclave.compute inst.enclave ~now:inst.now compute in
  let t =
    if inst.sip_site site then
      Enclave.sip_access ~thread inst.enclave ~now:t vpage
    else Enclave.access ~thread inst.enclave ~now:t vpage
  in
  inst.now <- t

let run_fused ?(spec = Spec.default) ~schemes trace =
  let instances =
    Array.of_list (List.map (make_instance ~spec ~trace) schemes)
  in
  let n = Array.length instances in
  (* Replay from the compiled arena — under a trace-corrupting plan, its
     perturbed derivation — fanning each access out to every instance.
     Instances advance their private clocks independently and share
     nothing mutable, so ANY replay interleaving produces, per instance,
     the exact event sequence a solo pass would — the trace is decoded
     once instead of [n] times.  The fan-out is chunked, not per-event:
     each instance replays a cache-sized block of the packed columns
     before the next instance takes the same block.  Per-event
     round-robin would drag [n] enclaves' page tables through the cache
     between consecutive accesses of each one; per-block, an instance's
     working set stays hot for the whole block and the block's columns
     (four int columns, ~2 MB at this size) stay hot across the [n]
     replays of it. *)
  let arena =
    Fault_plan.perturb_arena spec.Spec.fault_plan
      ~elrange_pages:trace.Trace.elrange_pages
      (Workload.Trace_arena.compile trace)
  in
  let block = 16384 in
  let len = Workload.Trace_arena.length arena in
  let lo = ref 0 in
  while !lo < len do
    let hi = min len (!lo + block) in
    for i = 0 to n - 1 do
      let inst = instances.(i) in
      Workload.Trace_arena.iter_range arena ~lo:!lo ~hi
        ~f:(fun ~site ~vpage ~compute ~thread ->
          step inst ~site ~vpage ~compute ~thread)
    done;
    lo := hi
  done;
  List.map (finalize ~spec ~trace) (Array.to_list instances)

let run ?spec ~scheme trace =
  match run_fused ?spec ~schemes:[ scheme ] trace with
  | [ r ] -> r
  | _ -> assert false

let normalized_time ~baseline result =
  if baseline.cycles = 0 then invalid_arg "Runner.normalized_time: empty baseline";
  float_of_int result.cycles /. float_of_int baseline.cycles

let improvement ~baseline result = 1.0 -. normalized_time ~baseline result
