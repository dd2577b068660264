module Prng = Repro_util.Prng
module Stats = Repro_util.Stats
module Histogram = Repro_util.Histogram
module Cost_model = Sgxsim.Cost_model
module Metrics = Sgxsim.Metrics
module Trace = Workload.Trace
module Trace_arena = Workload.Trace_arena
module Scheme = Preload.Scheme

type arrival_process =
  | Poisson
  | Bursty of { burst : int }
  | Diurnal of { period : int; swing : float }

type resilience = {
  deadline : int option;
  retries : int;
  retry_backoff : int;
  hedge_after : int option;
  restart : Runner.restart_policy;
  breaker : Preload.Breaker.config option;
  online : Preload.Online.config option;
}

let no_resilience =
  {
    deadline = None;
    retries = 0;
    retry_backoff = 0;
    hedge_after = None;
    restart = Runner.Cold;
    breaker = None;
    online = None;
  }

type config = {
  epc_pages : int;
  costs : Cost_model.t;
  pool : int;
  requests : int;
  request_events : int;
  mean_gap : int;
  arrivals : arrival_process;
  seed : int;
  slo : int;
  switchless : bool;
  horizon : int option;
  resilience : resilience;
}

let default_config =
  {
    epc_pages = 2048;
    costs = Cost_model.paper;
    pool = 4;
    requests = 400;
    request_events = 400;
    mean_gap = 2_500_000;
    arrivals = Poisson;
    seed = 1;
    slo = 30_000_000;
    switchless = false;
    horizon = None;
    resilience = no_resilience;
  }

let arrival_name = function
  | Poisson -> "poisson"
  | Bursty { burst } -> Printf.sprintf "bursty:%d" burst
  | Diurnal { period; swing } -> Printf.sprintf "diurnal:%d,%g" period swing

(* "bursty:16" (the CLI's spelling) and "bursty(16)" share one parameter
   grammar, mirroring [Scheme.of_string]; bare names keep their stock
   parameters.  [arrival_name] emits the [:] form, so every process
   round-trips through its own name. *)
let arrival_of_string s =
  let low = String.lowercase_ascii (String.trim s) in
  let body ~prefix =
    let plen = String.length prefix in
    if
      String.length low > plen + 1
      && String.sub low 0 (plen + 1) = prefix ^ ":"
    then Some (String.sub low (plen + 1) (String.length low - plen - 1))
    else if
      String.length low > plen + 2
      && String.sub low 0 (plen + 1) = prefix ^ "("
      && low.[String.length low - 1] = ')'
    then Some (String.sub low (plen + 1) (String.length low - plen - 2))
    else None
  in
  match low with
  | "poisson" -> Ok Poisson
  | "bursty" -> Ok (Bursty { burst = 8 })
  | "diurnal" -> Ok (Diurnal { period = 200_000_000; swing = 0.8 })
  | _ -> (
    match (body ~prefix:"bursty", body ~prefix:"diurnal") with
    | Some b, _ -> (
      match int_of_string_opt (String.trim b) with
      | Some burst when burst > 0 -> Ok (Bursty { burst })
      | Some _ ->
        Error (Printf.sprintf "arrival %S: burst must be positive" s)
      | None -> Error (Printf.sprintf "arrival %S: malformed burst %S" s b))
    | None, Some b -> (
      match String.split_on_char ',' b with
      | [ p; sw ] -> (
        match
          (int_of_string_opt (String.trim p), float_of_string_opt (String.trim sw))
        with
        | Some period, Some swing when period > 0 && swing >= 0.0 && swing < 1.0
          ->
          Ok (Diurnal { period; swing })
        | Some _, Some _ ->
          Error
            (Printf.sprintf
               "arrival %S: need period > 0 and swing in [0, 1)" s)
        | _ ->
          Error (Printf.sprintf "arrival %S: malformed parameters %S" s b))
      | _ ->
        Error (Printf.sprintf "arrival %S: diurnal takes PERIOD,SWING" s))
    | None, None ->
      Error
        (Printf.sprintf
           "unknown arrival process %S (known: poisson, bursty[:N], \
            diurnal[:PERIOD,SWING])"
           s))

let validate_config c =
  if c.pool <= 0 then invalid_arg "Service: pool must be positive";
  if c.requests < 0 then invalid_arg "Service: requests must be non-negative";
  if c.request_events < 0 then
    invalid_arg "Service: request_events must be non-negative";
  if c.mean_gap <= 0 then invalid_arg "Service: mean_gap must be positive";
  if c.slo <= 0 then invalid_arg "Service: slo must be positive";
  Option.iter
    (fun h -> if h <= 0 then invalid_arg "Service: horizon must be positive")
    c.horizon;
  (match c.arrivals with
  | Poisson -> ()
  | Bursty { burst } ->
    if burst <= 0 then invalid_arg "Service: burst must be positive"
  | Diurnal { period; swing } ->
    if period <= 0 then invalid_arg "Service: diurnal period must be positive";
    if not (swing >= 0.0 && swing < 1.0) then
      invalid_arg "Service: diurnal swing must be in [0, 1)");
  let z = c.resilience in
  if z.retries < 0 then invalid_arg "Service: retries must be non-negative";
  if z.retry_backoff < 0 then
    invalid_arg "Service: retry_backoff must be non-negative";
  Option.iter
    (fun d -> if d <= 0 then invalid_arg "Service: deadline must be positive")
    z.deadline;
  Option.iter
    (fun h ->
      if h < 0 then invalid_arg "Service: hedge_after must be non-negative")
    z.hedge_after;
  (* A retry is triggered by a blown deadline; without one it could never
     fire, so the combination is a config error, not a silent no-op. *)
  if z.retries > 0 && z.deadline = None then
    invalid_arg "Service: retries require a deadline";
  Option.iter (fun b -> ignore (Preload.Breaker.validate b)) z.breaker;
  Option.iter (fun o -> ignore (Preload.Online.validate o)) z.online;
  c

(* One exponential inter-arrival draw with the given mean, in whole
   cycles.  [1 - u] keeps the log argument in (0, 1]. *)
let exponential_gap prng mean =
  let u = Prng.float prng 1.0 in
  int_of_float (Float.round (-.mean *. Float.log1p (-.u)))

let arrival_times config =
  let c = validate_config config in
  let prng = Prng.create c.seed in
  let times = Array.make c.requests 0 in
  let now = ref 0 in
  (match c.arrivals with
  | Poisson ->
    for k = 0 to c.requests - 1 do
      now := !now + exponential_gap prng (float_of_int c.mean_gap);
      times.(k) <- !now
    done
  | Bursty { burst } ->
    (* Whole bursts arrive at one instant; inter-burst gaps stretch by
       the burst size so the offered load matches the Poisson process
       with the same [mean_gap]. *)
    let k = ref 0 in
    while !k < c.requests do
      now := !now + exponential_gap prng (float_of_int (c.mean_gap * burst));
      let n = min burst (c.requests - !k) in
      for i = 0 to n - 1 do
        times.(!k + i) <- !now
      done;
      k := !k + n
    done
  | Diurnal { period; swing } ->
    (* Sinusoidally modulated rate: the local mean gap swells and
       shrinks around [mean_gap] over one [period], compressing a
       rush-hour's arrivals and stretching the quiet phase. *)
    for k = 0 to c.requests - 1 do
      let phase =
        2.0 *. Float.pi
        *. (float_of_int (!now mod period) /. float_of_int period)
      in
      let local_mean =
        float_of_int c.mean_gap *. (1.0 +. (swing *. Float.sin phase))
      in
      now := !now + exponential_gap prng local_mean;
      times.(k) <- !now
    done);
  times

type outcome = {
  scheme : string;
  fault_plan : string;
  switchless : bool;
  arrivals : string;
  dispatched : int;
  completed : int;
  failed : int;
  in_flight : int;
  attempts : int;
  retried : int;
  hedged : int;
  hedge_wins : int;
  hedge_cancelled : int;
  crashes : int;
  restarts : int;
  down_at_end : int;
  crash_pages_lost : int;
  latencies : float array;
  latency_h : Histogram.t;
  slo : int;
  slo_violations : int;
  makespan : int;
  results : Runner.result list;
}

let run ?(config = default_config) ?(fault_plan = Fault_plan.none)
    ?(input_label = "") ~scheme trace =
  let c = validate_config config in
  let z = c.resilience in
  let arrivals = arrival_times c in
  (* Requests slice the (possibly plan-perturbed) compiled stream by
     index, with wrap-around.  The perturbed arena is derived once per
     process, so every scheme cell replays identical corruption. *)
  let arena =
    Fault_plan.perturb_arena fault_plan
      ~elrange_pages:trace.Trace.elrange_pages (Trace_arena.compile trace)
  in
  let len = Trace_arena.length arena in
  let spec =
    Runner.Spec.make
      ~config:
        { Runner.epc_pages = c.epc_pages; costs = c.costs; log_capacity = 0 }
      ~fault_plan ~input_label ~restart:z.restart ?breaker:z.breaker
      ?online:z.online ()
  in
  (* [owner:i] keys each pool member's crash schedule (frame tags are
     unobservable in a private EPC pool, so this changes nothing for a
     crash-free plan); the restart policy and the optional breaker and
     online controller ride the same instance plumbing the chaos runner
     uses. *)
  let instances =
    Array.init c.pool (fun i ->
        Runner.make_instance ~owner:i ~spec ~trace scheme)
  in
  (* The service layer keeps its own timeline: [free_at.(i)] is when
     instance [i] finishes its current request, *including* the
     transition cycles charged here.  The instance's private clock
     [inst.now] advances only through [Runner.step], preserving the
     cycle identity [Validate.check] enforces on each finalized run. *)
  let free_at = Array.make c.pool 0 in
  let latency_h =
    Histogram.create ~auto_expand:true ~lo:0.0
      ~hi:(float_of_int (max 1 c.slo)) ~buckets:96 ()
  in
  let latencies = Array.make c.requests 0.0 in
  let completed = ref 0 in
  let failed = ref 0 in
  let in_flight = ref 0 in
  let retried = ref 0 in
  let hedged = ref 0 in
  let hedge_wins = ref 0 in
  let hedge_cancelled = ref 0 in
  let slo_violations = ref 0 in
  let makespan = ref 0 in
  (* Earliest-free instance; ties break to the lowest index so the
     schedule is a pure function of the arrival sequence.  [exclude]
     (-1 for none) steers a retry or hedge away from the instance whose
     attempt it shadows — moot in a pool of one. *)
  let pick ~exclude =
    let best = ref (-1) in
    for i = 0 to c.pool - 1 do
      if i <> exclude && (!best < 0 || free_at.(i) < free_at.(!best)) then
        best := i
    done;
    !best
  in
  (* One attempt on instance [i]: replay the request's slice, charge
     transition + service on the service timeline.  A lost hedge still
     ran to completion here — cancellation reclaims nothing (the load
     channel is non-preemptible), it only stops the loser from
     double-completing the request. *)
  let serve i ~dispatch ~offset =
    let inst = instances.(i) in
    let transition =
      Cost_model.transition_cost inst.Runner.i_costs ~switchless:c.switchless
    in
    let start = max dispatch free_at.(i) in
    let before = inst.Runner.now in
    if len > 0 then
      for j = 0 to c.request_events - 1 do
        let e = (offset + j) mod len in
        Runner.step inst ~site:(Trace_arena.site arena e)
          ~vpage:(Trace_arena.vpage arena e)
          ~compute:(Trace_arena.compute arena e)
          ~thread:(Trace_arena.thread arena e)
      done;
    let service = inst.Runner.now - before in
    let finish = start + transition + service in
    free_at.(i) <- finish;
    if finish > !makespan then makespan := finish;
    finish
  in
  Array.iteri
    (fun k arrival ->
      let offset = if len > 0 then k * c.request_events mod len else 0 in
      (* Round [r] dispatches at [dispatch]; a blown deadline re-dispatches
         round [r+1] at [dispatch + deadline + backoff * 2^r] on a
         different instance.  [None] = every round failed. *)
      let rec round r ~dispatch ~exclude =
        let i = pick ~exclude in
        let finish_primary = serve i ~dispatch ~offset in
        let finish =
          match z.hedge_after with
          | Some h when c.pool > 1 && finish_primary > dispatch + h ->
            (* The primary is still running [h] cycles in: launch a
               duplicate on another instance; first completion wins (a
               tie goes to the primary), the loser is cancelled and can
               never double-complete the request. *)
            let j = pick ~exclude:i in
            let finish_hedge = serve j ~dispatch:(dispatch + h) ~offset in
            incr hedged;
            incr hedge_cancelled;
            if finish_hedge < finish_primary then begin
              incr hedge_wins;
              finish_hedge
            end
            else finish_primary
          | _ -> finish_primary
        in
        match z.deadline with
        | Some dl when finish - dispatch > dl ->
          if r < z.retries then begin
            incr retried;
            round (r + 1)
              ~dispatch:(dispatch + dl + (z.retry_backoff * (1 lsl r)))
              ~exclude:i
          end
          else None
        | _ -> Some finish
      in
      match round 0 ~dispatch:arrival ~exclude:(-1) with
      | None -> incr failed
      | Some finish -> (
        let latency = finish - arrival in
        match c.horizon with
        | Some h when finish > h -> incr in_flight
        | Some _ | None ->
          latencies.(!completed) <- float_of_int latency;
          incr completed;
          Histogram.add_int latency_h latency;
          if latency > c.slo then incr slo_violations))
    arrivals;
  let results =
    Array.to_list (Array.map (Runner.finalize ~spec ~trace) instances)
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let crashes = sum (fun (r : Runner.result) -> r.Runner.metrics.Metrics.crashes) in
  let restarts =
    sum (fun (r : Runner.result) -> r.Runner.diagnostics.Runner.restarts)
  in
  let crash_pages_lost =
    sum (fun (r : Runner.result) -> r.Runner.metrics.Metrics.crash_pages_lost)
  in
  {
    scheme =
      (* Mirror the "+online" suffix the finalized runner results carry,
         so the service table and its per-instance results agree. *)
      (match results with
      | r :: _ -> r.Runner.scheme
      | [] -> Scheme.name scheme);
    fault_plan = fault_plan.Fault_plan.name;
    switchless = c.switchless;
    arrivals = arrival_name c.arrivals;
    dispatched = c.requests;
    completed = !completed;
    failed = !failed;
    in_flight = !in_flight;
    attempts = c.requests + !retried + !hedged;
    retried = !retried;
    hedged = !hedged;
    hedge_wins = !hedge_wins;
    hedge_cancelled = !hedge_cancelled;
    crashes;
    restarts;
    down_at_end = crashes - restarts;
    crash_pages_lost;
    latencies = Array.sub latencies 0 !completed;
    latency_h;
    slo = c.slo;
    slo_violations = !slo_violations;
    makespan = !makespan;
    results;
  }

(* Below this many completed requests the exact sorted-array percentile
   is used; past it, the histogram's interpolated quantile. *)
let exact_quantile_threshold = 4096

let quantile outcome q =
  if outcome.completed = 0 then Float.nan
  else if outcome.completed <= exact_quantile_threshold then
    Stats.percentile outcome.latencies (q *. 100.0)
  else Histogram.quantile outcome.latency_h q

let throughput outcome =
  if outcome.makespan = 0 then 0.0
  else float_of_int outcome.completed *. 1e6 /. float_of_int outcome.makespan

let check outcome =
  Validate.check_resilience ~dispatched:outcome.dispatched
    ~completed:outcome.completed ~failed:outcome.failed
    ~in_flight:outcome.in_flight ~attempts:outcome.attempts
    ~retried:outcome.retried ~hedged:outcome.hedged
    ~hedge_wins:outcome.hedge_wins ~hedge_cancelled:outcome.hedge_cancelled
    ~crashes:outcome.crashes ~restarts:outcome.restarts
    ~down_at_end:outcome.down_at_end ~latency:outcome.latency_h
    outcome.results

let assert_valid outcome =
  match check outcome with
  | [] -> ()
  | violations -> raise (Validate.Invalid violations)

let matrix ?config ?fault_plan ?input_label ~label ~scheme_for ~tags trace =
  (* Compile the trace before the cells fork, so the workers inherit the
     arena instead of each compiling its own. *)
  ignore (Trace_arena.compile trace);
  List.map
    (fun tag ->
      Job_pool.job ~label:(label ^ "/" ^ tag) (fun () ->
          let outcome =
            run ?config ?fault_plan ?input_label ~scheme:(scheme_for tag) trace
          in
          assert_valid outcome;
          (tag, outcome)))
    tags

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

module Table = Repro_util.Table

let cell_cycles v =
  if Float.is_nan v then "-" else Table.cell_int (int_of_float (Float.round v))

let summary_table cells =
  let t =
    Table.create
      ~headers:
        [
          ("scheme", Table.Left);
          ("mode", Table.Left);
          ("done", Table.Right);
          ("failed", Table.Right);
          ("in-flight", Table.Right);
          ("req/Mcyc", Table.Right);
          ("p50", Table.Right);
          ("p95", Table.Right);
          ("p99", Table.Right);
          ("p999", Table.Right);
          ("max", Table.Right);
          ("SLO-viol", Table.Right);
          ("crashes", Table.Right);
        ]
  in
  let online_suffix = "+online" in
  List.iter
    (fun (tag, o) ->
      (* The caller's tag is the CLI spelling; carry the runner's
         "+online" suffix over so the table row matches [o.scheme]. *)
      let tag =
        if
          String.ends_with ~suffix:online_suffix o.scheme
          && not (String.ends_with ~suffix:online_suffix tag)
        then tag ^ online_suffix
        else tag
      in
      Table.add_row t
        [
          tag;
          (if o.switchless then "switchless" else "sync");
          Table.cell_int o.completed;
          Table.cell_int o.failed;
          Table.cell_int o.in_flight;
          Table.cell_float ~decimals:3 (throughput o);
          cell_cycles (quantile o 0.50);
          cell_cycles (quantile o 0.95);
          cell_cycles (quantile o 0.99);
          cell_cycles (quantile o 0.999);
          cell_cycles (Histogram.max_observed o.latency_h);
          Table.cell_int o.slo_violations;
          Table.cell_int o.crashes;
        ])
    cells;
  t

let print_cells cells = Table.print (summary_table cells)
