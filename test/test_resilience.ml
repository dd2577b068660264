(* Crash–recovery model: seeded instance crashes, restart policies,
   request retries/hedging, and the preload circuit breaker. *)

module Service = Sim.Service
module Fault_plan = Sim.Fault_plan
module Validate = Sim.Validate
module Runner = Sim.Runner
module Breaker = Preload.Breaker
module Scheme = Preload.Scheme
module Input = Workload.Input
module Spec = Workload.Spec
module Metrics = Sgxsim.Metrics
module Histogram = Repro_util.Histogram
module Table = Repro_util.Table

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let trace = Spec.deepsjeng ~epc_pages:128 ~input:Input.Train

let runner_config =
  { Runner.default_config with epc_pages = 128; log_capacity = 1 lsl 18 }

(* ------------------------------------------------------------------ *)
(* Breaker state machine                                               *)
(* ------------------------------------------------------------------ *)

(* Small enough to drive every edge by hand. *)
let tiny =
  {
    Breaker.window = 2;
    min_samples = 4;
    threshold = 0.5;
    cooldown = 2;
    probe_samples = 2;
  }

let feed b ~completed ~hits =
  for _ = 1 to completed do
    Breaker.note_completed b
  done;
  for _ = 1 to hits do
    Breaker.note_hit b
  done

let test_breaker_trips_and_recloses () =
  let b = Breaker.create ~config:tiny () in
  checkb "starts closed" true (Breaker.state b = Breaker.Closed);
  checkb "closed admits" true (Breaker.admit b);
  (* A full window of misses trips it Open. *)
  feed b ~completed:4 ~hits:0;
  Breaker.on_scan b ~at:1;
  checkb "window not yet full" true (Breaker.state b = Breaker.Closed);
  Breaker.on_scan b ~at:2;
  checkb "tripped open" true (Breaker.state b = Breaker.Open);
  checkb "open refuses" false (Breaker.admit b);
  checki "rejection counted" 1 (Breaker.rejected b);
  (* Cooldown expiry moves to Half-open; a clean probe recloses. *)
  Breaker.on_scan b ~at:3;
  Breaker.on_scan b ~at:4;
  checkb "probing" true (Breaker.state b = Breaker.Half_open);
  checkb "half-open admits" true (Breaker.admit b);
  feed b ~completed:2 ~hits:2;
  Breaker.on_scan b ~at:5;
  checkb "reclosed" true (Breaker.state b = Breaker.Closed);
  checki "one trip" 1 (Breaker.trips b);
  check
    Alcotest.(option string)
    "log legal" None
    (Breaker.check_transitions (Breaker.transitions b))

let test_breaker_failed_probe_reopens () =
  let b = Breaker.create ~config:tiny () in
  feed b ~completed:4 ~hits:0;
  Breaker.on_scan b ~at:1;
  Breaker.on_scan b ~at:2;
  Breaker.on_scan b ~at:3;
  Breaker.on_scan b ~at:4;
  checkb "probing" true (Breaker.state b = Breaker.Half_open);
  feed b ~completed:2 ~hits:0;
  Breaker.on_scan b ~at:5;
  checkb "probe failed, reopened" true (Breaker.state b = Breaker.Open);
  checki "two trips" 2 (Breaker.trips b);
  check
    Alcotest.(option string)
    "log legal" None
    (Breaker.check_transitions (Breaker.transitions b))

let test_breaker_quiet_window_never_judged () =
  let b = Breaker.create ~config:tiny () in
  (* One miss per scan: each full window holds 2 completions, below the
     4-sample minimum, so the miss-heavy but quiet window never trips. *)
  for at = 1 to 20 do
    feed b ~completed:1 ~hits:0;
    Breaker.on_scan b ~at
  done;
  checkb "still closed" true (Breaker.state b = Breaker.Closed);
  checki "no trips" 0 (Breaker.trips b)

let test_breaker_config_validated () =
  Alcotest.check_raises "zero window"
    (Invalid_argument "Breaker: window must be positive") (fun () ->
      ignore (Breaker.create ~config:{ tiny with Breaker.window = 0 } ()));
  Alcotest.check_raises "bad threshold"
    (Invalid_argument "Breaker: threshold must be in [0, 1]") (fun () ->
      ignore (Breaker.create ~config:{ tiny with Breaker.threshold = 1.5 } ()))

let test_check_transitions_rejects_bad_logs () =
  let edge at from_state to_state =
    { Breaker.at; from_state; to_state; rate = 0.0 }
  in
  checkb "wrong start flagged" true
    (Breaker.check_transitions [ edge 1 Breaker.Open Breaker.Half_open ]
    <> None);
  checkb "illegal edge flagged" true
    (Breaker.check_transitions [ edge 1 Breaker.Closed Breaker.Half_open ]
    <> None);
  checkb "regressing timestamps flagged" true
    (Breaker.check_transitions
       [ edge 5 Breaker.Closed Breaker.Open; edge 3 Breaker.Open Breaker.Half_open ]
    <> None);
  check
    Alcotest.(option string)
    "legal log accepted" None
    (Breaker.check_transitions
       [
         edge 1 Breaker.Closed Breaker.Open;
         edge 2 Breaker.Open Breaker.Half_open;
         edge 3 Breaker.Half_open Breaker.Closed;
       ])

(* The QCheck property behind the breaker's contract: as long as every
   completed preload is also a hit (window rate 1.0, at or above any
   legal threshold), no interleaving of completions and scans may ever
   open the breaker. *)
let prop_full_hit_rate_never_opens =
  QCheck.Test.make ~count:300 ~name:"full hit rate never opens"
    QCheck.(list bool)
    (fun ops ->
      let b = Breaker.create () in
      List.iteri
        (fun at op ->
          if op then begin
            Breaker.note_completed b;
            Breaker.note_hit b
          end
          else Breaker.on_scan b ~at)
        ops;
      Breaker.state b = Breaker.Closed && Breaker.trips b = 0)

(* ------------------------------------------------------------------ *)
(* Crash schedules                                                     *)
(* ------------------------------------------------------------------ *)

let crash_seq plan ~instance =
  List.init 500 (fun window -> Fault_plan.crash_fires plan ~instance ~window)

let test_crash_schedule_deterministic () =
  let plan = Fault_plan.crashy_fleet in
  for instance = 0 to 3 do
    checkb
      (Printf.sprintf "instance %d pure" instance)
      true
      (crash_seq plan ~instance = crash_seq plan ~instance)
  done;
  checkb "fires at all" true (List.exists Fun.id (crash_seq plan ~instance:0));
  checkb "instances draw independently" true
    (crash_seq plan ~instance:0 <> crash_seq plan ~instance:1);
  checkb "seed moves the schedule" true
    (crash_seq plan ~instance:0
    <> crash_seq (Fault_plan.with_seed plan 97) ~instance:0)

let test_crash_free_plans_never_fire () =
  List.iter
    (fun plan ->
      if plan.Fault_plan.crash = None then
        for window = 0 to 99 do
          checkb
            (plan.Fault_plan.name ^ " never crashes")
            false
            (Fault_plan.crash_fires plan ~instance:0 ~window)
        done)
    (Fault_plan.none :: Fault_plan.bank)

(* ------------------------------------------------------------------ *)
(* Runner: crash–restart and breaker wiring                            *)
(* ------------------------------------------------------------------ *)

(* An aggressive schedule so even short replays crash several times. *)
let crash_test_plan =
  {
    Fault_plan.none with
    Fault_plan.name = "crash-test";
    seed = 7;
    crash =
      Some
        {
          Fault_plan.crash_period = 150_000;
          crash_chance = 0.3;
          restart_delay = 100_000;
        };
  }

let test_runner_crash_restart_bookkeeping () =
  List.iter
    (fun restart ->
      let r =
        Runner.run
          ~spec:
            (Runner.Spec.make ~config:runner_config
               ~fault_plan:crash_test_plan ~restart ())
          ~scheme:Scheme.dfp_stop trace
      in
      let label = Runner.restart_policy_name restart in
      checkb (label ^ " crashes fired") true (r.Runner.metrics.Metrics.crashes > 0);
      checki
        (label ^ " every crash restarted")
        r.Runner.metrics.Metrics.crashes r.Runner.diagnostics.Runner.restarts;
      checkb
        (label ^ " downtime charged")
        true
        (r.Runner.metrics.Metrics.cyc_restart > 0);
      Validate.assert_valid r)
    [ Runner.Cold; Runner.Rewarm ]

let test_runner_crash_deterministic () =
  let go () =
    Runner.run
      ~spec:
        (Runner.Spec.make ~config:runner_config ~fault_plan:crash_test_plan ())
      ~scheme:Scheme.dfp_stop trace
  in
  let a = go () and b = go () in
  checki "same cycles" a.Runner.cycles b.Runner.cycles;
  checki "same crashes" a.Runner.metrics.Metrics.crashes
    b.Runner.metrics.Metrics.crashes;
  checki "same pages lost" a.Runner.metrics.Metrics.crash_pages_lost
    b.Runner.metrics.Metrics.crash_pages_lost

let test_runner_breaker_diagnostics () =
  let braked =
    Runner.run
      ~spec:
        (Runner.Spec.make ~config:runner_config
           ~breaker:Breaker.default_config ())
      ~scheme:Scheme.dfp_default trace
  in
  checkb "breaker state surfaced" true
    (braked.Runner.diagnostics.Runner.breaker_state <> None);
  checkb "trip count non-negative" true
    (braked.Runner.diagnostics.Runner.breaker_trips >= 0);
  Validate.assert_valid braked;
  let plain =
    Runner.run ~spec:(Runner.Spec.make ~config:runner_config ()) ~scheme:Scheme.dfp_default trace
  in
  checkb "no breaker, no state" true
    (plain.Runner.diagnostics.Runner.breaker_state = None);
  checki "no rejections without a breaker" 0
    plain.Runner.metrics.Metrics.preloads_rejected_breaker

let test_native_immune_to_crash_and_breaker () =
  let plain =
    Runner.run ~spec:(Runner.Spec.make ~config:runner_config ()) ~scheme:Scheme.Native trace
  in
  let stressed =
    Runner.run
      ~spec:
        (Runner.Spec.make ~config:runner_config ~fault_plan:crash_test_plan
           ~breaker:Breaker.default_config ())
      ~scheme:Scheme.Native trace
  in
  checki "native cycles unmoved" plain.Runner.cycles stressed.Runner.cycles;
  checki "native never crashes" 0 stressed.Runner.metrics.Metrics.crashes;
  checkb "native never braked" true
    (stressed.Runner.diagnostics.Runner.breaker_state = None)

(* ------------------------------------------------------------------ *)
(* Service: retries, hedging, conservation                             *)
(* ------------------------------------------------------------------ *)

let sconfig =
  {
    Service.default_config with
    Service.epc_pages = 128;
    pool = 2;
    requests = 40;
    request_events = 100;
    mean_gap = 2_000_000;
    seed = 5;
    resilience =
      {
        Service.deadline = Some 30_000_000;
        retries = 2;
        retry_backoff = 1_000_000;
        hedge_after = Some 15_000_000;
        restart = Runner.Rewarm;
        breaker = Some Breaker.default_config;
        online = None;
      };
  }

let test_conservation_under_every_plan () =
  List.iter
    (fun plan ->
      let o =
        Service.run ~config:sconfig ~fault_plan:plan ~scheme:Scheme.dfp_stop
          trace
      in
      let n = plan.Fault_plan.name in
      checki (n ^ " request conservation") o.Service.dispatched
        (o.Service.completed + o.Service.failed + o.Service.in_flight);
      checki (n ^ " attempt conservation") o.Service.attempts
        (o.Service.dispatched + o.Service.retried + o.Service.hedged);
      checkb
        (n ^ " hedge races bounded")
        true
        (o.Service.hedge_wins <= o.Service.hedged
        && o.Service.hedge_cancelled <= o.Service.hedged);
      checki (n ^ " crash bookkeeping") o.Service.crashes
        (o.Service.restarts + o.Service.down_at_end);
      Service.assert_valid o)
    (Fault_plan.none :: Fault_plan.bank)

let test_service_crashes_and_recovers () =
  let o =
    Service.run ~config:sconfig ~fault_plan:crash_test_plan
      ~scheme:Scheme.dfp_stop trace
  in
  checkb "crashes fired" true (o.Service.crashes > 0);
  checki "all instances restarted" o.Service.crashes o.Service.restarts;
  checki "nobody down at end" 0 o.Service.down_at_end;
  checkb "crash losses tracked" true (o.Service.crash_pages_lost > 0);
  Service.assert_valid o

let test_hedging_first_completion_wins () =
  (* hedge_after 0 on a 2-instance pool: every primary attempt gets a
     duplicate, and each race cancels exactly one loser. *)
  let c =
    {
      sconfig with
      Service.resilience =
        {
          Service.no_resilience with
          Service.hedge_after = Some 0;
        };
    }
  in
  let o = Service.run ~config:c ~scheme:Scheme.Baseline trace in
  checkb "hedges launched" true (o.Service.hedged > 0);
  checki "one cancelled loser per race" o.Service.hedged
    o.Service.hedge_cancelled;
  checkb "wins bounded by races" true (o.Service.hedge_wins <= o.Service.hedged);
  checki "no double completion" o.Service.dispatched
    (o.Service.completed + o.Service.failed + o.Service.in_flight);
  checki "attempt conservation" o.Service.attempts
    (o.Service.dispatched + o.Service.hedged);
  Service.assert_valid o

let test_retries_exhaust_to_failure () =
  (* An impossible 1-cycle deadline: every round blows it, every request
     burns its full retry budget and fails. *)
  let c =
    {
      sconfig with
      Service.resilience =
        {
          Service.no_resilience with
          Service.deadline = Some 1;
          retries = 2;
          retry_backoff = 1_000;
        };
    }
  in
  let o = Service.run ~config:c ~scheme:Scheme.Baseline trace in
  checki "every request fails" o.Service.dispatched o.Service.failed;
  checki "nothing completes" 0 o.Service.completed;
  checki "full retry budget burned" (2 * o.Service.dispatched)
    o.Service.retried;
  checki "attempt conservation" o.Service.attempts
    (o.Service.dispatched + o.Service.retried);
  Service.assert_valid o

(* ------------------------------------------------------------------ *)
(* Determinism with crashes across -j                                  *)
(* ------------------------------------------------------------------ *)

let rtags = [ "baseline"; "dfp-stop" ]

let rscheme_for = function
  | "baseline" -> Scheme.Baseline
  | "dfp-stop" -> Scheme.dfp_stop
  | t -> invalid_arg t

let test_crashy_matrix_j_identity () =
  let render cells = Table.render (Service.summary_table cells) in
  let go jobs =
    Sim.Job_pool.run ~jobs
      (Service.matrix ~config:sconfig ~fault_plan:crash_test_plan
         ~label:"service" ~scheme_for:rscheme_for ~tags:rtags trace)
  in
  let serial = go 1 in
  check Alcotest.string "-j1 = -j4 with crashes" (render serial)
    (render (go 4));
  check Alcotest.string "rerun identical" (render serial) (render (go 1));
  List.iter (fun (_, o) -> checkb "crashed" true (o.Service.crashes > 0)) serial

(* ------------------------------------------------------------------ *)
(* Validate.check_resilience direct coverage                           *)
(* ------------------------------------------------------------------ *)

let test_check_resilience_flags_violations () =
  let h = Histogram.create ~auto_expand:true ~lo:0.0 ~hi:100.0 ~buckets:4 () in
  Histogram.add h 10.0;
  let go ?(attempts = 3) ?(crashes = 0) ?(restarts = 0) ?(down = 0) () =
    Validate.check_resilience ~dispatched:2 ~completed:1 ~failed:1 ~in_flight:0
      ~attempts ~retried:1 ~hedged:0 ~hedge_wins:0 ~hedge_cancelled:0 ~crashes
      ~restarts ~down_at_end:down ~latency:h []
  in
  checki "healthy outcome clean" 0 (List.length (go ()));
  let has name vs =
    List.exists (fun (x : Validate.violation) -> x.check = name) vs
  in
  checkb "attempt leak flagged" true
    (has "attempt-conservation" (go ~attempts:5 ()));
  checkb "lost crash flagged" true
    (has "crash-bookkeeping" (go ~crashes:2 ~restarts:1 ()));
  checkb "failure disposition flagged" true
    (has "service-conservation"
       (Validate.check_resilience ~dispatched:3 ~completed:1 ~failed:1
          ~in_flight:0 ~attempts:4 ~retried:1 ~hedged:0 ~hedge_wins:0
          ~hedge_cancelled:0 ~crashes:0 ~restarts:0 ~down_at_end:0 ~latency:h
          []))

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "resilience"
    [
      ( "breaker",
        [
          tc "trips and recloses" test_breaker_trips_and_recloses;
          tc "failed probe reopens" test_breaker_failed_probe_reopens;
          tc "quiet window never judged" test_breaker_quiet_window_never_judged;
          tc "config validated" test_breaker_config_validated;
          tc "bad logs rejected" test_check_transitions_rejects_bad_logs;
          QCheck_alcotest.to_alcotest prop_full_hit_rate_never_opens;
        ] );
      ( "crash schedule",
        [
          tc "deterministic" test_crash_schedule_deterministic;
          tc "crash-free plans never fire" test_crash_free_plans_never_fire;
        ] );
      ( "runner",
        [
          tc "crash-restart bookkeeping" test_runner_crash_restart_bookkeeping;
          tc "crash replay deterministic" test_runner_crash_deterministic;
          tc "breaker diagnostics" test_runner_breaker_diagnostics;
          tc "native immune" test_native_immune_to_crash_and_breaker;
        ] );
      ( "service",
        [
          tc "conservation under every plan" test_conservation_under_every_plan;
          tc "crashes and recovers" test_service_crashes_and_recovers;
          tc "hedging first completion wins" test_hedging_first_completion_wins;
          tc "retries exhaust to failure" test_retries_exhaust_to_failure;
        ] );
      ( "determinism",
        [ tc "crashy matrix -j identity" test_crashy_matrix_j_identity ] );
      ( "validate",
        [
          tc "check_resilience flags violations"
            test_check_resilience_flags_violations;
        ] );
    ]
