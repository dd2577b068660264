(* Tests of the fault-injection layer: the pure, position-keyed draws in
   Fault_plan; the degradation arithmetic in Report; and the chaos
   matrix's tentpole guarantees — bit-identical across -j values and
   repeated runs, every cell passing the fault-tolerant Validate
   battery. *)

module Fault_plan = Sim.Fault_plan
module Chaos = Sim.Chaos
module Runner = Sim.Runner
module Report = Sim.Report
module Experiments = Sim.Experiments
module Input = Workload.Input

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Fault_plan draws                                                    *)
(* ------------------------------------------------------------------ *)

let test_fault_free_is_identity () =
  let p = Fault_plan.none in
  checkb "is_fault_free" true (Fault_plan.is_fault_free p);
  checki "load untouched" 44_000
    (Fault_plan.perturb_load_duration p ~at:123_456 44_000);
  checki "budget untouched" 2048 (Fault_plan.epc_budget p ~at:0 ~capacity:2048)

let test_channel_jitter_bounds_and_determinism () =
  let p = Fault_plan.with_seed Fault_plan.jittery_channel 7 in
  let samples =
    List.init 200 (fun i ->
        Fault_plan.perturb_load_duration p ~at:(i * 100_000) 44_000)
  in
  List.iter (fun d -> checkb "never below base" true (d >= 44_000)) samples;
  checkb "some window actually stalls" true
    (List.exists (fun d -> d > 44_000) samples);
  checkb "stateless: replay is identical" true
    (samples
    = List.init 200 (fun i ->
          Fault_plan.perturb_load_duration p ~at:(i * 100_000) 44_000));
  let reseeded = Fault_plan.with_seed p 8 in
  checkb "seed matters" true
    (samples
    <> List.init 200 (fun i ->
           Fault_plan.perturb_load_duration reseeded ~at:(i * 100_000) 44_000))

let test_co_tenant_budget_bounds () =
  let p = Fault_plan.with_seed Fault_plan.noisy_neighbor 7 in
  List.iter
    (fun at ->
      let b = Fault_plan.epc_budget p ~at ~capacity:1024 in
      checkb "at least one frame" true (b >= 1);
      checkb "never above capacity" true (b <= 1024))
    (List.init 100 (fun i -> i * 1_000_000));
  checkb "some window actually steals" true
    (List.exists
       (fun i -> Fault_plan.epc_budget p ~at:(i * 2_000_000) ~capacity:1024 < 1024)
       (List.init 50 Fun.id))

let test_trace_perturbation_reentrant () =
  let trace =
    Experiments.trace_of Experiments.quick "best-case" ~input:(Input.Ref 0)
  in
  let p = Fault_plan.with_seed Fault_plan.garbled_trace 7 in
  let perturbed () =
    Fault_plan.perturb_trace p ~elrange_pages:trace.Workload.Trace.elrange_pages
      (Workload.Trace.events trace)
    |> List.of_seq
  in
  let once = perturbed () in
  checkb "re-entrant like Trace.events" true (once = perturbed ());
  checkb "some accesses corrupted" true
    (once <> List.of_seq (Workload.Trace.events trace));
  checki "no events dropped without truncation"
    (Seq.length (Workload.Trace.events trace))
    (List.length once)

let test_trace_truncation () =
  let trace =
    Experiments.trace_of Experiments.quick "best-case" ~input:(Input.Ref 0)
  in
  let p =
    {
      (Fault_plan.with_seed Fault_plan.garbled_trace 7) with
      Fault_plan.trace =
        Some { Fault_plan.corrupt_chance = 0.0; truncate_after = Some 10 };
    }
  in
  checki "stream cut at the truncation point" 10
    (Seq.length
       (Fault_plan.perturb_trace p
          ~elrange_pages:trace.Workload.Trace.elrange_pages
          (Workload.Trace.events trace)))

(* The per-instance samplers against the pure draws they cache.  Call
   sequences jump backwards, repeat, sit on window edges ([k * period]
   and the cycle before it) and change the capacity or base inside one
   window, so a cache keyed on the window alone — or one that only moves
   forwards — answers some call wrongly. *)
let sampler_calls ~period =
  let open QCheck.Gen in
  let at =
    let* k = int_range 0 6 in
    oneof
      [
        return 0;
        return (k * period);
        return (Int.max 0 ((k * period) - 1));
        int_range 0 (7 * period);
      ]
  in
  let arg = oneofl [ 1; 2; 63; 64; 1024; 4096; 44_000 ] in
  let* calls = list_size (int_range 1 80) (pair at arg) in
  let* repeat = list_repeat (List.length calls) bool in
  return
    (List.concat
       (List.map2 (fun c twice -> if twice then [ c; c ] else [ c ]) calls repeat))

let sampler_plans =
  [
    Fault_plan.jittery_channel;
    Fault_plan.noisy_neighbor;
    Fault_plan.perfect_storm;
    Fault_plan.flaky_service;
  ]

let sampler_qcheck ~name ~period ~sampler ~reference =
  QCheck.Test.make ~count:200 ~name
    QCheck.(
      make
        ~print:
          Print.(
            pair int (list (pair int int)))
        Gen.(pair (int_range 0 1_000_000) (sampler_calls ~period)))
    (fun (seed, calls) ->
      List.for_all
        (fun plan ->
          let plan = Fault_plan.with_seed plan seed in
          match sampler plan with
          | None -> reference plan = None
          | Some f ->
            let r = Option.get (reference plan) in
            List.for_all (fun (at, x) -> f ~at x = r ~at x) calls)
        sampler_plans)

let samplers_qcheck =
  [
    sampler_qcheck ~name:"jitter sampler = perturb_load_duration"
      ~period:500_000 ~sampler:Fault_plan.jitter_sampler
      ~reference:(fun p ->
        Option.map
          (fun _ ~at base -> Fault_plan.perturb_load_duration p ~at base)
          p.Fault_plan.channel);
    sampler_qcheck ~name:"budget sampler = epc_budget" ~period:2_000_000
      ~sampler:Fault_plan.budget_sampler
      ~reference:(fun p ->
        Option.map
          (fun _ ~at capacity -> Fault_plan.epc_budget p ~at ~capacity)
          p.Fault_plan.co_tenant);
  ]

let test_scramble_plan_permutes () =
  let plan = Experiments.plan_for Experiments.quick "deepsjeng" in
  let stale = Fault_plan.with_seed Fault_plan.stale_profile 7 in
  let scrambled = Fault_plan.scramble_plan stale plan in
  let sites (p : Preload.Sip_instrumenter.plan) =
    List.sort compare
      (List.map (fun (d : Preload.Sip_instrumenter.decision) -> d.site) p.decisions)
  in
  checkb "same site set" true (sites plan = sites scrambled);
  checkb "decisions moved" true (plan.decisions <> scrambled.decisions);
  checkb "deterministic" true
    (scrambled.decisions = (Fault_plan.scramble_plan stale plan).decisions);
  checkb "identity without the fault" true
    (Fault_plan.scramble_plan Fault_plan.none plan == plan)

let test_validate_rejects_bad_params () =
  let bad msg plan =
    Alcotest.check_raises msg (Invalid_argument ("Fault_plan: " ^ msg))
      (fun () -> ignore (Fault_plan.validate plan))
  in
  bad "stall_chance must be in [0,1]"
    {
      Fault_plan.none with
      name = "x";
      channel =
        Some
          {
            Fault_plan.jitter_period = 1000;
            stall_chance = 1.5;
            max_multiplier = 2.0;
          };
    };
  bad "max_steal must be in [0,1)"
    {
      Fault_plan.none with
      name = "x";
      co_tenant = Some { Fault_plan.steal_period = 1000; max_steal = 1.0 };
    }

let test_bank_lookup () =
  let names = Fault_plan.names () in
  checkb "bank has at least 4 plans" true (List.length names >= 4);
  List.iter
    (fun n ->
      match Fault_plan.find n with
      | Some p -> Alcotest.(check string) "find round-trips" n p.Fault_plan.name
      | None -> Alcotest.fail ("bank name not found: " ^ n))
    names;
  checkb "fault-free resolves" true
    (Fault_plan.find "fault-free" = Some Fault_plan.none);
  checkb "unknown is None" true (Fault_plan.find "no-such-plan" = None)

(* ------------------------------------------------------------------ *)
(* Degradation metrics                                                 *)
(* ------------------------------------------------------------------ *)

let run_scheme_best_case plan scheme =
  let trace =
    Experiments.trace_of Experiments.quick "best-case" ~input:(Input.Ref 0)
  in
  let config = { Runner.default_config with epc_pages = 1024 } in
  Runner.run ~spec:(Runner.Spec.make ~config ~fault_plan:plan ()) ~scheme trace

let run_best_case plan = run_scheme_best_case plan Preload.Scheme.dfp_stop

let test_degradation_against_fault_free () =
  let fault_free = run_best_case Fault_plan.none in
  let faulted =
    run_best_case (Fault_plan.with_seed Fault_plan.jittery_channel 7)
  in
  let d = Report.degradation ~fault_free faulted in
  checkb "jitter costs cycles" true (d.Report.overhead > 0.0);
  let self = Report.degradation ~fault_free fault_free in
  checkb "self-degradation is zero" true
    (self.Report.overhead = 0.0 && self.fault_increase = Some 0.0);
  Alcotest.(check string) "plan name recorded" "jittery-channel"
    faulted.Runner.fault_plan

let test_native_immune_to_enclave_faults () =
  (* Native runs outside SGX: there is no EPC for a co-tenant to squeeze,
     no load channel for jitter to stretch, and no SIP plan to go stale.
     Regression for the bug where those hooks were installed anyway and
     the native yardstick drifted with the fault plan.  Only a trace
     fault (which corrupts the access stream itself, before any enclave)
     may legitimately change Native, so each bank plan is compared
     against itself with every non-trace fault stripped. *)
  let native plan = run_scheme_best_case plan Preload.Scheme.Native in
  let fault_free = native Fault_plan.none in
  List.iter
    (fun (p : Fault_plan.t) ->
      let stripped =
        { p with Fault_plan.channel = None; co_tenant = None;
          stale_sip_plan = false }
      in
      let under_plan = native p and under_stripped = native stripped in
      checki
        (Printf.sprintf "%s: cycles ignore non-trace faults" p.Fault_plan.name)
        under_stripped.Runner.cycles under_plan.Runner.cycles;
      checki
        (Printf.sprintf "%s: final_now ignores non-trace faults"
           p.Fault_plan.name)
        under_stripped.Runner.final_now under_plan.Runner.final_now;
      checkb
        (Printf.sprintf "%s: whole result ignores non-trace faults"
           p.Fault_plan.name)
        true
        (under_stripped = under_plan);
      if p.Fault_plan.trace = None then
        checki
          (Printf.sprintf "%s: identical to fault-free" p.Fault_plan.name)
          fault_free.Runner.cycles under_plan.Runner.cycles)
    Fault_plan.bank

(* ------------------------------------------------------------------ *)
(* The chaos matrix                                                    *)
(* ------------------------------------------------------------------ *)

let tiny_settings jobs =
  {
    Chaos.quick with
    Chaos.workloads = [ "best-case" ];
    plans = [ Fault_plan.jittery_channel; Fault_plan.garbled_trace ];
    jobs;
  }

let test_matrix_clean_and_j_invariant () =
  let o1 = Chaos.run (tiny_settings 1) in
  checki "4 schemes x (fault-free + 2 plans)" 12 (List.length o1.Chaos.cells);
  checkb "no failures" true (o1.Chaos.failed = []);
  checki "no invariant violations" 0 o1.Chaos.violation_count;
  checkb "ok" true (Chaos.ok o1);
  let o2 = Chaos.run (tiny_settings 2) in
  checkb "cells identical at -j2" true (o1.Chaos.cells = o2.Chaos.cells);
  let o3 = Chaos.run (tiny_settings 1) in
  checkb "repeat run identical" true (o1.Chaos.cells = o3.Chaos.cells)

let test_matrix_invariants_full_bank () =
  (* Every bank plan, including the perfect storm, must leave the
     simulator's invariants intact on the worst-case-friendly workload. *)
  let o =
    Chaos.run { Chaos.quick with Chaos.workloads = [ "best-case" ]; jobs = 2 }
  in
  checki "full bank, no violations" 0 o.Chaos.violation_count;
  checkb "ok" true (Chaos.ok o);
  List.iter
    (fun (c : Chaos.cell) ->
      checkb
        (Printf.sprintf "%s/%s/%s cycles positive" c.workload c.scheme c.plan)
        true (c.cycles > 0))
    o.Chaos.cells

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let test_matrix_keeps_going_past_dead_cell () =
  (* Injected failure in one scheme's cells (each cell is its own job):
     every other cell must still come back, and the failures must name
     the injected cells. *)
  Unix.putenv "SGX_PRELOAD_FAIL_CELL" "/SIP/";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "SGX_PRELOAD_FAIL_CELL" "")
    (fun () ->
      let o =
        Chaos.run
          { (tiny_settings 2) with Chaos.keep_going = true }
      in
      checki "SIP cells failed (3 plans incl. fault-free)" 3
        (List.length o.Chaos.failed);
      checki "other 9 cells survived" 9 (List.length o.Chaos.cells);
      checkb "not ok" false (Chaos.ok o);
      List.iter
        (fun (f : Sim.Job_pool.failure) ->
          checkb "failure names a SIP cell" true (contains f.label "/SIP/"))
        o.Chaos.failed)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "chaos"
    [
      ( "fault plans",
        [
          tc "fault-free is identity" test_fault_free_is_identity;
          tc "channel jitter bounded + deterministic"
            test_channel_jitter_bounds_and_determinism;
          tc "co-tenant budget bounded" test_co_tenant_budget_bounds;
          tc "trace perturbation re-entrant" test_trace_perturbation_reentrant;
          tc "trace truncation" test_trace_truncation;
          tc "stale plan scrambling" test_scramble_plan_permutes;
          tc "parameter validation" test_validate_rejects_bad_params;
          tc "bank lookup" test_bank_lookup;
        ]
        @ List.map QCheck_alcotest.to_alcotest samplers_qcheck );
      ( "degradation",
        [
          tc "measured against fault-free" test_degradation_against_fault_free;
          tc "native immune to enclave-side faults"
            test_native_immune_to_enclave_faults;
        ] );
      ( "matrix",
        [
          slow "clean, -j invariant, repeatable" test_matrix_clean_and_j_invariant;
          slow "full bank holds invariants" test_matrix_invariants_full_bank;
          slow "keeps going past dead cells" test_matrix_keeps_going_past_dead_cell;
        ] );
    ]
