(* The fleet locks.

   1. Correctness lock: a fleet of ONE tenant in shared mode is
      [Runner.run], structurally equal over the whole result (diagnostics
      and histograms included) — over every scheme and every fault plan,
      directed and randomized.  The global owner-tagged CLOCK sweep, the
      channel arbiter and the interleaver must all be exact identities
      at N = 1.
   2. Partition-of-1 coincides with shared-of-1 (a partition of one
      tenant is the whole pool).
   3. Multi-tenant runs satisfy the {!Sim.Validate.check_fleet}
      conservation laws on every chaos-bank plan, in both EPC modes and
      under every channel policy, and are deterministic (same outcome on
      a re-run, and across the [Fleet.matrix] job list at any [-j]).
   4. The budget-shrink satellite fix: under a co-tenant fault plan,
      residency never exceeds the frame budget at any synced instant. *)

module Runner = Sim.Runner
module Fleet = Sim.Fleet
module Validate = Sim.Validate
module Fault_plan = Sim.Fault_plan
module Scheme = Preload.Scheme
module Enclave = Sgxsim.Enclave
module Arbiter = Sgxsim.Load_channel.Arbiter
module Trace_arena = Workload.Trace_arena

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let trace_for seed =
  Stress_trace.make ~seed (Printf.sprintf "fleet-diff-%d" seed)

let config = { Runner.default_config with Runner.epc_pages = 128 }

let fleet_config mode =
  {
    Fleet.default_config with
    Fleet.epc_pages = 128;
    log_capacity = 0;
    mode;
  }

let sip_plan_for trace =
  let profile =
    Preload.Sip_profiler.profile
      (Preload.Sip_profiler.default_config ~residency_pages:128)
      trace
  in
  Preload.Sip_instrumenter.plan_of_profile profile

let scheme_pool trace =
  [
    Scheme.Baseline;
    Scheme.Native;
    Scheme.dfp_default;
    Scheme.dfp_stop;
    Scheme.next_line ~degree:4;
    Scheme.stride ~degree:4;
    Scheme.Sip (sip_plan_for trace);
    Scheme.Hybrid (Preload.Dfp.default_config, sip_plan_for trace);
  ]

let plan_pool = Fault_plan.none :: Fault_plan.bank

(* ------------------------------------------------------------------ *)
(* Lock 1: fleet of one (shared) == Runner.run                         *)
(* ------------------------------------------------------------------ *)

let singleton_diff ~seed ~plan scheme =
  let trace = trace_for seed in
  let solo = Runner.run ~spec:(Runner.Spec.make ~config ~fault_plan:plan ()) ~scheme trace in
  let outcome =
    Fleet.run ~config:(fleet_config Fleet.Shared) ~fault_plan:plan
      [ Fleet.tenant ~label:"solo" ~scheme trace ]
  in
  let ctx =
    Printf.sprintf "seed=%d plan=%s scheme=%s" seed plan.Fault_plan.name
      solo.Runner.scheme
  in
  (match outcome.Fleet.results with
  | [ r ] ->
    checki (ctx ^ ": cycles") solo.Runner.cycles r.Runner.cycles;
    checkb (ctx ^ ": whole result equal") true (solo = r)
  | rs -> Alcotest.failf "%s: expected 1 result, got %d" ctx (List.length rs));
  (* A fleet of one has nobody to contend with. *)
  checki (ctx ^ ": channel wait") 0 outcome.Fleet.channel_waits.(0);
  checki (ctx ^ ": contentions") 0 outcome.Fleet.channel_contentions;
  checkb (ctx ^ ": fleet invariants") true (Fleet.check outcome = [])

let test_singleton_all_schemes () =
  let trace = trace_for 7 in
  List.iter
    (fun scheme -> singleton_diff ~seed:7 ~plan:Fault_plan.none scheme)
    (scheme_pool trace)

let test_singleton_all_plans () =
  let trace = trace_for 11 in
  List.iter
    (fun plan ->
      List.iter
        (fun scheme -> singleton_diff ~seed:11 ~plan scheme)
        [ Scheme.Baseline; Scheme.dfp_default; Scheme.Sip (sip_plan_for trace) ])
    Fault_plan.bank

let test_partition_of_one_is_shared () =
  let trace = trace_for 13 in
  List.iter
    (fun scheme ->
      let one mode =
        Fleet.run ~config:(fleet_config mode)
          [ Fleet.tenant ~label:"solo" ~scheme trace ]
      in
      let shared = one Fleet.Shared and part = one Fleet.Partitioned in
      checkb
        (Printf.sprintf "%s: partition-of-1 results == shared-of-1"
           (Scheme.name scheme))
        true
        (shared.Fleet.results = part.Fleet.results))
    [ Scheme.Baseline; Scheme.dfp_default ]

let singleton_qcheck =
  let gen =
    QCheck2.Gen.(
      triple (int_range 0 1000)
        (int_range 0 (List.length plan_pool - 1))
        (int_range 0 7))
  in
  [
    QCheck2.Test.make ~name:"fleet of 1 (shared) == Runner.run" ~count:25 gen
      (fun (seed, plan_i, scheme_i) ->
        let trace = trace_for seed in
        let pool = Array.of_list (scheme_pool trace) in
        singleton_diff ~seed ~plan:(List.nth plan_pool plan_i) pool.(scheme_i);
        true);
  ]

(* ------------------------------------------------------------------ *)
(* Lock 3: multi-tenant invariants and determinism                     *)
(* ------------------------------------------------------------------ *)

let mixed_fleet () =
  let t1 = trace_for 21 and t2 = trace_for 22 and t3 = trace_for 23 in
  [
    Fleet.tenant ~label:"alpha" ~scheme:Scheme.Baseline ~priority:1 t1;
    Fleet.tenant ~label:"beta" ~scheme:Scheme.dfp_default ~priority:2 t2;
    Fleet.tenant ~label:"gamma" ~scheme:(Scheme.Sip (sip_plan_for t3))
      ~priority:3 t3;
  ]

let test_fleet_invariants_all_plans () =
  let tenants = mixed_fleet () in
  List.iter
    (fun plan ->
      List.iter
        (fun mode ->
          let outcome =
            Fleet.run ~config:(fleet_config mode) ~fault_plan:plan tenants
          in
          (match Fleet.check outcome with
          | [] -> ()
          | vs ->
            Alcotest.failf "plan=%s mode=%s:\n%s" plan.Fault_plan.name
              (Fleet.mode_name mode) (Validate.report vs));
          (* The shared sweep must actually cross tenant boundaries under
             pressure: the three traces together far exceed 128 frames,
             so somebody evicts somebody. *)
          if mode = Fleet.Shared && plan == Fault_plan.none then begin
            let total =
              Array.fold_left
                (fun acc row -> acc + Array.fold_left ( + ) 0 row)
                0 outcome.Fleet.interference
            in
            checkb "evictions happened" true (total > 0);
            let off_diagonal = ref 0 in
            Array.iteri
              (fun v row ->
                Array.iteri
                  (fun a x -> if v <> a then off_diagonal := !off_diagonal + x)
                  row)
              outcome.Fleet.interference;
            checkb "cross-tenant evictions happened" true (!off_diagonal > 0)
          end;
          (* Partitioned pools are private: nobody can evict across. *)
          if mode = Fleet.Partitioned then
            Array.iteri
              (fun v row ->
                Array.iteri
                  (fun a x ->
                    if v <> a then
                      checki
                        (Printf.sprintf
                           "partitioned off-diagonal (%d,%d) is zero" v a)
                        0 x)
                  row)
              outcome.Fleet.interference)
        [ Fleet.Shared; Fleet.Partitioned ])
    plan_pool

let test_fleet_deterministic_and_policies () =
  let tenants = mixed_fleet () in
  List.iter
    (fun policy ->
      let cfg = { (fleet_config Fleet.Shared) with Fleet.policy } in
      let a = Fleet.run ~config:cfg tenants in
      let b = Fleet.run ~config:cfg tenants in
      checkb
        (Printf.sprintf "policy %s: outcome reproducible"
           (Arbiter.policy_name policy))
        true
        (a.Fleet.results = b.Fleet.results
        && a.Fleet.interference = b.Fleet.interference
        && a.Fleet.channel_waits = b.Fleet.channel_waits);
      checkb
        (Printf.sprintf "policy %s: invariants" (Arbiter.policy_name policy))
        true
        (Fleet.check a = []))
    Arbiter.policies;
  (* Three co-tenants over one channel must actually contend. *)
  let outcome = Fleet.run ~config:(fleet_config Fleet.Shared) tenants in
  checkb "channel contention happened" true
    (outcome.Fleet.channel_contentions > 0)

let test_matrix_jobs_deterministic () =
  let tenants =
    List.map
      (fun t -> { t with Fleet.scheme = Scheme.Baseline })
      (mixed_fleet ())
  in
  let scheme_for tag _label =
    match tag with
    | "baseline" -> Scheme.Baseline
    | "dfp-stop" -> Scheme.dfp_stop
    | t -> invalid_arg t
  in
  let run jobs =
    Sim.Job_pool.run ~jobs
      (Fleet.matrix ~config:(fleet_config Fleet.Shared) ~scheme_for
         ~tags:[ "baseline"; "dfp-stop" ]
         ~modes:[ Fleet.Shared; Fleet.Partitioned ]
         tenants)
  in
  let serial = run 1 and parallel = run 2 in
  checki "cell count" 4 (List.length serial);
  checkb "matrix identical at -j2" true (serial = parallel)

(* ------------------------------------------------------------------ *)
(* Lock 4: budget shrink reconciled at every synced instant            *)
(* ------------------------------------------------------------------ *)

let test_budget_shrink_reconciled () =
  List.iter
    (fun plan ->
      (* Both plans with a co-tenant component. *)
      let trace = trace_for 31 in
      let arena = Trace_arena.compile trace in
      let enclave =
        Enclave.create ~epc_pages:64
          ~elrange_pages:trace.Workload.Trace.elrange_pages ()
      in
      Enclave.set_epc_budget enclave (fun ~at capacity ->
          Fault_plan.epc_budget plan ~at ~capacity);
      let now = ref 0 in
      let len = min 2_000 (Trace_arena.length arena) in
      for i = 0 to len - 1 do
        now :=
          Enclave.access enclave ~now:!now (Trace_arena.vpage arena i);
        (* The satellite fix: syncing at any instant squeezes residency
           to that instant's budget — not "eventually, at the next
           fault".  Before the fix this failed within a few hundred
           accesses of the first budget shrink. *)
        Enclave.sync enclave ~now:!now;
        let budget = Enclave.frame_budget enclave ~at:!now in
        if Enclave.resident_count enclave > budget then
          Alcotest.failf "plan=%s t=%d: resident %d > budget %d"
            plan.Fault_plan.name !now
            (Enclave.resident_count enclave)
            budget
      done)
    [ Fault_plan.noisy_neighbor; Fault_plan.perfect_storm ]

let () =
  Alcotest.run "fleet"
    [
      ( "singleton",
        [
          Alcotest.test_case "all schemes, fault-free" `Quick
            test_singleton_all_schemes;
          Alcotest.test_case "bank plans" `Quick test_singleton_all_plans;
          Alcotest.test_case "partition-of-1 == shared-of-1" `Quick
            test_partition_of_one_is_shared;
        ] );
      ("property", List.map QCheck_alcotest.to_alcotest singleton_qcheck);
      ( "co-tenancy",
        [
          Alcotest.test_case "invariants on every plan, both modes" `Quick
            test_fleet_invariants_all_plans;
          Alcotest.test_case "determinism across policies" `Quick
            test_fleet_deterministic_and_policies;
          Alcotest.test_case "matrix identical across -j" `Quick
            test_matrix_jobs_deterministic;
        ] );
      ( "budget",
        [
          Alcotest.test_case "resident <= budget at every sync" `Quick
            test_budget_shrink_reconciled;
        ] );
    ]
