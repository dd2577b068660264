(* The fused-replay lock: [Runner.run_fused ~schemes] must be
   field-for-field identical to running each scheme in its own pass —
   over arbitrary scheme mixes, fault plans (both the arena fan-out path
   and the trace-corruption [Seq] path) and trace seeds.  Same lock style
   as the deque-vs-list differential of PR 2: a reference semantics
   ([List.map Runner.run]) pitted against the optimized path on random
   inputs. *)

module Runner = Sim.Runner
module Fault_plan = Sim.Fault_plan
module Scheme = Preload.Scheme
module Metrics = Sgxsim.Metrics
module Histogram = Repro_util.Histogram

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Small but non-trivial stress trace: multi-threaded, queue-heavy, with
   footprint >> EPC so every scheme faults, preloads, evicts and scans. *)
let trace_for seed =
  Stress_trace.make ~seed (Printf.sprintf "fused-diff-%d" seed)

let config = { Runner.default_config with Runner.epc_pages = 128 }

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

(* One differential comparison: fused vs per-cell, every result field.
   The histogram list and diagnostics records are covered by the whole-
   result structural equality (Runner.result is data all the way down);
   the targeted checks before it exist to localize a failure. *)
let check_equal ~ctx (fused : Runner.result) (solo : Runner.result) =
  let lbl what = Printf.sprintf "%s: %s" ctx what in
  Alcotest.(check string) (lbl "scheme") solo.Runner.scheme fused.Runner.scheme;
  checki (lbl "cycles") solo.Runner.cycles fused.Runner.cycles;
  checki (lbl "final_now") solo.Runner.final_now fused.Runner.final_now;
  checki (lbl "faults")
    (Metrics.total_faults solo.Runner.metrics)
    (Metrics.total_faults fused.Runner.metrics);
  checki (lbl "preloads_issued") solo.Runner.metrics.Metrics.preloads_issued
    fused.Runner.metrics.Metrics.preloads_issued;
  checki (lbl "pending at end") solo.Runner.diagnostics.Runner.pending_preloads
    fused.Runner.diagnostics.Runner.pending_preloads;
  checki (lbl "in-flight at end")
    solo.Runner.diagnostics.Runner.in_flight_preloads
    fused.Runner.diagnostics.Runner.in_flight_preloads;
  checkb (lbl "in-flight kind") true
    (solo.Runner.diagnostics.Runner.in_flight_kind
    = fused.Runner.diagnostics.Runner.in_flight_kind);
  checkb (lbl "dfp_stopped") solo.Runner.dfp_stopped fused.Runner.dfp_stopped;
  List.iter2
    (fun (kind_s, h_s) (kind_f, h_f) ->
      checkb (lbl "histogram kind order") true (kind_s = kind_f);
      checki
        (lbl
           (Printf.sprintf "fault-latency count (%s)"
              (Runner.resolution_name kind_s)))
        (Histogram.count h_s) (Histogram.count h_f);
      checkb (lbl "histogram equal") true (h_s = h_f))
    solo.Runner.fault_latency fused.Runner.fault_latency;
  checkb (lbl "whole result equal") true (solo = fused)

let run_diff ~seed ~plan ~schemes =
  let trace = trace_for seed in
  let fused = Runner.run_fused ~spec:(Runner.Spec.make ~config ~fault_plan:plan ()) ~schemes trace in
  let solo =
    List.map (fun s -> Runner.run ~spec:(Runner.Spec.make ~config ~fault_plan:plan ()) ~scheme:s trace) schemes
  in
  checki "result count" (List.length solo) (List.length fused);
  List.iteri
    (fun i (f, s) ->
      let ctx =
        Printf.sprintf "seed=%d plan=%s scheme#%d=%s" seed
          plan.Fault_plan.name i s.Runner.scheme
      in
      check_equal ~ctx f s)
    (List.combine fused solo)

(* ------------------------------------------------------------------ *)
(* Directed cases: every scheme, every plan in the bank                *)
(* ------------------------------------------------------------------ *)

let test_all_schemes_fault_free () =
  let trace = trace_for 7 in
  run_diff ~seed:7 ~plan:Fault_plan.none ~schemes:(scheme_pool trace)

let test_all_plans_mixed_schemes () =
  (* Each bank plan (including the trace-corrupting ones, which exercise
     the shared-Seq fan-out instead of the arena path) against a mix that
     includes both preloading and plain schemes. *)
  let trace = trace_for 11 in
  let schemes =
    [ Scheme.Baseline; Scheme.Native; Scheme.dfp_default;
      Scheme.Sip (sip_plan_for trace) ]
  in
  List.iter (fun plan -> run_diff ~seed:11 ~plan ~schemes) Fault_plan.bank

let test_singleton_fusion_is_run () =
  (* A 1-scheme fusion must also be [run] itself, trivially. *)
  let trace = trace_for 3 in
  let r = Runner.run ~spec:(Runner.Spec.make ~config ()) ~scheme:Scheme.dfp_default trace in
  match Runner.run_fused ~spec:(Runner.Spec.make ~config ()) ~schemes:[ Scheme.dfp_default ] trace with
  | [ r' ] -> checkb "singleton equal" true (r = r')
  | rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs)

let test_duplicate_schemes_independent () =
  (* The same scheme twice in one fused pass: instances must not share
     state, so both copies equal the solo run. *)
  let schemes = [ Scheme.dfp_default; Scheme.dfp_default ] in
  run_diff ~seed:5 ~plan:Fault_plan.none ~schemes

(* ------------------------------------------------------------------ *)
(* Randomized property: schemes x fault plans x seeds                  *)
(* ------------------------------------------------------------------ *)

let fused_qcheck =
  let gen =
    QCheck2.Gen.(
      triple (int_range 0 1000)
        (int_range 0 (List.length plan_pool - 1))
        (list_size (int_range 1 5) (int_range 0 7)))
  in
  [
    QCheck2.Test.make ~name:"run_fused == List.map run" ~count:25 gen
      (fun (seed, plan_i, scheme_is) ->
        let trace = trace_for seed in
        let pool = Array.of_list (scheme_pool trace) in
        let schemes = List.map (fun i -> pool.(i)) scheme_is in
        let plan = List.nth plan_pool plan_i in
        run_diff ~seed ~plan ~schemes;
        true);
  ]

let () =
  Alcotest.run "fused"
    [
      ( "differential",
        [
          Alcotest.test_case "all schemes, fault-free" `Quick
            test_all_schemes_fault_free;
          Alcotest.test_case "bank plans, mixed schemes" `Quick
            test_all_plans_mixed_schemes;
          Alcotest.test_case "singleton fusion" `Quick
            test_singleton_fusion_is_run;
          Alcotest.test_case "duplicate schemes stay independent" `Quick
            test_duplicate_schemes_independent;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest fused_qcheck );
    ]
