(* Integration tests: whole simulated runs through the runner, the
   report helpers, and the experiment layer at quick settings.  These
   assert the *shapes* the paper reports, not exact numbers. *)

module Runner = Sim.Runner
module Report = Sim.Report
module Experiments = Sim.Experiments
module Scheme = Preload.Scheme
module Input = Workload.Input
module Metrics = Sgxsim.Metrics

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let epc = 512
let config = { Runner.default_config with epc_pages = epc }

let trace name =
  let model =
    match Workload.Spec.by_name name with
    | Some m -> m
    | None -> Option.get (Workload.Vision.by_name name)
  in
  model ~epc_pages:epc ~input:Input.Train

let run name scheme = Runner.run ~spec:(Runner.Spec.make ~config ()) ~scheme (trace name)

let plan_for name =
  let profile =
    Preload.Sip_profiler.profile
      (Preload.Sip_profiler.default_config ~residency_pages:epc)
      (trace name)
  in
  Preload.Sip_instrumenter.plan_of_profile profile

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let test_runner_deterministic () =
  let a = run "lbm" Scheme.Baseline in
  let b = run "lbm" Scheme.Baseline in
  checki "same cycles" a.cycles b.cycles;
  checki "same faults" (Metrics.total_faults a.metrics) (Metrics.total_faults b.metrics)

let test_runner_native_faster () =
  let base = run "microbenchmark" Scheme.Baseline in
  let native = run "microbenchmark" Scheme.Native in
  checkb "enclave pays for paging" true (native.cycles < base.cycles);
  checkb "native never evicts" true (native.metrics.evictions = 0)

let test_dfp_improves_regular () =
  let base = run "lbm" Scheme.Baseline in
  let dfp = run "lbm" Scheme.dfp_default in
  checkb "faster" true (Runner.improvement ~baseline:base dfp > 0.05);
  checkb "fewer faults" true
    (Metrics.total_faults dfp.metrics < Metrics.total_faults base.metrics)

let test_dfp_hurts_bursty_and_stop_rescues () =
  let base = run "roms" Scheme.Baseline in
  let dfp = run "roms" Scheme.dfp_default in
  let stop = run "roms" Scheme.dfp_stop in
  checkb "plain DFP mispredicts into overhead" true
    (Runner.improvement ~baseline:base dfp < -0.05);
  checkb "stop fires" true stop.dfp_stopped;
  checkb "stop rescues" true
    (Runner.improvement ~baseline:base stop > Runner.improvement ~baseline:base dfp);
  checkb "stop leaves only a small residue" true
    (Float.abs (Runner.improvement ~baseline:base stop) < 0.05)

let test_sip_improves_irregular () =
  let base = run "deepsjeng" Scheme.Baseline in
  let plan = plan_for "deepsjeng" in
  let sip = run "deepsjeng" (Scheme.Sip plan) in
  checkb "has instrumentation points" true (sip.instrumentation_points > 0);
  checkb "faster" true (Runner.improvement ~baseline:base sip > 0.03);
  checkb "notifications replaced faults" true (sip.metrics.sip_notifies > 0);
  checkb "fewer faults" true
    (Metrics.total_faults sip.metrics < Metrics.total_faults base.metrics)

let test_sip_noop_on_regular () =
  let base = run "lbm" Scheme.Baseline in
  let plan = plan_for "lbm" in
  checki "no points on lbm" 0 (Preload.Sip_instrumenter.instrumentation_points plan);
  let sip = run "lbm" (Scheme.Sip plan) in
  checki "identical to baseline" base.cycles sip.cycles

let test_hybrid_beats_both_on_mixed () =
  let base = run "mixed-blood" Scheme.Baseline in
  let plan = plan_for "mixed-blood" in
  let sip = run "mixed-blood" (Scheme.Sip plan) in
  let dfp = run "mixed-blood" Scheme.dfp_default in
  let hybrid =
    run "mixed-blood"
      (Scheme.Hybrid (Preload.Dfp.with_stop Preload.Dfp.default_config, plan))
  in
  let imp r = Runner.improvement ~baseline:base r in
  checkb "all positive" true (imp sip > 0.0 && imp dfp > 0.0 && imp hybrid > 0.0);
  checkb "hybrid >= max(sip, dfp) - epsilon" true
    (imp hybrid >= Float.max (imp sip) (imp dfp) -. 0.01)

let test_normalized_and_improvement () =
  let base = run "lbm" Scheme.Baseline in
  let dfp = run "lbm" Scheme.dfp_default in
  let n = Runner.normalized_time ~baseline:base dfp in
  let i = Runner.improvement ~baseline:base dfp in
  Alcotest.(check (float 1e-9)) "complementary" 1.0 (n +. i)

let test_small_ws_barely_faults () =
  let base = run "exchange2" Scheme.Baseline in
  let faults = Metrics.total_faults base.metrics in
  let accesses = base.metrics.accesses in
  checkb "cold faults only" true (faults * 50 < accesses)

(* ------------------------------------------------------------------ *)
(* Self-validation: every scheme on a mixed workload                   *)
(* ------------------------------------------------------------------ *)

let all_schemes () =
  let plan = plan_for "mixed-blood" in
  [
    Scheme.Baseline; Scheme.Native; Scheme.dfp_default; Scheme.dfp_stop;
    Scheme.Sip plan;
    Scheme.Hybrid (Preload.Dfp.with_stop Preload.Dfp.default_config, plan);
    Scheme.next_line ~degree:4; Scheme.stride ~degree:4;
    Scheme.markov ~table_pages:(8 * epc) ~degree:4;
  ]

let test_every_scheme_validates () =
  (* The tentpole cross-check: for every scheme, the final simulated
     clock equals the accounted cycles, every counter identity holds,
     and the recorded event log obeys its discipline. *)
  let config = { config with Runner.log_capacity = 1 lsl 18 } in
  List.iter
    (fun scheme ->
      let r = Runner.run ~spec:(Runner.Spec.make ~config ()) ~scheme (trace "mixed-blood") in
      checki
        (r.scheme ^ ": final now = total cycles")
        (Metrics.total_cycles r.metrics) r.final_now;
      checkb (r.scheme ^ ": log complete") false
        r.diagnostics.Runner.events_truncated;
      Alcotest.(check string)
        (r.scheme ^ ": no violations")
        ""
        (Sim.Validate.report (Sim.Validate.check r)))
    (all_schemes ())

let test_fault_latency_histograms () =
  let r = run "mixed-blood" Scheme.dfp_default in
  let count kind =
    Repro_util.Histogram.count (List.assoc kind r.fault_latency)
  in
  let m = r.metrics in
  checki "demand-load histogram counts demand faults" m.faults
    (count Sgxsim.Enclave.Demand_load);
  checki "in-flight histogram" m.faults_in_flight
    (count Sgxsim.Enclave.Waited_in_flight);
  checki "already-present histogram" m.faults_already_present
    (count Sgxsim.Enclave.Already_present);
  (* Demand faults cost at least AEX + load + ERESUME, so none can land
     below that bound. *)
  let h = List.assoc Sgxsim.Enclave.Demand_load r.fault_latency in
  let c = Sgxsim.Cost_model.paper in
  Alcotest.(check (float 1e-9))
    "no demand fault faster than the architectural floor" 0.0
    (Repro_util.Histogram.fraction_below h
       (float_of_int (c.t_aex + c.t_load + c.t_eresume)));
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
    at 0
  in
  let rendered = Repro_util.Table.render (Report.fault_latency_table r) in
  checkb "table names every resolution" true
    (List.for_all (contains rendered)
       [ "demand-load"; "waited-in-flight"; "already-present" ])

let test_queue_stress_latency_fits () =
  (* Regression: the fault-latency histograms had a fixed upper bound
     sized for shallow queues; on the queue-stress trace an in-flight
     wait can outlast it many times over, and every such observation
     fell into overflow, biasing the reported mean low.  Auto-expansion
     must keep the overflow bucket empty on this trace too. *)
  let stress = Stress_trace.make ~threads:4 ~streams:16 ~events:20_000 "smoke" in
  let config = { Runner.default_config with epc_pages = 1024 } in
  let r = Runner.run ~spec:(Runner.Spec.make ~config ()) ~scheme:Scheme.dfp_default stress in
  checkb "stress run faults at all" true (Metrics.total_faults r.metrics > 0);
  List.iter
    (fun (kind, h) ->
      checki
        (Runner.resolution_name kind ^ " overflow empty")
        0
        (Repro_util.Histogram.overflow h))
    r.fault_latency

let test_workload_catalog_complete () =
  (* Regression: [workload_families] (behind the CLI's [list]) omitted
     the Parallel_apps and Synthetic families even though [run] accepted
     their names. *)
  let catalog = Experiments.workload_families in
  let listed n = List.mem_assoc n catalog in
  List.iter
    (fun (n, _) -> checkb (n ^ " listed") true (listed n))
    Workload.Parallel_apps.all;
  List.iter
    (fun (n, _) -> checkb (n ^ " listed") true (listed n))
    Workload.Synthetic.all;
  (* The catalog and the resolver agree in both directions. *)
  List.iter
    (fun (n, _) ->
      checkb (n ^ " resolves") true (Option.is_some (Experiments.find_model n)))
    catalog;
  checkb "unknown name stays unresolvable" true
    (Option.is_none (Experiments.find_model "no-such-workload"))

(* ------------------------------------------------------------------ *)
(* Report helpers                                                      *)
(* ------------------------------------------------------------------ *)

let test_report_summary_mentions_scheme () =
  let r = run "lbm" Scheme.dfp_default in
  let s = Report.summary r in
  checkb "workload named" true
    (String.length s > 0
    && String.sub s 0 3 = "lbm")

let test_report_breakdown_sums_to_total () =
  let r = run "lbm" Scheme.Baseline in
  let rendered = Repro_util.Table.render (Report.breakdown_table r) in
  checkb "total row present" true
    (List.exists
       (fun line ->
         String.length line > 5 && String.sub line 0 5 = "total")
       (String.split_on_char '\n' rendered))

let test_report_fault_reduction () =
  let base = run "lbm" Scheme.Baseline in
  let dfp = run "lbm" Scheme.dfp_default in
  (match Report.fault_reduction ~baseline:base dfp with
  | None -> Alcotest.fail "baseline had faults, reduction must be defined"
  | Some fr -> checkb "in (0,1)" true (fr > 0.0 && fr < 1.0));
  (* A fault-free baseline has no defined reduction. *)
  checkb "0-of-0 baseline is n/a" true
    (Report.fault_reduction ~baseline:dfp dfp = None
    || Sgxsim.Metrics.total_faults dfp.Runner.metrics > 0)

let test_report_geomean () =
  let base = run "lbm" Scheme.Baseline in
  let dfp = run "lbm" Scheme.dfp_default in
  let g = Report.geomean_normalized [ (base, dfp); (base, base) ] in
  checkb "between the two" true
    (g > Runner.normalized_time ~baseline:base dfp && g < 1.0)

let test_ascii_scatter_shape () =
  let s =
    Report.ascii_scatter ~width:10 ~height:4
      [ (0, 0); (9, 9) ]
      ~max_x:9 ~max_y:9
  in
  let lines = String.split_on_char '\n' s in
  checki "height + axis" 6 (List.length lines);
  checkb "plots points" true (String.contains s '*')

(* ------------------------------------------------------------------ *)
(* Experiments layer (quick settings)                                  *)
(* ------------------------------------------------------------------ *)

let q = Experiments.quick

let test_intro_slowdown_order_of_magnitude () =
  let s = Experiments.intro_slowdown q in
  checkb "tens of x" true (s > 10.0 && s < 100.0)

let test_fig2_timelines () =
  let base_events, dfp_events = Experiments.fig2_timelines q in
  checkb "baseline logged" true (List.length base_events > 0);
  checkb "dfp logged" true (List.length dfp_events > 0);
  (* Baseline faults on all four pages; DFP on fewer. *)
  let faults evs =
    List.length
      (List.filter (function Sgxsim.Event.Fault _ -> true | _ -> false) evs)
  in
  checki "baseline faults" 4 (faults base_events);
  checkb "dfp avoids some" true (faults dfp_events < 4)

let test_fig4_costs () =
  let base, sip = Experiments.fig4_costs q in
  let c = Sgxsim.Cost_model.paper in
  checki "baseline path" (c.t_aex + c.t_load + c.t_eresume + c.t_access) base;
  checki "sip path" (c.t_bitmap_check + c.t_notify + c.t_load + c.t_access) sip

let test_table1_covers_all_spec () =
  let rows = Experiments.table1_rows q in
  checki "15 benchmarks" 15 (List.length rows);
  List.iter
    (fun (name, _, pages, ratio, irregular) ->
      checkb (name ^ " pages positive") true (pages > 0);
      checkb (name ^ " ratio positive") true (ratio > 0.0);
      checkb (name ^ " irregular in [0,1]") true (irregular >= 0.0 && irregular <= 1.0))
    rows

let test_fig6_short_list_hurts_bwaves () =
  let sweep = Experiments.fig6_sweep q in
  let at len = List.assoc "bwaves" (List.assoc len sweep) in
  (* bwaves runs 5 concurrent streams + a noise site: a 2-entry list
     thrashes, a 30-entry list does not. *)
  checkb "short list worse" true (at 2 > at 30)

let test_fig7_long_loadlength_hurts_irregular () =
  let sweep = Experiments.fig7_sweep q in
  let sjeng = List.assoc "deepsjeng" sweep in
  checkb "L=16 worse than L=4 on deepsjeng" true
    (List.assoc 16 sjeng > List.assoc 4 sjeng);
  let lbm = List.assoc "lbm" sweep in
  checkb "L=4 better than L=1 on lbm" true (List.assoc 4 lbm < List.assoc 1 lbm)

let test_fig8_shapes () =
  let rows = Experiments.fig8_rows q in
  let find w s = List.find (fun r -> r.Experiments.workload = w && r.scheme = s) rows in
  checkb "lbm DFP gains" true ((find "lbm" "DFP").improvement > 0.05);
  checkb "roms DFP loses" true ((find "roms" "DFP").improvement < -0.05);
  checkb "roms DFP-stop rescued" true
    ((find "roms" "DFP-stop").improvement > (find "roms" "DFP").improvement)

let test_fig9_high_threshold_loses () =
  let sweep = Experiments.fig9_sweep q in
  let at t = List.assoc t sweep in
  checkb "80% threshold worse than 5%" true (at 0.8 > at 0.05)

let test_fig10_shapes () =
  let rows = Experiments.fig10_rows q in
  let find w = List.find (fun (r, _) -> r.Experiments.workload = w) rows in
  let sjeng, points = find "deepsjeng" in
  checkb "deepsjeng gains" true (sjeng.improvement > 0.02);
  checkb "deepsjeng instrumented" true (points > 0);
  let lbm, lbm_points = find "lbm" in
  checki "lbm untouched" 0 lbm_points;
  checkb "lbm unchanged" true (Float.abs lbm.improvement < 1e-9)

let test_fig13_hybrid_wins () =
  let rows = Experiments.fig13_rows q in
  let get s = (List.find (fun r -> r.Experiments.scheme = s) rows).Experiments.improvement in
  checkb "hybrid at least matches both" true
    (get "SIP+DFP-stop" >= Float.max (get "SIP") (get "DFP") -. 0.01)

let test_table2_zero_point_benchmarks () =
  let rows = Experiments.table2_rows q in
  List.iter
    (fun (name, measured, paper) ->
      if paper = 0 then checki (name ^ " has zero points") 0 measured
      else checkb (name ^ " has points") true (measured > 0))
    rows

let test_ablation_backward () =
  let rows = Experiments.ablation_backward_rows q in
  let get s = (List.find (fun r -> r.Experiments.scheme = s) rows).Experiments.improvement in
  checkb "backward detection pays on a descending sweep" true
    (get "DFP (backward on)" > get "DFP (backward off)" +. 0.02)

let test_ablation_predictor () =
  let rows = Experiments.ablation_predictor_rows q in
  checkb "four schemes per benchmark" true (List.length rows = 4);
  checkb "DFP competitive on lbm" true
    (List.for_all
       (fun r ->
         r.Experiments.scheme <> "DFP" || r.improvement > 0.0)
       rows)

let test_ablation_threads () =
  let rows = Experiments.ablation_threads_rows q in
  let get s = (List.find (fun r -> r.Experiments.scheme = s) rows).Experiments.improvement in
  checkb "per-thread lists beat a shared one" true
    (get "DFP (per-thread lists)" > get "DFP (one shared list)")

let test_ablation_share () =
  let rows = Experiments.ablation_share_rows q in
  (match rows with
  | (full_epc, full_slowdown, _) :: (half_epc, half_slowdown, _) :: _ ->
    checkb "partitions shrink" true (half_epc < full_epc);
    checkb "full partition is the reference" true
      (Float.abs (full_slowdown -. 1.0) < 1e-9);
    checkb "contention hurts" true (half_slowdown > 1.0)
  | _ -> Alcotest.fail "expected at least two partitions");
  (match rows with
  | (_, _, full_improvement) :: _ ->
    checkb "DFP positive at the full partition" true (full_improvement > 0.0)
  | [] -> Alcotest.fail "no partitions");
  checkb "DFP never collapses under contention" true
    (List.for_all (fun (_, _, improvement) -> improvement > -0.05) rows)

let test_ablation_sip_all () =
  let rows = Experiments.ablation_sip_all_rows q in
  let get s = (List.find (fun r -> r.Experiments.scheme = s) rows).Experiments.improvement in
  (* Checking everything converts every fault (quick set: deepsjeng). *)
  checkb "check-everything converts more faults" true
    (get "check everything" >= get "SIP (5% threshold)")

let test_experiments_catalog () =
  checkb "has the paper artefacts" true
    (List.for_all
       (fun id -> List.mem_assoc id Experiments.all)
       [
         "intro"; "fig2"; "fig3"; "fig4"; "table1"; "fig6"; "fig7"; "fig8";
         "fig9"; "fig10"; "fig11"; "fig12"; "fig13"; "table2";
       ]);
  (match
     try
       Experiments.run "nope" q;
       None
     with Invalid_argument msg -> Some msg
   with
  | Some msg ->
    let prefix = "Experiments.run: unknown experiment" in
    checkb "error names the unknown id" true
      (String.length msg >= String.length prefix
      && String.sub msg 0 (String.length prefix) = prefix)
  | None -> Alcotest.fail "unknown id must be rejected")

let test_fig3_series_shapes () =
  let series = Experiments.fig3_series q in
  checki "three benchmarks" 3 (List.length series);
  List.iter
    (fun (name, points) ->
      checkb (name ^ " has points") true (List.length points > 50);
      checkb (name ^ " x ascending") true
        (let xs = List.map fst points in
         List.sort compare xs = xs))
    series;
  (* lbm's sweep is the diagonal: page is non-decreasing over the window
     apart from the array switch. *)
  let lbm = List.assoc "lbm" series in
  let increasing =
    let rec count = function
      | (_, a) :: ((_, b) :: _ as rest) -> (if b >= a then 1 else 0) + count rest
      | _ -> 0
    in
    count lbm
  in
  checkb "lbm mostly ascending" true
    (float_of_int increasing /. float_of_int (List.length lbm) > 0.9)

let test_runner_reports_instrumentation_points () =
  let plan = plan_for "deepsjeng" in
  let r = run "deepsjeng" (Scheme.Sip plan) in
  checki "points surfaced in the result"
    (Preload.Sip_instrumenter.instrumentation_points plan)
    r.instrumentation_points;
  let b = run "deepsjeng" Scheme.Baseline in
  checki "baseline reports none" 0 b.instrumentation_points

let test_markov_scheme_via_runner () =
  (* The correlation table needs repeats: the ref input runs lbm for
     several timesteps, so the second sweep replays the first's fault
     chain. *)
  let trace = Workload.Spec.lbm ~epc_pages:epc ~input:(Input.Ref 0) in
  let base = Runner.run ~spec:(Runner.Spec.make ~config ()) ~scheme:Scheme.Baseline trace in
  let m = Runner.run ~spec:(Runner.Spec.make ~config ()) ~scheme:(Scheme.markov ~table_pages:(8 * epc) ~degree:4) trace in
  Alcotest.(check string) "scheme name" "markov(4096,4)" m.scheme;
  checkb "repeated sweeps are learnable" true
    (Runner.improvement ~baseline:base m > 0.0)

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "sim"
    [
      ( "runner",
        [
          tc "deterministic" test_runner_deterministic;
          tc "native faster" test_runner_native_faster;
          tc "DFP improves regular" test_dfp_improves_regular;
          slow "DFP hurts bursty, stop rescues" test_dfp_hurts_bursty_and_stop_rescues;
          slow "SIP improves irregular" test_sip_improves_irregular;
          tc "SIP no-op on regular" test_sip_noop_on_regular;
          slow "hybrid beats both on mixed" test_hybrid_beats_both_on_mixed;
          tc "normalized + improvement = 1" test_normalized_and_improvement;
          tc "small WS barely faults" test_small_ws_barely_faults;
        ] );
      ( "validation",
        [
          slow "every scheme validates on mixed-blood" test_every_scheme_validates;
          tc "fault latency histograms" test_fault_latency_histograms;
          slow "queue-stress latencies fit" test_queue_stress_latency_fits;
        ] );
      ( "report",
        [
          tc "summary" test_report_summary_mentions_scheme;
          tc "breakdown" test_report_breakdown_sums_to_total;
          tc "fault reduction" test_report_fault_reduction;
          tc "geomean" test_report_geomean;
          tc "ascii scatter" test_ascii_scatter_shape;
        ] );
      ( "experiments",
        [
          tc "workload catalog complete" test_workload_catalog_complete;
          slow "intro slowdown" test_intro_slowdown_order_of_magnitude;
          tc "fig2 timelines" test_fig2_timelines;
          tc "fig4 costs" test_fig4_costs;
          slow "table1 coverage" test_table1_covers_all_spec;
          slow "fig6 short list hurts" test_fig6_short_list_hurts_bwaves;
          slow "fig7 loadlength" test_fig7_long_loadlength_hurts_irregular;
          slow "fig8 shapes" test_fig8_shapes;
          slow "fig9 threshold" test_fig9_high_threshold_loses;
          slow "fig10 shapes" test_fig10_shapes;
          slow "fig13 hybrid" test_fig13_hybrid_wins;
          slow "table2 zero points" test_table2_zero_point_benchmarks;
          slow "ablation backward" test_ablation_backward;
          slow "ablation predictor" test_ablation_predictor;
          slow "ablation threads" test_ablation_threads;
          slow "ablation share" test_ablation_share;
          slow "ablation sip-all" test_ablation_sip_all;
          tc "fig3 series shapes" test_fig3_series_shapes;
          tc "runner reports points" test_runner_reports_instrumentation_points;
          slow "markov via runner" test_markov_scheme_via_runner;
          tc "catalog" test_experiments_catalog;
        ] );
    ]
