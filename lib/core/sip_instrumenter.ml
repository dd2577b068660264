type decision = {
  site : int;
  counts : Sip_profiler.site_counts;
  ratio : float;
  instrument : bool;
}

type plan = { workload : string; threshold : float; decisions : decision list }

let default_threshold = 0.05

let plan_of_profile ?(threshold = default_threshold) (profile : Sip_profiler.t) =
  let decisions =
    List.map
      (fun (site, counts) ->
        let ratio = Sip_profiler.irregular_ratio counts in
        { site; counts; ratio; instrument = ratio >= threshold })
      (Sip_profiler.sites profile)
  in
  { workload = profile.Sip_profiler.workload; threshold; decisions }

let instrumented_sites plan =
  List.filter_map
    (fun d -> if d.instrument then Some d.site else None)
    plan.decisions

let instrumentation_points plan = List.length (instrumented_sites plan)

let is_instrumented plan site =
  List.exists (fun d -> d.instrument && d.site = site) plan.decisions

let site_predicate plan =
  let set = Repro_util.Int_table.create ~dummy:false in
  List.iter
    (fun d -> if d.instrument then Repro_util.Int_table.set set d.site true)
    plan.decisions;
  fun site -> Repro_util.Int_table.find set site

let empty_plan ~workload = { workload; threshold = default_threshold; decisions = [] }

let pp fmt plan =
  Format.fprintf fmt "@[<v>plan for %s (threshold %.1f%%): %d point(s)@ "
    plan.workload (100.0 *. plan.threshold)
    (instrumentation_points plan);
  List.iter
    (fun d ->
      if d.instrument then
        Format.fprintf fmt "  site %d: c1=%d c2=%d c3=%d ratio=%.1f%%@ " d.site
          d.counts.Sip_profiler.c1 d.counts.Sip_profiler.c2
          d.counts.Sip_profiler.c3 (100.0 *. d.ratio))
    plan.decisions;
  Format.fprintf fmt "@]"
