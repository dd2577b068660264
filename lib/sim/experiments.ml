module Table = Repro_util.Table
module Trace = Workload.Trace
module Pattern = Workload.Pattern
module Input = Workload.Input
module Spec = Workload.Spec
module Vision = Workload.Vision
module Scheme = Preload.Scheme
module Dfp = Preload.Dfp
module Profiler = Preload.Sip_profiler
module Instrumenter = Preload.Sip_instrumenter
module Metrics = Sgxsim.Metrics

type settings = {
  epc_pages : int;
  ref_input : Input.t;
  quick : bool;
  jobs : int;
  cell_timeout : float option;
  retries : int;
  keep_going : bool;
  journal_dir : string option;
  resume : bool;
}

let default =
  {
    epc_pages = 2048;
    ref_input = Input.Ref 0;
    quick = false;
    jobs = 1;
    cell_timeout = None;
    retries = 0;
    keep_going = false;
    journal_dir = None;
    resume = false;
  }

let quick = { default with epc_pages = 1024; quick = true }

exception Cells_failed of Job_pool.failure list

let () =
  Printexc.register_printer (function
    | Cells_failed fs ->
      Some
        (Printf.sprintf "Experiments.Cells_failed: %d cell(s):\n%s"
           (List.length fs)
           (String.concat "\n" (List.map (fun f -> "  " ^ Job_pool.describe f) fs)))
    | _ -> None)

type improvement_row = {
  workload : string;
  scheme : string;
  normalized : float;
  improvement : float;
  fault_reduction : float option;  (* None: baseline had no faults *)
  stopped : bool;
}

(* ------------------------------------------------------------------ *)
(* Shared plumbing                                                     *)
(* ------------------------------------------------------------------ *)

let find_model name =
  match Spec.by_name name with
  | Some m -> Some m
  | None -> (
    match Vision.by_name name with
    | Some m -> Some m
    | None -> (
      match Workload.Parallel_apps.by_name name with
      | Some m -> Some m
      | None -> Workload.Synthetic.by_name name))

let model_of_name name =
  match find_model name with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Experiments: unknown workload %S" name)

(* Every family [find_model] resolves, with its display label — the one
   catalog the CLI's [list] and error messages draw from, so the listing
   can never understate what [run] accepts again. *)
let workload_families =
  List.map (fun (n, c, _) -> (n, Spec.category_name c)) Spec.all
  @ List.map (fun (n, _) -> (n, "vision (SD-VBS)")) Vision.all
  @ List.map
      (fun (n, _) -> (n, "multi-threaded (extension)"))
      Workload.Parallel_apps.all
  @ List.map (fun (n, _) -> (n, "synthetic boundary case")) Workload.Synthetic.all

let workload_names () = List.map fst workload_families

let runner_config settings =
  { Runner.default_config with epc_pages = settings.epc_pages }

(* The spec every experiment cell replays under unless its table varies
   it: the settings' EPC size, labelled with the settings' input. *)
let spec_of settings =
  Runner.Spec.make ~config:(runner_config settings)
    ~input_label:(Input.to_string settings.ref_input) ()

(* The one way an experiment cell replays: every run passes through the
   validator, so no reproduction figure is printed from a run whose own
   invariants do not hold. *)
let run_checked ~spec ~scheme trace =
  let r = Runner.run ~spec ~scheme trace in
  Validate.assert_valid r;
  r

let trace_of settings name ~input =
  (model_of_name name) ~epc_pages:settings.epc_pages ~input

let plan_for ?threshold settings name =
  let train = trace_of settings name ~input:Input.Train in
  let profile =
    Profiler.profile
      ~input:(Input.to_string Input.Train)
      (Profiler.default_config ~residency_pages:settings.epc_pages)
      train
  in
  Instrumenter.plan_of_profile ?threshold profile

let run_one settings ~scheme ?input name =
  let settings =
    { settings with ref_input = Option.value input ~default:settings.ref_input }
  in
  run_checked ~spec:(spec_of settings) ~scheme
    (trace_of settings name ~input:settings.ref_input)

let row_of ~baseline (r : Runner.result) =
  {
    workload = r.workload;
    scheme = r.scheme;
    normalized = Runner.normalized_time ~baseline r;
    improvement = Runner.improvement ~baseline r;
    fault_reduction = Report.fault_reduction ~baseline r;
    stopped = r.dfp_stopped;
  }

let hybrid_scheme plan = Scheme.Hybrid (Dfp.with_stop Dfp.default_config, plan)

(* Compile each distinct workload trace once in the parent before a
   table fans out: forked workers inherit the arena memo copy-on-write
   (and repeated in-process cells hit it directly), so no cell pays a
   redundant stream materialisation.  Compilation is silent, keeping the
   stdout byte-identity contract. *)
let prewarm settings ?input names =
  let input = Option.value input ~default:settings.ref_input in
  List.iter
    (fun name ->
      ignore (Workload.Trace_arena.compile (trace_of settings name ~input)))
    (List.sort_uniq compare names)

(* The one cell runner behind every matrix: each experiment table,
   [chaos], [fleet] and [service].  Plain [Job_pool.run] unless a
   timeout, retries, keep-going or a journal asks for the hardened pool
   (one forked process per cell, watchdog, retry, journal); either way
   the result is one [Ok]/[Error] per cell in submission order, and the
   caller decides what a lost cell costs.  Each call journals under its
   own [table] file, so labels need only be unique within the call. *)
let hardened settings =
  settings.cell_timeout <> None || settings.retries > 0 || settings.keep_going
  || settings.journal_dir <> None

(* Part of the journal key: a journal written for one matrix
   configuration must never satisfy another. *)
let settings_key settings =
  Printf.sprintf "epc=%d input=%s quick=%b" settings.epc_pages
    (Input.to_string settings.ref_input)
    settings.quick

let run_cells ?journal_key settings ~table jobs =
  if not (hardened settings) then
    List.map Result.ok (Job_pool.run ~jobs:settings.jobs jobs)
  else
    Job_pool.run_hardened ~jobs:settings.jobs ?timeout:settings.cell_timeout
      ~retries:settings.retries
      ?journal:
        (Option.map
           (fun dir -> Filename.concat dir (table ^ ".journal"))
           settings.journal_dir)
      ~resume:settings.resume
      ~journal_key:(Option.value journal_key ~default:(settings_key settings))
      jobs

let failures results =
  List.filter_map (function Error f -> Some f | Ok _ -> None) results

(* An experiment table keeps going at table granularity: a cell that
   exhausted its retries fails the whole table (its rows would be
   fabricated otherwise), and {!run_many} decides whether the rest of
   the matrix continues. *)
let run_table settings ~table jobs =
  let results = run_cells settings ~table jobs in
  match failures results with
  | [] -> List.map Result.get_ok results
  | fs -> raise (Cells_failed fs)

(* A table as a job list: every cell is a labelled pure closure
   producing a marshalable value; results merge in submission order, so
   tables are byte-identical at any [-j].  Cells must not print (the
   pool's contract, see {!Job_pool}). *)
let cells settings ~table ~label ~f xs =
  run_table settings ~table
    (List.map
       (fun x ->
         Job_pool.job
           ~label:(Printf.sprintf "%s/%s" table (label x))
           (fun () -> f x))
       xs)

(* The dominant table shape: a [(key, tag)] grid where cells sharing a
   key run the same trace under the same spec and differ only in
   scheme.  Results come back in grid order. *)
let scheme_grid settings ~table ?(spec = spec_of settings) ~key_label
    ~tag_label ~trace_of:trace_for ~scheme_of grid =
  let cell_label (k, tag) =
    let kl = key_label k in
    if kl = "" then tag_label tag
    else Printf.sprintf "%s/%s" kl (tag_label tag)
  in
  cells settings ~table ~label:cell_label
    ~f:(fun (k, tag) ->
      run_checked ~spec ~scheme:(scheme_of k tag) (trace_for k))
    grid

let improvement_table ?(paper = []) rows =
  let t =
    Table.create
      ~headers:
        [
          ("workload", Table.Left); ("scheme", Table.Left);
          ("normalized", Table.Right); ("improvement", Table.Right);
          ("fault-reduction", Table.Right); ("stopped", Table.Left);
          ("paper", Table.Right);
        ]
  in
  List.iter
    (fun r ->
      let paper_cell =
        match List.assoc_opt (r.workload, r.scheme) paper with
        | Some v -> v
        | None -> "n/r"
      in
      Table.add_row t
        [
          r.workload; r.scheme;
          Table.cell_float ~decimals:3 r.normalized;
          Table.cell_pct r.improvement;
          (match r.fault_reduction with
          | None -> "n/a"
          | Some fr -> Table.cell_pct fr);
          (if r.stopped then "yes" else "-");
          paper_cell;
        ])
    rows;
  t

(* ------------------------------------------------------------------ *)
(* E-intro — §1: enclave vs native slowdown                            *)
(* ------------------------------------------------------------------ *)

(* The §1 motivation program is a bare scan ("a simple program with
   sequential accesses of 1GB data"), unlike the Fig. 7/8 microbenchmark
   whose loop body does real work: nearly all of its time is paging. *)
let intro_trace settings =
  let pages = 8 * settings.epc_pages in
  Trace.make ~name:"intro-scan" ~elrange_pages:pages ~footprint_pages:pages
    ~seed:3
    ~sites:[ (0, "scan") ]
    (Pattern.sequential ~site:0 ~base:0 ~pages ~events_per_page:8 ~compute:50
       ~jitter:0.0)

let intro_runs settings =
  match
    scheme_grid settings ~table:"intro"
      ~key_label:(fun () -> "")
      ~tag_label:Fun.id
      ~trace_of:(fun () -> intro_trace settings)
      ~scheme_of:(fun () tag ->
        if tag = "enclave" then Scheme.Baseline else Scheme.Native)
      [ ((), "enclave"); ((), "native") ]
  with
  | [ base; native ] -> (base, native)
  | _ -> assert false

let slowdown ((base : Runner.result), (native : Runner.result)) =
  float_of_int base.cycles /. float_of_int native.cycles

let intro_slowdown settings = slowdown (intro_runs settings)

let print_intro settings =
  Printf.printf "## E-intro — §1 motivation: sequential 8x-EPC scan, enclave vs native\n\n";
  let base, native = intro_runs settings in
  Printf.printf "enclave:  %s cycles (%d faults)\n" (Table.cell_int base.cycles)
    (Metrics.total_faults base.metrics);
  Printf.printf "native:   %s cycles (%d faults)\n"
    (Table.cell_int native.cycles)
    (Metrics.total_faults native.metrics);
  Printf.printf "slowdown: %.1fx   (paper observed ~46x on real SGX)\n\n"
    (slowdown (base, native));
  print_string
    "The model charges only paging costs; the paper's 46x additionally\n\
     includes TLB shootdowns and cache disturbance outside this model.\n\n"

(* ------------------------------------------------------------------ *)
(* E-fig2 — Fig. 2: baseline vs DFP page-load timeline                 *)
(* ------------------------------------------------------------------ *)

let didactic_trace () =
  (* Four sequential pages, one access each, enough compute between them
     for preloads to land: the Fig. 2 scenario. *)
  Trace.make ~name:"fig2-didactic" ~elrange_pages:16 ~footprint_pages:4 ~seed:1
    ~sites:[ (0, "loop") ]
    (Pattern.sequential ~site:0 ~base:0 ~pages:4 ~events_per_page:1
       ~compute:60_000 ~jitter:0.0)

let fig2_timelines settings =
  let spec = spec_of settings in
  let spec =
    { spec with config = { spec.config with Runner.log_capacity = 128 } }
  in
  match
    scheme_grid settings ~table:"fig2" ~spec
      ~key_label:(fun () -> "")
      ~tag_label:Fun.id
      ~trace_of:(fun () -> didactic_trace ())
      ~scheme_of:(fun () tag ->
        if tag = "baseline" then Scheme.Baseline else Scheme.dfp_default)
      [ ((), "baseline"); ((), "dfp") ]
  with
  | [ base; dfp ] -> (base.Runner.events, dfp.Runner.events)
  | _ -> assert false

let print_fig2 settings =
  Printf.printf "## E-fig2 — Fig. 2: time sequence of loading pages 1-4\n\n";
  let base_events, dfp_events = fig2_timelines settings in
  let dump title events =
    Printf.printf "%s:\n" title;
    List.iter (fun e -> Format.printf "  %a@." Sgxsim.Event.pp e) events;
    print_newline ()
  in
  dump "Baseline (every page faults: AEX + load + ERESUME each)" base_events;
  dump "DFP (fault on page 1 starts a stream; pages 2+ are preloaded)" dfp_events

(* ------------------------------------------------------------------ *)
(* E-fig3 — Fig. 3: representative page access patterns                *)
(* ------------------------------------------------------------------ *)

let fig3_series settings =
  let sample name =
    let trace = trace_of settings name ~input:settings.ref_input in
    let arena = Workload.Trace_arena.compile trace in
    let window = if settings.quick then 20_000 else 60_000 in
    let stride = max 1 (window / 300) in
    let n = min window (Workload.Trace_arena.length arena) in
    let points = ref [] in
    let i = ref 0 in
    while !i < n do
      points := (!i, Workload.Trace_arena.vpage arena !i) :: !points;
      i := !i + stride
    done;
    (name, List.rev !points)
  in
  List.map sample [ "bwaves"; "deepsjeng"; "lbm" ]

let print_fig3 settings =
  Printf.printf "## E-fig3 — Fig. 3: memory access patterns (page vs access index)\n\n";
  List.iter
    (fun (name, points) ->
      let max_x = List.fold_left (fun m (x, _) -> max m x) 1 points in
      let max_y = List.fold_left (fun m (_, y) -> max m y) 1 points in
      Printf.printf "%s (pages 0..%d over %d accesses):\n" name max_y max_x;
      print_string (Report.ascii_scatter ~width:64 ~height:16 points ~max_x ~max_y);
      print_newline ())
    (fig3_series settings)

(* ------------------------------------------------------------------ *)
(* E-fig4 — Fig. 4: baseline fault vs SIP notification cost            *)
(* ------------------------------------------------------------------ *)

let single_fault_trace () =
  Trace.make ~name:"fig4-didactic" ~elrange_pages:4 ~footprint_pages:1 ~seed:1
    ~sites:[ (0, "miss") ]
    (Pattern.sequential ~site:0 ~base:0 ~pages:1 ~events_per_page:1 ~compute:0
       ~jitter:0.0)

let instrument_site0_plan =
  {
    Instrumenter.workload = "fig4-didactic";
    threshold = Instrumenter.default_threshold;
    decisions =
      [
        {
          Instrumenter.site = 0;
          counts = { Profiler.c1 = 0; c2 = 0; c3 = 1 };
          ratio = 1.0;
          instrument = true;
        };
      ];
  }

let fig4_costs settings =
  let spec = spec_of settings in
  let trace = single_fault_trace () in
  let base = run_checked ~spec ~scheme:Scheme.Baseline trace in
  let sip = run_checked ~spec ~scheme:(Scheme.Sip instrument_site0_plan) trace in
  (base.cycles, sip.cycles)

let print_fig4 settings =
  Printf.printf "## E-fig4 — Fig. 4: cost of servicing one cold page\n\n";
  let base, sip = fig4_costs settings in
  let costs = Sgxsim.Cost_model.paper in
  Printf.printf "baseline fault path: %s cycles (AEX %d + load %d + ERESUME %d)\n"
    (Table.cell_int base) costs.t_aex costs.t_load costs.t_eresume;
  Printf.printf "SIP notify path:     %s cycles (check %d + notify %d + load %d)\n"
    (Table.cell_int sip) costs.t_bitmap_check costs.t_notify costs.t_load;
  Printf.printf "benefit per avoided fault: %s cycles (paper: ~t_AEX + t_ERESUME - t_notify)\n\n"
    (Table.cell_int (base - sip))

(* ------------------------------------------------------------------ *)
(* E-tab1 — Table 1: benchmark classification                          *)
(* ------------------------------------------------------------------ *)

let table1_names = List.map (fun (name, _, _) -> name) Spec.all

let table1_rows settings =
  prewarm settings table1_names;
  prewarm settings ~input:Input.Train table1_names;
  cells settings ~table:"table1"
    ~label:(fun (name, _, _) -> name)
    ~f:(fun (name, category, _) ->
      let trace = trace_of settings name ~input:settings.ref_input in
      let profile =
        Profiler.profile
          ~input:(Input.to_string Input.Train)
          (Profiler.default_config ~residency_pages:settings.epc_pages)
          (trace_of settings name ~input:Input.Train)
      in
      let totals = Profiler.totals profile in
      let irregular = Profiler.irregular_ratio totals in
      ( name,
        Spec.category_name category,
        trace.Trace.footprint_pages,
        float_of_int trace.Trace.footprint_pages /. float_of_int settings.epc_pages,
        irregular ))
    Spec.all

let table1_miss_ratios settings =
  prewarm settings table1_names;
  cells settings ~table:"table1-miss"
    ~label:(fun (name, _, _) -> name)
    ~f:(fun (name, _, _) ->
      let trace = trace_of settings name ~input:settings.ref_input in
      ( name,
        Workload.Trace_stats.miss_ratio trace ~epc_pages:settings.epc_pages ))
    Spec.all

let print_table1 settings =
  Printf.printf "## E-tab1 — Table 1: classification of benchmarks\n\n";
  let misses = table1_miss_ratios settings in
  let t =
    Table.create
      ~headers:
        [
          ("benchmark", Table.Left); ("paper category", Table.Left);
          ("footprint (pages)", Table.Right); ("x EPC", Table.Right);
          ("irregular share", Table.Right); ("LRU miss ratio", Table.Right);
        ]
  in
  List.iter
    (fun (name, category, pages, ratio, irregular) ->
      Table.add_row t
        [
          name; category; Table.cell_int pages;
          Table.cell_float ~decimals:2 ratio; Table.cell_pct irregular;
          Table.cell_pct (List.assoc name misses);
        ])
    (table1_rows settings);
  Table.print t;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E-fig6 — Fig. 6: stream-list length sweep (lbm, bwaves)             *)
(* ------------------------------------------------------------------ *)

let fig6_sweep settings =
  let lengths =
    if settings.quick then [ 2; 5; 30 ] else [ 1; 2; 3; 5; 10; 20; 30; 45; 60 ]
  in
  let benchmarks = [ "lbm"; "bwaves" ] in
  prewarm settings benchmarks;
  let grid =
    List.map (fun b -> (b, None)) benchmarks
    @ List.concat_map
        (fun len -> List.map (fun b -> (b, Some len)) benchmarks)
        lengths
  in
  let runs =
    scheme_grid settings ~table:"fig6"
      ~key_label:Fun.id
      ~tag_label:(fun len ->
        match len with
        | None -> "baseline"
        | Some l -> Printf.sprintf "len=%d" l)
      ~trace_of:(fun b -> trace_of settings b ~input:settings.ref_input)
      ~scheme_of:(fun _ len ->
        match len with
        | None -> Scheme.Baseline
        | Some len ->
          Scheme.Dfp { Dfp.default_config with stream_list_length = len })
      grid
  in
  let table = List.map2 (fun k r -> (k, r)) grid runs in
  List.map
    (fun len ->
      ( len,
        List.map
          (fun b ->
            let baseline = List.assoc (b, None) table in
            ( b,
              Runner.normalized_time ~baseline
                (List.assoc (b, Some len) table) ))
          benchmarks ))
    lengths

let print_fig6 settings =
  Printf.printf
    "## E-fig6 — Fig. 6: DFP vs stream-list length (normalized time)\n\n";
  let sweep = fig6_sweep settings in
  let t =
    Table.create
      ~headers:
        [
          ("length", Table.Right); ("lbm", Table.Right); ("bwaves", Table.Right);
          ("combined", Table.Right);
        ]
  in
  List.iter
    (fun (len, per_bench) ->
      let lbm = List.assoc "lbm" per_bench in
      let bwaves = List.assoc "bwaves" per_bench in
      Table.add_row t
        [
          string_of_int len;
          Table.cell_float ~decimals:3 lbm;
          Table.cell_float ~decimals:3 bwaves;
          Table.cell_float ~decimals:3 ((lbm +. bwaves) /. 2.0);
        ])
    sweep;
  Table.print t;
  print_string
    "\nPaper: combined execution time shortest around length 30 (their\n\
     default); the reproduction plateaus once every concurrent stream\n\
     fits, and 30 sits on that plateau.\n\n"

(* ------------------------------------------------------------------ *)
(* E-fig7 — Fig. 7: LOADLENGTH sweep                                   *)
(* ------------------------------------------------------------------ *)

let fig7_sweep settings =
  let lengths = if settings.quick then [ 1; 4; 16 ] else [ 1; 2; 4; 8; 16 ] in
  let benchmarks =
    if settings.quick then [ "lbm"; "deepsjeng" ]
    else
      [
        "microbenchmark"; "bwaves"; "lbm"; "wrf"; "roms"; "mcf"; "deepsjeng";
        "omnetpp"; "xz";
      ]
  in
  prewarm settings benchmarks;
  let grid =
    List.concat_map
      (fun b -> (b, None) :: List.map (fun len -> (b, Some len)) lengths)
      benchmarks
  in
  let runs =
    scheme_grid settings ~table:"fig7"
      ~key_label:Fun.id
      ~tag_label:(fun len ->
        match len with
        | None -> "baseline"
        | Some l -> Printf.sprintf "L=%d" l)
      ~trace_of:(fun b -> trace_of settings b ~input:settings.ref_input)
      ~scheme_of:(fun _ len ->
        match len with
        | None -> Scheme.Baseline
        | Some load_length -> Scheme.Dfp { Dfp.default_config with load_length })
      grid
  in
  let table = List.map2 (fun k r -> (k, r)) grid runs in
  List.map
    (fun b ->
      let baseline = List.assoc (b, None) table in
      ( b,
        List.map
          (fun len ->
            ( len,
              Runner.normalized_time ~baseline
                (List.assoc (b, Some len) table) ))
          lengths ))
    benchmarks

let print_fig7 settings =
  Printf.printf
    "## E-fig7 — Fig. 7: normalized time vs pages preloaded per prediction\n\n";
  let sweep = fig7_sweep settings in
  let lengths = match sweep with (_, cells) :: _ -> List.map fst cells | [] -> [] in
  let t =
    Table.create
      ~headers:
        (("benchmark", Table.Left)
        :: List.map (fun l -> (Printf.sprintf "L=%d" l, Table.Right)) lengths)
  in
  List.iter
    (fun (b, cells) ->
      Table.add_row t
        (b :: List.map (fun (_, v) -> Table.cell_float ~decimals:3 v) cells))
    sweep;
  Table.print t;
  print_string
    "\nPaper: beyond 4 pages per preload, mcf and deepsjeng lose\n\
     substantially; 4 is the default.  Regular benchmarks flatten out.\n\n"

(* ------------------------------------------------------------------ *)
(* E-fig8 — Fig. 8: DFP and DFP-stop improvement                       *)
(* ------------------------------------------------------------------ *)

let fig8_rows settings =
  let benchmarks =
    if settings.quick then [ "lbm"; "roms" ]
    else
      [
        "microbenchmark"; "bwaves"; "lbm"; "wrf"; "roms"; "mcf"; "mcf.2006";
        "deepsjeng"; "omnetpp"; "xz";
      ]
  in
  prewarm settings benchmarks;
  let grid =
    List.concat_map
      (fun b -> [ (b, "baseline"); (b, "dfp"); (b, "dfp-stop") ])
      benchmarks
  in
  let runs =
    scheme_grid settings ~table:"fig8"
      ~key_label:Fun.id
      ~tag_label:Fun.id
      ~trace_of:(fun b -> trace_of settings b ~input:settings.ref_input)
      ~scheme_of:(fun _ tag ->
        match tag with
        | "baseline" -> Scheme.Baseline
        | "dfp" -> Scheme.dfp_default
        | _ -> Scheme.dfp_stop)
      grid
  in
  let table = List.map2 (fun k r -> (k, r)) grid runs in
  List.concat_map
    (fun b ->
      let baseline = List.assoc (b, "baseline") table in
      List.map
        (fun tag -> row_of ~baseline (List.assoc (b, tag) table))
        [ "dfp"; "dfp-stop" ])
    benchmarks

let fig8_paper =
  [
    (("microbenchmark", "DFP"), "+18.6%");
    (("lbm", "DFP"), "+13.3%");
    (("roms", "DFP"), "-42%");
    (("roms", "DFP-stop"), "-0.1%");
    (("deepsjeng", "DFP"), "-34%");
    (("deepsjeng", "DFP-stop"), "~0%");
  ]

let print_fig8 settings =
  Printf.printf "## E-fig8 — Fig. 8: DFP / DFP-stop performance\n\n";
  let rows = fig8_rows settings in
  Table.print (improvement_table ~paper:fig8_paper rows);
  let regular = [ "microbenchmark"; "bwaves"; "lbm"; "wrf" ] in
  let dfp_regular =
    List.filter (fun r -> r.scheme = "DFP" && List.mem r.workload regular) rows
  in
  if dfp_regular <> [] then begin
    let avg =
      List.fold_left (fun acc r -> acc +. r.improvement) 0.0 dfp_regular
      /. float_of_int (List.length dfp_regular)
    in
    Printf.printf
      "\naverage DFP improvement on regular benchmarks: %s (paper: 11.4%%)\n"
      (Table.cell_pct avg)
  end;
  let overheads scheme =
    List.filter
      (fun r ->
        r.scheme = scheme
        && List.mem r.workload [ "roms"; "mcf"; "deepsjeng"; "omnetpp" ])
      rows
  in
  let avg_overhead scheme =
    let rs = overheads scheme in
    if rs = [] then 0.0
    else
      List.fold_left (fun acc r -> acc -. r.improvement) 0.0 rs
      /. float_of_int (List.length rs)
  in
  Printf.printf
    "average overhead on mispredicting benchmarks: DFP %s -> DFP-stop %s (paper: 38.5%% -> 2.8%%)\n\n"
    (Table.cell_pct (avg_overhead "DFP"))
    (Table.cell_pct (avg_overhead "DFP-stop"))

(* ------------------------------------------------------------------ *)
(* E-fig9 — Fig. 9: SIP threshold sweep on deepsjeng                   *)
(* ------------------------------------------------------------------ *)

let fig9_sweep settings =
  let thresholds =
    if settings.quick then [ 0.01; 0.05; 0.8 ]
    else [ 0.005; 0.01; 0.02; 0.05; 0.10; 0.20; 0.50; 0.80 ]
  in
  (* As in the paper's Fig. 9, both the profile and the measurement use
     the train input. *)
  let baseline = run_one settings ~scheme:Scheme.Baseline ~input:Input.Train "deepsjeng" in
  let runs =
    scheme_grid settings ~table:"fig9"
      ~spec:(spec_of { settings with ref_input = Input.Train })
      ~key_label:(fun () -> "")
      ~tag_label:(fun threshold -> Printf.sprintf "t=%g" threshold)
      ~trace_of:(fun () -> trace_of settings "deepsjeng" ~input:Input.Train)
      ~scheme_of:(fun () threshold ->
        Scheme.Sip (plan_for ~threshold settings "deepsjeng"))
      (List.map (fun threshold -> ((), threshold)) thresholds)
  in
  List.combine thresholds
    (List.map (Runner.normalized_time ~baseline) runs)

let print_fig9 settings =
  Printf.printf
    "## E-fig9 — Fig. 9: deepsjeng (train input) vs SIP irregular-ratio threshold\n\n";
  let t =
    Table.create
      ~headers:[ ("threshold", Table.Right); ("normalized time", Table.Right) ]
  in
  List.iter
    (fun (threshold, normalized) ->
      Table.add_row t
        [ Table.cell_pct ~decimals:1 threshold; Table.cell_float ~decimals:3 normalized ])
    (fig9_sweep settings);
  Table.print t;
  print_string
    "\nPaper: best around 5%; too high a threshold forfeits the probe\n\
     sites' faults.  (The left-side penalty of over-instrumentation is\n\
     shallower here because the model's hot sites have lower access\n\
     volume than real deepsjeng's evaluation loop.)\n\n"

(* ------------------------------------------------------------------ *)
(* E-fig10 — Fig. 10: SIP improvement                                  *)
(* ------------------------------------------------------------------ *)

let sip_benchmarks settings =
  if settings.quick then [ "lbm"; "deepsjeng" ]
  else [ "microbenchmark"; "lbm"; "mcf"; "mcf.2006"; "deepsjeng"; "xz" ]

let fig10_rows settings =
  let benchmarks = sip_benchmarks settings in
  prewarm settings benchmarks;
  prewarm settings ~input:Input.Train benchmarks;
  let grid =
    List.concat_map (fun b -> [ (b, "baseline"); (b, "sip") ]) benchmarks
  in
  let runs =
    scheme_grid settings ~table:"fig10"
      ~key_label:Fun.id
      ~tag_label:Fun.id
      ~trace_of:(fun b -> trace_of settings b ~input:settings.ref_input)
      ~scheme_of:(fun b tag ->
        if tag = "baseline" then Scheme.Baseline
        else Scheme.Sip (plan_for settings b))
      grid
  in
  let table = List.map2 (fun k r -> (k, r)) grid runs in
  List.map
    (fun b ->
      let baseline = List.assoc (b, "baseline") table in
      let r = List.assoc (b, "sip") table in
      (* The instrumented run records its own plan size, so the parent
         never re-derives the plan just to count its sites. *)
      (row_of ~baseline r, r.Runner.instrumentation_points))
    benchmarks

let fig10_paper =
  [
    (("deepsjeng", "SIP"), "+9.0%");
    (("mcf.2006", "SIP"), "+4.9%");
    (("mcf", "SIP"), "~0% (wash)");
    (("lbm", "SIP"), "0%");
    (("microbenchmark", "SIP"), "0%");
  ]

let print_fig10 settings =
  Printf.printf "## E-fig10 — Fig. 10: SIP performance (train profile, ref run)\n\n";
  let rows = fig10_rows settings in
  Table.print (improvement_table ~paper:fig10_paper (List.map fst rows));
  print_string
    "\n(bwaves, roms, wrf are Fortran and omnetpp defeats the paper's\n\
     instrumentation tool; they are excluded exactly as in §5.2.)\n\n"

(* ------------------------------------------------------------------ *)
(* E-fig11 — Fig. 11: SIFT and MSER                                    *)
(* ------------------------------------------------------------------ *)

let fig11_rows settings =
  let names = [ "SIFT"; "MSER" ] in
  let prep =
    List.combine names
      (cells settings ~table:"fig11-prep" ~label:Fun.id
         ~f:(fun name ->
           ( run_one settings ~scheme:Scheme.Baseline name,
             plan_for settings name ))
         names)
  in
  let grid =
    List.concat_map (fun name -> [ (name, "dfp"); (name, "sip") ]) names
  in
  let runs =
    scheme_grid settings ~table:"fig11"
      ~key_label:Fun.id
      ~tag_label:Fun.id
      ~trace_of:(fun name -> trace_of settings name ~input:settings.ref_input)
      ~scheme_of:(fun name tag ->
        if tag = "dfp" then Scheme.dfp_default
        else Scheme.Sip (snd (List.assoc name prep)))
      grid
  in
  List.map2
    (fun (name, _) r -> row_of ~baseline:(fst (List.assoc name prep)) r)
    grid runs

let fig11_paper =
  [ (("SIFT", "DFP"), "+9.5%"); (("MSER", "SIP"), "+3.0%") ]

let print_fig11 settings =
  Printf.printf "## E-fig11 — Fig. 11: real-world applications (SD-VBS)\n\n";
  Table.print (improvement_table ~paper:fig11_paper (fig11_rows settings));
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E-fig12 — Fig. 12: SIP vs DFP vs hybrid                             *)
(* ------------------------------------------------------------------ *)

let fig12_rows settings =
  let benchmarks = sip_benchmarks settings in
  prewarm settings benchmarks;
  prewarm settings ~input:Input.Train benchmarks;
  let prep =
    List.combine benchmarks
      (cells settings ~table:"fig12-prep" ~label:Fun.id
         ~f:(fun b ->
           (run_one settings ~scheme:Scheme.Baseline b, plan_for settings b))
         benchmarks)
  in
  let grid =
    List.concat_map
      (fun b -> [ (b, "sip"); (b, "dfp"); (b, "hybrid") ])
      benchmarks
  in
  let runs =
    scheme_grid settings ~table:"fig12"
      ~key_label:Fun.id
      ~tag_label:Fun.id
      ~trace_of:(fun b -> trace_of settings b ~input:settings.ref_input)
      ~scheme_of:(fun b tag ->
        let plan = snd (List.assoc b prep) in
        match tag with
        | "sip" -> Scheme.Sip plan
        | "dfp" -> Scheme.dfp_default
        | _ -> hybrid_scheme plan)
      grid
  in
  List.map2
    (fun (b, _) r -> row_of ~baseline:(fst (List.assoc b prep)) r)
    grid runs

let print_fig12 settings =
  Printf.printf "## E-fig12 — Fig. 12: SIP, DFP and the combined scheme\n\n";
  Table.print (improvement_table (fig12_rows settings));
  print_string
    "\nPaper: the hybrid tracks the better of the two schemes on\n\
     single-behaviour benchmarks; mcf's worst-case overhead ~4.2%.\n\n"

(* ------------------------------------------------------------------ *)
(* E-fig13 — Fig. 13: mixed-blood                                      *)
(* ------------------------------------------------------------------ *)

let fig13_rows settings =
  let plan = plan_for settings "mixed-blood" in
  let runs =
    scheme_grid settings ~table:"fig13"
      ~key_label:(fun () -> "")
      ~tag_label:(fun tag -> "mixed-blood/" ^ tag)
      ~trace_of:(fun () ->
        trace_of settings "mixed-blood" ~input:settings.ref_input)
      ~scheme_of:(fun () tag ->
        match tag with
        | "baseline" -> Scheme.Baseline
        | "sip" -> Scheme.Sip plan
        | "dfp" -> Scheme.dfp_default
        | _ -> hybrid_scheme plan)
      (List.map
         (fun tag -> ((), tag))
         [ "baseline"; "sip"; "dfp"; "hybrid" ])
  in
  match runs with
  | baseline :: rest -> List.map (row_of ~baseline) rest
  | [] -> assert false

let fig13_paper =
  [
    (("mixed-blood", "SIP"), "+1.6%");
    (("mixed-blood", "DFP"), "+6.0%");
    (("mixed-blood", "SIP+DFP-stop"), "+7.1%");
  ]

let print_fig13 settings =
  Printf.printf "## E-fig13 — Fig. 13: the synthesized mixed-blood program\n\n";
  Table.print (improvement_table ~paper:fig13_paper (fig13_rows settings));
  print_string
    "\nPaper: SIP 1.6%, DFP 6.0%, hybrid 7.1% — the two schemes improve\n\
     different phases, so their combination beats both.\n\n"

(* ------------------------------------------------------------------ *)
(* E-tab2 — Table 2: instrumentation points                            *)
(* ------------------------------------------------------------------ *)

let table2_paper =
  [
    ("mcf.2006", 114); ("mcf", 99); ("xz", 46); ("deepsjeng", 35); ("lbm", 0);
    ("MSER", 54); ("SIFT", 0); ("microbenchmark", 0);
  ]

let table2_rows settings =
  cells settings ~table:"table2" ~label:fst
    ~f:(fun (name, paper) ->
      let plan = plan_for settings name in
      (name, Instrumenter.instrumentation_points plan, paper))
    table2_paper

let print_table2 settings =
  Printf.printf "## E-tab2 — Table 2: SIP instrumentation points\n\n";
  let t =
    Table.create
      ~headers:
        [ ("benchmark", Table.Left); ("measured", Table.Right); ("paper", Table.Right) ]
  in
  List.iter
    (fun (name, measured, paper) ->
      Table.add_row t [ name; string_of_int measured; string_of_int paper ])
    (table2_rows settings);
  Table.print t;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper                                          *)
(* ------------------------------------------------------------------ *)

let ablation_predictor_rows settings =
  let benchmarks =
    if settings.quick then [ "lbm" ] else [ "lbm"; "bwaves"; "roms"; "deepsjeng" ]
  in
  prewarm settings benchmarks;
  let schemes =
    [
      ("dfp", Scheme.dfp_default); ("next-line", Scheme.next_line ~degree:4);
      ("stride", Scheme.stride ~degree:4);
      ("markov", Scheme.markov ~table_pages:(8 * settings.epc_pages) ~degree:4);
    ]
  in
  let grid =
    List.concat_map
      (fun b -> (b, "baseline") :: List.map (fun (tag, _) -> (b, tag)) schemes)
      benchmarks
  in
  let runs =
    scheme_grid settings ~table:"abl-predictor"
      ~key_label:Fun.id
      ~tag_label:Fun.id
      ~trace_of:(fun b -> trace_of settings b ~input:settings.ref_input)
      ~scheme_of:(fun _ tag ->
        match List.assoc_opt tag schemes with
        | Some s -> s
        | None -> Scheme.Baseline)
      grid
  in
  let table = List.map2 (fun k r -> (k, r)) grid runs in
  List.concat_map
    (fun b ->
      let baseline = List.assoc (b, "baseline") table in
      List.map
        (fun (tag, _) -> row_of ~baseline (List.assoc (b, tag) table))
        schemes)
    benchmarks

let print_ablation_predictor settings =
  Printf.printf
    "## E-abl-predictor — multiple-stream vs next-line vs stride preloading\n\n";
  Table.print (improvement_table (ablation_predictor_rows settings));
  print_string
    "\nNext-line preloads on every fault (no stream confirmation), so it\n\
     pays more misprediction cost on irregular faults; stride-only misses\n\
     interleaved streams.\n\n"

let descending_trace settings =
  let pages = 3 * settings.epc_pages in
  Trace.make ~name:"descending-scan" ~elrange_pages:pages ~footprint_pages:pages
    ~seed:7
    ~sites:[ (0, "reverse_scan") ]
    (Pattern.repeat 2
       (Pattern.sequential_desc ~site:0 ~base:0 ~pages ~events_per_page:8
          ~compute:25_000 ~jitter:0.1))

let ablation_backward_rows settings =
  let variants =
    [ ("DFP (backward on)", Some true); ("DFP (backward off)", Some false) ]
  in
  let runs =
    scheme_grid settings ~table:"abl-backward"
      ~key_label:(fun () -> "")
      ~tag_label:fst
      ~trace_of:(fun () -> descending_trace settings)
      ~scheme_of:(fun () (_, detect_backward) ->
        match detect_backward with
        | None -> Scheme.Baseline
        | Some detect_backward ->
          Scheme.Dfp { Dfp.default_config with detect_backward })
      (List.map (fun v -> ((), v)) (("baseline", None) :: variants))
  in
  match runs with
  | baseline :: rest ->
    List.map2
      (fun (label, _) r -> { (row_of ~baseline r) with scheme = label })
      variants rest
  | [] -> assert false

let print_ablation_backward settings =
  Printf.printf "## E-abl-backward — descending streams need direction detection\n\n";
  Table.print (improvement_table (ablation_backward_rows settings));
  print_newline ()

let ablation_epc_rows settings =
  let sizes =
    if settings.quick then [ 1024; 2048 ] else [ 512; 1024; 2048; 4096 ]
  in
  let grid =
    List.concat_map (fun epc -> [ (epc, "baseline"); (epc, "dfp") ]) sizes
  in
  let runs =
    cells settings ~table:"abl-epc"
      ~label:(fun (epc, tag) -> Printf.sprintf "epc=%d/%s" epc tag)
      ~f:(fun (epc, tag) ->
        let s = { settings with epc_pages = epc } in
        let scheme =
          if tag = "baseline" then Scheme.Baseline else Scheme.dfp_default
        in
        run_one s ~scheme "microbenchmark")
      grid
  in
  let table = List.map2 (fun k r -> (k, r)) grid runs in
  List.map
    (fun epc ->
      let baseline = List.assoc (epc, "baseline") table in
      let dfp = List.assoc (epc, "dfp") table in
      (epc, Runner.improvement ~baseline dfp))
    sizes

let print_ablation_epc settings =
  Printf.printf "## E-abl-epc — DFP improvement vs EPC size (microbenchmark)\n\n";
  let t =
    Table.create
      ~headers:[ ("EPC pages", Table.Right); ("DFP improvement", Table.Right) ]
  in
  List.iter
    (fun (epc, improvement) ->
      Table.add_row t [ Table.cell_int epc; Table.cell_pct improvement ])
    (ablation_epc_rows settings);
  Table.print t;
  print_string
    "\n(The workload footprint scales with the EPC, so the fault pressure\n\
     and hence the headroom for DFP stay comparable across sizes.)\n\n"

let ablation_scan_rows settings =
  let periods =
    if settings.quick then [ 2_000_000 ]
    else [ 250_000; 1_000_000; 2_000_000; 8_000_000; 32_000_000 ]
  in
  let grid =
    List.concat_map
      (fun period -> [ (period, "baseline"); (period, "dfp-stop") ])
      periods
  in
  let runs =
    cells settings ~table:"abl-scan"
      ~label:(fun (period, tag) -> Printf.sprintf "period=%d/%s" period tag)
      ~f:(fun (period, tag) ->
        let costs = { Sgxsim.Cost_model.paper with clock_scan_period = period } in
        let spec = spec_of settings in
        let spec = { spec with config = { spec.config with Runner.costs } } in
        let trace = trace_of settings "roms" ~input:settings.ref_input in
        let scheme =
          if tag = "baseline" then Scheme.Baseline else Scheme.dfp_stop
        in
        run_checked ~spec ~scheme trace)
      grid
  in
  let table = List.map2 (fun k r -> (k, r)) grid runs in
  List.map
    (fun period ->
      let baseline = List.assoc (period, "baseline") table in
      let r = List.assoc (period, "dfp-stop") table in
      (period, Runner.normalized_time ~baseline r, r.Runner.dfp_stopped))
    periods

let print_ablation_scan settings =
  Printf.printf
    "## E-abl-scan — DFP-stop reaction vs service-thread scan period (roms)\n\n";
  let t =
    Table.create
      ~headers:
        [
          ("scan period (cycles)", Table.Right); ("normalized time", Table.Right);
          ("stop fired", Table.Left);
        ]
  in
  List.iter
    (fun (period, normalized, stopped) ->
      Table.add_row t
        [
          Table.cell_int period; Table.cell_float ~decimals:3 normalized;
          (if stopped then "yes" else "no");
        ])
    (ablation_scan_rows settings);
  Table.print t;
  print_string
    "\nThe stop valve's counters are only refreshed by the scan, so a very\n\
     slow scan delays the rescue and leaks misprediction overhead.\n\n"

let ablation_threads_rows settings =
  let threads = if settings.quick then 4 else 8 in
  let trace =
    Workload.Parallel_apps.mt_scan ~threads ~epc_pages:settings.epc_pages
      ~input:settings.ref_input
  in
  let variants =
    [ ("DFP (per-thread lists)", Some true); ("DFP (one shared list)", Some false) ]
  in
  let runs =
    scheme_grid settings ~table:"abl-threads"
      ~key_label:(fun () -> "")
      ~tag_label:fst
      ~trace_of:(fun () -> trace)
      ~scheme_of:(fun () (_, per_thread) ->
        match per_thread with
        | None -> Scheme.Baseline
        | Some per_thread -> Scheme.Dfp { Dfp.default_config with per_thread })
      (List.map (fun v -> ((), v)) (("baseline", None) :: variants))
  in
  match runs with
  | baseline :: rest ->
    List.map2
      (fun (label, _) r -> { (row_of ~baseline r) with scheme = label })
      variants rest
  | [] -> assert false

let print_ablation_threads settings =
  Printf.printf
    "## E-abl-threads — Algorithm 1's per-thread stream lists on a \
     multi-threaded enclave\n\n";
  Table.print (improvement_table (ablation_threads_rows settings));
  print_string
    "\nEvery thread scans its own region while also probing a shared cold\n\
     pool; the combined fault stream churns one shared list out of\n\
     existence, while per-thread lists (the paper's find_stream_list(ID))\n\
     keep each scan's stream alive.\n\n"

let ablation_share_rows settings =
  (* §5.6: sharing the EPC shrinks each enclave's portion but the schemes
     keep working per enclave.  Fix the footprint (built against the full
     EPC) and shrink the partition. *)
  let trace = trace_of settings "xz" ~input:settings.ref_input in
  let full = settings.epc_pages in
  let partitions =
    if settings.quick then [ full; full / 2 ] else [ full; full / 2; full / 4 ]
  in
  let grid =
    List.concat_map (fun epc -> [ (epc, "baseline"); (epc, "dfp") ]) partitions
  in
  let runs =
    cells settings ~table:"abl-share"
      ~label:(fun (epc, tag) -> Printf.sprintf "epc=%d/%s" epc tag)
      ~f:(fun (epc, tag) ->
        let scheme =
          if tag = "baseline" then Scheme.Baseline else Scheme.dfp_default
        in
        run_checked ~spec:(spec_of { settings with epc_pages = epc }) ~scheme
          trace)
      grid
  in
  let table = List.map2 (fun k r -> (k, r)) grid runs in
  (* [full] heads [partitions], so its baseline cell doubles as the
     full-EPC reference run. *)
  let full_baseline = List.assoc (full, "baseline") table in
  List.map
    (fun epc ->
      let baseline = List.assoc (epc, "baseline") table in
      let dfp = List.assoc (epc, "dfp") table in
      ( epc,
        float_of_int baseline.Runner.cycles
        /. float_of_int full_baseline.Runner.cycles,
        Runner.improvement ~baseline dfp ))
    partitions

let print_ablation_share settings =
  Printf.printf "## E-abl-share — §5.6: EPC sharing (fixed footprint, shrinking partition)\n\n";
  let t =
    Table.create
      ~headers:
        [
          ("EPC partition (pages)", Table.Right);
          ("baseline slowdown vs full EPC", Table.Right);
          ("DFP improvement in partition", Table.Right);
        ]
  in
  List.iter
    (fun (epc, slowdown, improvement) ->
      Table.add_row t
        [
          Table.cell_int epc;
          Printf.sprintf "%.2fx" slowdown;
          Table.cell_pct improvement;
        ])
    (ablation_share_rows settings);
  Table.print t;
  print_string
    "\nContention raises fault pressure (the paper defers fairness to\n\
     future work) but preloading keeps delivering within each partition.\n\n"

let ablation_sip_all_rows settings =
  let benchmarks = if settings.quick then [ "deepsjeng" ] else [ "lbm"; "deepsjeng"; "mcf" ] in
  let grid =
    List.concat_map
      (fun b ->
        [ (b, "baseline"); (b, "SIP (5% threshold)"); (b, "check everything") ])
      benchmarks
  in
  let runs =
    scheme_grid settings ~table:"abl-sip-all"
      ~key_label:Fun.id
      ~tag_label:Fun.id
      ~trace_of:(fun b -> trace_of settings b ~input:settings.ref_input)
      ~scheme_of:(fun b tag ->
        match tag with
        | "baseline" -> Scheme.Baseline
        | "SIP (5% threshold)" -> Scheme.Sip (plan_for settings b)
        | _ ->
          (* Threshold 0: every profiled site gets a check — an Eleos-like
             check-everything runtime (minus its TCB/security cost, which
             the simulator cannot price). *)
          Scheme.Sip (plan_for ~threshold:0.0 settings b))
      grid
  in
  let table = List.map2 (fun k r -> (k, r)) grid runs in
  List.concat_map
    (fun b ->
      let baseline = List.assoc (b, "baseline") table in
      List.map
        (fun tag ->
          { (row_of ~baseline (List.assoc (b, tag) table)) with scheme = tag })
        [ "SIP (5% threshold)"; "check everything" ])
    benchmarks

let print_ablation_sip_all settings =
  Printf.printf
    "## E-abl-sip-all — profile-guided SIP vs an instrument-everything runtime\n\n";
  Table.print (improvement_table (ablation_sip_all_rows settings));
  print_string
    "\nChecking every site converts more faults but taxes every access and\n\
     bloats the instrumented TCB; the paper's selective instrumentation\n\
     keeps nearly all the benefit at a fraction of the footprint (§6\n\
     contrasts this against Eleos/CoSMIX-style full interposition).\n\n"

let ablation_oram_rows settings =
  let names =
    if settings.quick then [ "oram" ]
    else [ "oram"; "adversarial-streams"; "best-case" ]
  in
  prewarm settings names;
  let grid =
    List.concat_map
      (fun name -> [ (name, "baseline"); (name, "dfp"); (name, "dfp-stop") ])
      names
  in
  let runs =
    scheme_grid settings ~table:"abl-oram"
      ~key_label:Fun.id
      ~tag_label:Fun.id
      ~trace_of:(fun name -> trace_of settings name ~input:settings.ref_input)
      ~scheme_of:(fun _ tag ->
        match tag with
        | "baseline" -> Scheme.Baseline
        | "dfp" -> Scheme.dfp_default
        | _ -> Scheme.dfp_stop)
      grid
  in
  let table = List.map2 (fun k r -> (k, r)) grid runs in
  List.concat_map
    (fun name ->
      let baseline = List.assoc (name, "baseline") table in
      List.map
        (fun tag -> row_of ~baseline (List.assoc (name, tag) table))
        [ "dfp"; "dfp-stop" ])
    names

let print_ablation_oram settings =
  Printf.printf
    "## E-abl-oram — boundary workloads: ORAM, adversarial pairs, ideal stream\n\n";
  Table.print (improvement_table (ablation_oram_rows settings));
  print_string
    "\nORAM-style uniform randomness (§3.1's warning) gives DFP nothing to\n\
     predict; the adversarial pair-walk is its worst case and the stop\n\
     valve contains it; the ideal stream approaches the 1-fault-per-\n\
     (LOADLENGTH+1)-pages bound.\n\n"

(* ------------------------------------------------------------------ *)
(* E-fleet — multi-enclave co-tenancy (the §5.6 future work, made real) *)
(* ------------------------------------------------------------------ *)

let fleet_workloads settings =
  if settings.quick then [ "lbm"; "deepsjeng" ]
  else [ "lbm"; "deepsjeng"; "mcf"; "xz" ]

(* The scheme tags of the fleet and service matrices. *)
let service_scheme_for settings name tag =
  match tag with
  | "baseline" -> Scheme.Baseline
  | "dfp-stop" -> Scheme.dfp_stop
  | "SIP" -> Scheme.Sip (plan_for settings name)
  | "hybrid" -> hybrid_scheme (plan_for settings name)
  | t -> invalid_arg ("Experiments: unknown scheme tag " ^ t)

let service_tags = [ "baseline"; "dfp-stop"; "SIP"; "hybrid" ]

let fleet_cells settings =
  let names = fleet_workloads settings in
  prewarm settings names;
  let tenants =
    List.map
      (fun name ->
        (* Placeholder scheme; [scheme_for] supplies the real one per cell. *)
        Fleet.tenant ~label:name ~scheme:Scheme.Baseline
          (trace_of settings name ~input:settings.ref_input))
      names
  in
  let config =
    { Fleet.default_config with Fleet.epc_pages = settings.epc_pages }
  in
  run_table settings ~table:"fleet"
    (Fleet.matrix ~config ~input_label:(Input.to_string settings.ref_input)
       ~scheme_for:(fun tag label -> service_scheme_for settings label tag)
       ~tags:service_tags
       ~modes:[ Fleet.Shared; Fleet.Partitioned ]
       tenants)

let print_fleet settings =
  Printf.printf
    "## E-fleet — co-tenant fleet: shared EPC vs static partitions\n\n";
  Fleet.print_cells (fleet_cells settings);
  print_string
    "\nEvery tenant runs its full trace under one EPC: shared mode sweeps a\n\
     single global CLOCK over owner-tagged frames (a fault in one enclave\n\
     can evict a co-tenant's page — the interference tables above), while\n\
     partitioned mode gives each tenant capacity/N private frames.  The\n\
     paper measures one enclave at a time and defers sharing fairness to\n\
     future work (S5.6); here preloading's cost under co-tenancy is the\n\
     aggressor column: DFP's speculative loads evict neighbours' pages\n\
     more often than demand faulting alone, and the stop valve bounds it.\n\n"

(* ------------------------------------------------------------------ *)
(* E-service — open-loop request traffic and tail latency              *)
(* ------------------------------------------------------------------ *)

let service_config settings =
  {
    Service.default_config with
    Service.epc_pages = settings.epc_pages;
    pool = (if settings.quick then 2 else 4);
    requests = (if settings.quick then 60 else 300);
    request_events = (if settings.quick then 150 else 400);
    seed = 11;
  }

let service_workloads settings =
  if settings.quick then [ "deepsjeng" ] else [ "lbm"; "deepsjeng" ]

(* Consecutive groups of [n] (the cells one grid key contributes). *)
let rec groups n = function
  | [] -> []
  | xs ->
    let group = List.filteri (fun i _ -> i < n) xs in
    group :: groups n (List.filteri (fun i _ -> i >= n) xs)

let print_service settings =
  Printf.printf
    "## E-service — open-loop request traffic: tail latency and SLOs\n\n";
  let names = service_workloads settings in
  prewarm settings names;
  prewarm settings ~input:Input.Train names;
  let base = service_config settings in
  (* One job list per printed table; each cell's label names its
     config, so labels are unique within the pool call. *)
  let matrix ?fault_plan ~label ~tags config name =
    Service.matrix ~config ?fault_plan
      ~input_label:(Input.to_string settings.ref_input) ~label
      ~scheme_for:(service_scheme_for settings name) ~tags
      (trace_of settings name ~input:settings.ref_input)
  in
  (* 1. Per-scheme tails, synchronous vs switchless calls. *)
  List.iter
    (fun name ->
      Printf.printf "### %s: per-scheme request latency (%s arrivals)\n\n" name
        (Service.arrival_name base.Service.arrivals);
      let table = "service-" ^ name in
      Service.print_cells
        (run_table settings ~table
           (List.concat_map
              (fun (mode, switchless) ->
                matrix ~label:(table ^ "/" ^ mode) ~tags:service_tags
                  { base with Service.switchless } name)
              [ ("sync", false); ("switchless", true) ]));
      print_newline ())
    names;
  (* 2. Throughput vs tail: squeeze the mean gap, watch p99 grow. *)
  let curve_name = List.hd names in
  let multipliers = if settings.quick then [ 2.0; 0.75 ] else [ 2.0; 1.0; 0.75 ] in
  let gaps =
    List.map
      (fun m -> int_of_float (float_of_int base.Service.mean_gap *. m))
      multipliers
  in
  Printf.printf "### %s: throughput vs tail (offered load sweep)\n\n" curve_name;
  let t =
    Table.create
      ~headers:
        [
          ("mean gap (cycles)", Table.Right);
          ("baseline req/Mcyc", Table.Right);
          ("baseline p99", Table.Right);
          ("dfp-stop req/Mcyc", Table.Right);
          ("dfp-stop p99", Table.Right);
        ]
  in
  let load_tags = [ "baseline"; "dfp-stop" ] in
  let load_cells =
    run_table settings ~table:"service-load"
      (List.concat_map
         (fun gap ->
           matrix
             ~label:(Printf.sprintf "service-load/gap=%d" gap)
             ~tags:load_tags
             { base with Service.mean_gap = gap }
             curve_name)
         gaps)
  in
  List.iter2
    (fun gap cells ->
      let o tag = List.assoc tag cells in
      let p99 tag =
        Table.cell_int
          (int_of_float (Float.round (Service.quantile (o tag) 0.99)))
      in
      let thr tag = Table.cell_float ~decimals:3 (Service.throughput (o tag)) in
      Table.add_row t
        [
          Table.cell_int gap;
          thr "baseline";
          p99 "baseline";
          thr "dfp-stop";
          p99 "dfp-stop";
        ])
    gaps
    (groups (List.length load_tags) load_cells);
  Table.print t;
  print_newline ();
  (* 3. Degraded-mode tails: the same service under a chaos fault plan. *)
  Printf.printf "### %s: degraded-mode tails (chaos fault plans)\n\n" curve_name;
  let plans = [ Fault_plan.none; Fault_plan.jittery_channel ] in
  let chaos_cells =
    List.concat
      (List.map2
         (fun (plan : Fault_plan.t) cells ->
           List.map (fun (tag, o) -> (plan.name ^ "/" ^ tag, o)) cells)
         plans
         (groups (List.length load_tags)
            (run_table settings ~table:"service-faults"
               (List.concat_map
                  (fun (plan : Fault_plan.t) ->
                    matrix ~fault_plan:plan
                      ~label:("service-faults/" ^ plan.name)
                      ~tags:load_tags base curve_name)
                  plans))))
  in
  Service.print_cells chaos_cells;
  print_string
    "\nEach request replays a slice of the trace through a pool of warm\n\
     enclave instances; arrivals are open-loop (a seeded Poisson process\n\
     does not slow down because the server is behind).  Preloading's\n\
     whole-trace cycle savings concentrate in the tail percentiles, where\n\
     a burst of demand faults stacks queueing on top of fault service;\n\
     switchless calls shave the constant EENTER/EEXIT toll off every\n\
     percentile, and a jittery paging channel degrades the tail far\n\
     before it moves the median.\n\n"

(* ------------------------------------------------------------------ *)
(* E-resilience — crash–recovery, retries, hedging, breaker            *)
(* ------------------------------------------------------------------ *)

(* The resilient service config: a per-round deadline loose enough
   (4x the SLO) that only genuinely stuck attempts — behind a dead
   instance or a storm of faults — blow it, two retries with
   exponential backoff, and a hedge once an attempt is a full SLO
   outstanding.  A deadline at the SLO itself would flip the table
   into overload collapse: hedges double the offered load exactly when
   the pool is behind.  Full-settings requests replay 400 events (2.7x
   the quick slice) at the same stock arrival gap, which already runs
   the pool past saturation before a single hedge fires — so the gap
   widens with the request size to keep the table about *faults*, not
   queueing collapse.  Restart policy and breaker vary per table. *)
let resilience_config settings =
  let base = service_config settings in
  {
    base with
    Service.mean_gap =
      (if settings.quick then base.Service.mean_gap
       else base.Service.mean_gap * 3);
    Service.resilience =
      {
        Service.no_resilience with
        Service.deadline = Some (4 * base.Service.slo);
        retries = 2;
        retry_backoff = base.Service.slo / 8;
        hedge_after = Some base.Service.slo;
      };
  }

let print_resilience settings =
  Printf.printf
    "## E-resilience — degraded-mode serving: crashes, retries, hedging, \
     breaker\n\n";
  (* deepsjeng in both modes: its scattered accesses are what gives the
     breaker a collapsing hit rate to act on (lbm's streams never trip). *)
  let name = List.hd (List.rev (service_workloads settings)) in
  prewarm settings [ name ];
  let trace = trace_of settings name ~input:settings.ref_input in
  let base = resilience_config settings in
  (* One job list per printed table: [(label, fault plan, config)] per
     cell, each cell serving dfp-stop only, printed as "label/tag". *)
  let run_cells_of table cells =
    List.map2
      (fun (label, _, _) (tag, o) -> (label ^ "/" ^ tag, o))
      cells
      (run_table settings ~table
         (List.concat_map
            (fun (label, fault_plan, config) ->
              Service.matrix ~config ~fault_plan
                ~input_label:(Input.to_string settings.ref_input)
                ~label:(table ^ "/" ^ label)
                ~scheme_for:(service_scheme_for settings name)
                ~tags:[ "dfp-stop" ] trace)
            cells))
  in
  let with_resilience f =
    { base with Service.resilience = f base.Service.resilience }
  in
  (* 1. Restart policy under the crash plans: a rewarmed instance
     re-requests the pages a crash wiped, so the requests queued behind
     the restart fault less and the tail recovers faster than cold. *)
  Printf.printf "### %s: cold vs rewarm restarts under crash plans\n\n" name;
  let restart_cells =
    run_cells_of "resilience-restart"
      (List.concat_map
         (fun (plan : Fault_plan.t) ->
           List.map
             (fun restart ->
               ( plan.name ^ "/" ^ Runner.restart_policy_name restart,
                 plan,
                 with_resilience (fun r -> { r with Service.restart }) ))
             [ Runner.Cold; Runner.Rewarm ])
         [ Fault_plan.crashy_fleet; Fault_plan.flaky_service ])
  in
  Service.print_cells restart_cells;
  print_newline ();
  (* 2. Breaker on/off across the fault bank: under plans that starve
     the load channel, tripping Open sheds speculative loads from the
     contended channel; under clean plans it must stay Closed and cost
     nothing. *)
  Printf.printf "### %s: preload circuit breaker on/off (fault bank)\n\n" name;
  let breaker_plans =
    if settings.quick then
      [ Fault_plan.none; Fault_plan.jittery_channel; Fault_plan.crashy_fleet ]
    else Fault_plan.bank
  in
  let breaker_cells =
    run_cells_of "resilience-breaker"
      (List.concat_map
         (fun (plan : Fault_plan.t) ->
           List.map
             (fun (blabel, breaker) ->
               ( plan.name ^ "/" ^ blabel,
                 plan,
                 with_resilience (fun r -> { r with Service.breaker }) ))
             [
               ("breaker-off", None);
               ("breaker-on", Some Preload.Breaker.default_config);
             ])
         breaker_plans)
  in
  Service.print_cells breaker_cells;
  print_string
    "\nEvery cell runs the full resilient dispatch loop — per-round\n\
     deadlines, retry re-dispatch with exponential backoff onto another\n\
     instance, hedged duplicates once an attempt is a full SLO old —\n\
     and passes the attempt-conservation / crash-bookkeeping /\n\
     breaker-legality battery\n\
     (Validate.check_resilience).  Crashes wipe an instance's EPC and\n\
     charge its restart downtime to every request queued behind it;\n\
     rewarm restarts re-request the lost pages so the post-restart\n\
     requests fault on a warming EPC instead of a cold one.  The breaker\n\
     watches the scan-harvested preload hit rate and sheds speculative\n\
     loads when it collapses, trading prefetch coverage for demand-load\n\
     channel time exactly when the channel is the bottleneck.\n\n"

(* ------------------------------------------------------------------ *)
(* E-online — adaptive preloading without a training trace             *)
(* ------------------------------------------------------------------ *)

(* The online controller's claim: with zero profile input it should
   land near the PGO hybrid on phased programs — DFP mode through the
   streaming phase, learned instrumentation through the irregular one —
   and at worst pay its learning window on single-behaviour programs.
   mixed-blood is the phased witness; lbm (pure stream) and deepsjeng
   (pure irregular) bound the cost of learning what a profile already
   knows. *)
let online_workloads settings =
  if settings.quick then [ "mixed-blood" ]
  else [ "mixed-blood"; "lbm"; "deepsjeng" ]

let online_tags = [ "baseline"; "SIP (PGO)"; "dfp-stop"; "hybrid (PGO)"; "online" ]

(* Unlike every PGO row, the online cell's spec carries the controller
   and its scheme is plain [Baseline]: all preloading it does is learned
   from its own run, so cells get their own specs (no [scheme_grid],
   whose cells share one).  Building the spec by record update skips
   [Spec.make]'s validation, which the stock plan and controller pass. *)
let online_scheme_and_spec settings ?(fault_plan = Fault_plan.none) name tag =
  let spec = { (spec_of settings) with fault_plan } in
  match tag with
  | "baseline" -> (Scheme.Baseline, spec)
  | "SIP (PGO)" -> (Scheme.Sip (plan_for settings name), spec)
  | "dfp-stop" -> (Scheme.dfp_stop, spec)
  | "hybrid (PGO)" -> (hybrid_scheme (plan_for settings name), spec)
  | "online" ->
    (Scheme.Baseline, { spec with online = Some Preload.Online.default_config })
  | t -> invalid_arg ("Experiments.online: unknown scheme tag " ^ t)

let online_rows settings =
  let names = online_workloads settings in
  prewarm settings names;
  prewarm settings ~input:Input.Train names;
  let grid =
    List.concat_map (fun n -> List.map (fun t -> (n, t)) online_tags) names
  in
  let runs =
    cells settings ~table:"online"
      ~label:(fun (n, tag) -> Printf.sprintf "%s/%s" n tag)
      ~f:(fun (n, tag) ->
        let scheme, spec = online_scheme_and_spec settings n tag in
        run_checked ~spec ~scheme (trace_of settings n ~input:settings.ref_input))
      grid
  in
  let table = List.combine grid runs in
  List.concat_map
    (fun n ->
      let baseline = List.assoc (n, "baseline") table in
      List.filter_map
        (fun tag ->
          if tag = "baseline" then None
          else Some (row_of ~baseline (List.assoc (n, tag) table)))
        online_tags)
    names

(* The variable-EPC axis: a co-tenant plan periodically steals frames
   ({!Fault_plan.epc_budget}), so the effective EPC — and with it the
   profitable scheme — changes mid-run.  A profile computed at the
   nominal size cannot anticipate it; the controller re-reads the fault
   rate every scan and follows the squeeze. *)
let online_epc_rows settings =
  let name = "mixed-blood" in
  prewarm settings [ name ];
  prewarm settings ~input:Input.Train [ name ];
  let plans = [ Fault_plan.none; Fault_plan.noisy_neighbor ] in
  let plan_of pname =
    List.find (fun (p : Fault_plan.t) -> p.Fault_plan.name = pname) plans
  in
  let tags = [ "baseline"; "SIP (PGO)"; "online" ] in
  let grid =
    List.concat_map
      (fun (p : Fault_plan.t) -> List.map (fun t -> (p.Fault_plan.name, t)) tags)
      plans
  in
  let runs =
    cells settings ~table:"online-epc"
      ~label:(fun (pname, tag) -> Printf.sprintf "%s/%s" pname tag)
      ~f:(fun (pname, tag) ->
        let scheme, spec =
          online_scheme_and_spec settings ~fault_plan:(plan_of pname) name tag
        in
        run_checked ~spec ~scheme (trace_of settings name ~input:settings.ref_input))
      grid
  in
  let table = List.combine grid runs in
  List.map
    (fun (p : Fault_plan.t) ->
      let cell tag = List.assoc (p.Fault_plan.name, tag) table in
      let baseline = cell "baseline" in
      let norm tag = Runner.normalized_time ~baseline (cell tag) in
      let online = cell "online" in
      let s =
        match online.Runner.diagnostics.Runner.online with
        | Some s -> s
        | None -> assert false (* the online cell always attaches *)
      in
      (p.Fault_plan.name, norm "SIP (PGO)", norm "online", s))
    plans

let print_online settings =
  let module Online = Preload.Online in
  Printf.printf "## E-online — adaptive preloading without a training trace\n\n";
  Printf.printf "### Phased workloads: online controller vs PGO schemes\n\n";
  Table.print (improvement_table (online_rows settings));
  Printf.printf
    "\n### mixed-blood: variable EPC (co-tenant frame steal, plan \
     epc_budget)\n\n";
  let t =
    Table.create
      ~headers:
        [
          ("fault plan", Table.Left);
          ("SIP (PGO) norm.", Table.Right);
          ("online norm.", Table.Right);
          ("mode switches", Table.Right);
          ("phase shifts", Table.Right);
          ("sites instrumented", Table.Right);
          ("final mode", Table.Left);
        ]
  in
  List.iter
    (fun (plan, sip, online, (s : Online.summary)) ->
      Table.add_row t
        [
          plan;
          Table.cell_float ~decimals:3 sip;
          Table.cell_float ~decimals:3 online;
          Table.cell_int (List.length s.Online.s_transitions);
          Table.cell_int s.Online.s_phase_shifts;
          Table.cell_int s.Online.s_instrumented;
          Online.mode_name s.Online.final_mode;
        ])
    (online_epc_rows settings);
  Table.print t;
  print_string
    "\nThe online rows consume no training trace: the controller starts\n\
     in baseline mode, classifies every access against its own LRU\n\
     residency proxy (sized to the EPC) and stream predictor, never\n\
     reading the enclave, and switches scheme at scan boundaries — DFP\n\
     when the stream-covered miss share clears its threshold, learned\n\
     instrumentation when irregular sites dominate.  On phased programs\n\
     it beats the offline SIP profile (which averages both phases into\n\
     one plan); on single-behaviour programs it pays only its learning\n\
     window.  Under the co-tenant squeeze the effective EPC moves\n\
     mid-run, and the phase detector re-triggers where a fixed profile\n\
     would stay mis-tuned.\n\n"

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let catalog =
  [
    ("intro", "§1 motivation: enclave vs native slowdown", print_intro);
    ("fig2", "Fig. 2: baseline vs DFP page-load timeline", print_fig2);
    ("fig3", "Fig. 3: representative page access patterns", print_fig3);
    ("fig4", "Fig. 4: baseline fault vs SIP notification cost", print_fig4);
    ("table1", "Table 1: benchmark classification", print_table1);
    ("fig6", "Fig. 6: DFP stream-list length sweep", print_fig6);
    ("fig7", "Fig. 7: LOADLENGTH sweep", print_fig7);
    ("fig8", "Fig. 8: DFP and DFP-stop improvement", print_fig8);
    ("fig9", "Fig. 9: SIP threshold sweep (deepsjeng)", print_fig9);
    ("fig10", "Fig. 10: SIP improvement", print_fig10);
    ("fig11", "Fig. 11: SIFT and MSER", print_fig11);
    ("fig12", "Fig. 12: SIP vs DFP vs hybrid", print_fig12);
    ("fig13", "Fig. 13: mixed-blood", print_fig13);
    ("table2", "Table 2: instrumentation points", print_table2);
    ("abl-predictor", "Ablation: predictor choice", print_ablation_predictor);
    ("abl-backward", "Ablation: backward-stream detection", print_ablation_backward);
    ("abl-epc", "Ablation: EPC size sweep", print_ablation_epc);
    ("abl-scan", "Ablation: CLOCK scan period vs DFP-stop", print_ablation_scan);
    ("abl-threads", "Ablation: per-thread stream lists", print_ablation_threads);
    ("abl-share", "Ablation: EPC sharing (§5.6)", print_ablation_share);
    ("abl-sip-all", "Ablation: SIP vs instrument-everything", print_ablation_sip_all);
    ("abl-oram", "Ablation: ORAM / adversarial / ideal boundary workloads", print_ablation_oram);
    ("fleet", "Multi-enclave fleet: shared vs partitioned EPC interference", print_fleet);
    ("service", "Open-loop request service: tail latency, SLOs, switchless calls", print_service);
    ("resilience", "Crash-recovery: restarts, retries, hedging, preload breaker", print_resilience);
    ("online", "Online adaptive preloading (no PGO): phased workloads, variable EPC", print_online);
  ]

let all = List.map (fun (id, descr, _) -> (id, descr)) catalog

let run id settings =
  match List.find_opt (fun (i, _, _) -> i = id) catalog with
  | Some (_, _, printer) -> printer settings
  | None ->
    invalid_arg
      (Printf.sprintf "Experiments.run: unknown experiment %S (known: %s)" id
         (String.concat ", " (List.map fst all)))

(* Keep-going driver: run each experiment, collecting instead of
   propagating failures when [settings.keep_going].  Failure reports go
   to stderr as they happen (stdout carries only the tables, keeping the
   -j byte-identity contract), and the returned list lets the CLI exit
   nonzero. *)
let run_many ids settings =
  let failures = ref [] in
  List.iter
    (fun id ->
      try
        run id settings;
        print_newline ()
      with
      | Cells_failed _ as e when settings.keep_going ->
        let reason = Printexc.to_string e in
        Printf.eprintf "experiment %s failed: %s\n%!" id reason;
        failures := (id, reason) :: !failures)
    ids;
  List.rev !failures
