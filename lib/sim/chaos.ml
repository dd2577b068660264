module Table = Repro_util.Table
module Input = Workload.Input
module Scheme = Preload.Scheme
module Dfp = Preload.Dfp
module Metrics = Sgxsim.Metrics

type settings = {
  epc_pages : int;
  input : Input.t;
  quick : bool;
  jobs : int;
  seed : int;
  plans : Fault_plan.t list;
  workloads : string list;
  cell_timeout : float option;
  retries : int;
  keep_going : bool;
  journal_dir : string option;
  resume : bool;
  breaker : Preload.Breaker.config option;
      (* Attach a preload circuit breaker to every non-Native cell, so
         the matrix shows what tripping Open under a hostile plan costs
         (and that it stays Closed under clean ones). *)
  online : Preload.Online.config option;
      (* Attach the online adaptive controller to every non-Native cell:
         the chaos matrix then answers whether adaptation stays legal
         (and helpful) while the fault plans are actively lying to the
         classifier. *)
}

let default_workloads ~quick =
  if quick then [ "lbm"; "deepsjeng" ] else [ "lbm"; "deepsjeng"; "mcf"; "xz" ]

let default =
  {
    epc_pages = 1024;
    input = Input.Ref 0;
    quick = false;
    jobs = 1;
    seed = Fault_plan.bank_seed;
    plans = Fault_plan.bank;
    workloads = default_workloads ~quick:false;
    cell_timeout = None;
    retries = 0;
    keep_going = false;
    journal_dir = None;
    resume = false;
    breaker = None;
    online = None;
  }

let quick = { default with quick = true; workloads = default_workloads ~quick:true }

(* What a chaos cell sends back through the pool: enough to print the
   degradation table and prove the invariants, nothing heavy — the full
   Runner.result (with its event log) dies in the worker. *)
type cell = {
  workload : string;
  scheme : string;
  plan : string;
  cycles : int;
  faults : int;
  preloads_issued : int;
  preloads_aborted : int;
  preloads_completed : int;
  preload_evicted_unused : int;
  violations : string list;
}

type outcome = {
  cells : cell list;
      (** Grid order — workload-major, scheme, plan-minor. *)
  failed : Job_pool.failure list;
  violation_count : int;
}

let scheme_names = [ "baseline"; "dfp-stop"; "SIP"; "hybrid" ]

let scheme_of tag plan =
  match tag with
  | "baseline" -> Scheme.Baseline
  | "dfp-stop" -> Scheme.dfp_stop
  | "SIP" -> Scheme.Sip plan
  | "hybrid" -> Scheme.Hybrid (Dfp.with_stop Dfp.default_config, plan)
  | _ -> invalid_arg ("Chaos.scheme_of: " ^ tag)

(* Large enough that the shipped workloads keep complete logs, so the
   event-derived invariants (channel discipline, page conservation)
   actually run; Validate skips them gracefully if a log still
   overflows. *)
let log_capacity = 1 lsl 20

let exp_settings settings =
  {
    Experiments.epc_pages = settings.epc_pages;
    ref_input = settings.input;
    quick = settings.quick;
    jobs = settings.jobs;
    cell_timeout = settings.cell_timeout;
    retries = settings.retries;
    (* Chaos keeps going cell by cell (a dead cell must not discard its
       neighbours), so the runner always picks the hardened pool; without
       [settings.keep_going] a lost cell still aborts the matrix. *)
    keep_going = true;
    journal_dir = settings.journal_dir;
    resume = settings.resume;
  }

let cell_of_result ~workload ~plan (r : Runner.result) =
  let m = r.Runner.metrics in
  {
    workload;
    scheme = r.Runner.scheme;
    plan = plan.Fault_plan.name;
    cycles = r.Runner.cycles;
    faults = Metrics.total_faults m;
    preloads_issued = m.Metrics.preloads_issued;
    preloads_aborted = m.preloads_aborted;
    preloads_completed = m.preloads_completed;
    preload_evicted_unused = m.preload_evicted_unused;
    violations =
      List.map
        (fun (x : Validate.violation) ->
          Printf.sprintf "[%s] %s" x.check x.detail)
        (Validate.check r);
  }

let runner_config es =
  { Runner.default_config with epc_pages = es.Experiments.epc_pages; log_capacity }

let cell_spec es ?breaker ?online ~plan () =
  Runner.Spec.make ~config:(runner_config es) ~fault_plan:plan
    ~input_label:(Input.to_string es.Experiments.ref_input) ?breaker ?online ()

let run_cell es ?breaker ?online ~workload ~scheme ~plan () =
  let trace = Experiments.trace_of es workload ~input:es.Experiments.ref_input in
  let r =
    Runner.run ~spec:(cell_spec es ?breaker ?online ~plan ()) ~scheme trace
  in
  cell_of_result ~workload ~plan r

let plans_of settings =
  Fault_plan.none
  :: List.map (fun p -> Fault_plan.with_seed p settings.seed) settings.plans

let grid settings =
  let plans = plans_of settings in
  List.concat_map
    (fun workload ->
      List.concat_map
        (fun scheme_tag ->
          List.map (fun plan -> (workload, scheme_tag, plan)) plans)
        scheme_names)
    settings.workloads

let run settings =
  let es = exp_settings settings in
  let journal_key =
    Printf.sprintf "chaos %s seed=%d breaker=%s online=%s"
      (Experiments.settings_key es) settings.seed
      (match settings.breaker with
      | None -> "off"
      | Some b ->
        Printf.sprintf "%d/%d/%g/%d/%d" b.Preload.Breaker.window
          b.Preload.Breaker.min_samples b.Preload.Breaker.threshold
          b.Preload.Breaker.cooldown b.Preload.Breaker.probe_samples)
      (match settings.online with
      | None -> "off"
      | Some o -> Preload.Online.config_name o)
  in
  (* Compile every workload's ref and train arenas and profile its SIP
     plan once, here: the pool forks a process per cell, and each
     inherits both copy-on-write instead of redoing them. *)
  Experiments.prewarm es settings.workloads;
  let sip_plans =
    List.map (fun w -> (w, Experiments.plan_for es w)) settings.workloads
  in
  let results =
    Experiments.run_cells ~journal_key es ~table:"chaos"
      (List.map
         (fun (workload, scheme_tag, plan) ->
           Job_pool.job
             ~label:
               (Printf.sprintf "chaos/%s/%s/%s" workload scheme_tag
                  plan.Fault_plan.name)
             (run_cell es ?breaker:settings.breaker ?online:settings.online
                ~workload
                ~scheme:(scheme_of scheme_tag (List.assoc workload sip_plans))
                ~plan))
         (grid settings))
  in
  let cells = List.filter_map Result.to_option results in
  let failed = Experiments.failures results in
  if failed <> [] && not settings.keep_going then
    raise (Experiments.Cells_failed failed);
  {
    cells;
    failed;
    violation_count =
      List.fold_left (fun n c -> n + List.length c.violations) 0 cells;
  }

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let print_workload cells workload =
  let mine = List.filter (fun c -> c.workload = workload) cells in
  if mine <> [] then begin
    Printf.printf "### %s\n\n" workload;
    let t =
      Table.create
        ~headers:
          [
            ("scheme", Table.Left); ("fault plan", Table.Left);
            ("cycles", Table.Right); ("overhead", Table.Right);
            ("faults", Table.Right); ("fault incr", Table.Right);
            ("abort rate", Table.Right); ("mispreload", Table.Right);
            ("invariants", Table.Left);
          ]
    in
    List.iter
      (fun c ->
        let fault_free =
          List.find_opt
            (fun b ->
              b.workload = c.workload && b.scheme = c.scheme
              && b.plan = Fault_plan.none.Fault_plan.name)
            mine
        in
        let against f = Option.fold ~none:"-" ~some:f fault_free in
        Table.add_row t
          [
            c.scheme; c.plan;
            Table.cell_int c.cycles;
            against (fun b ->
                Table.cell_pct
                  ((float_of_int c.cycles /. float_of_int (max 1 b.cycles)) -. 1.0));
            Table.cell_int c.faults;
            against (fun b ->
                if b.faults = 0 then (if c.faults = 0 then "0.0%" else "inf")
                else Table.cell_pct (ratio c.faults b.faults -. 1.0));
            Table.cell_pct (ratio c.preloads_aborted c.preloads_issued);
            Table.cell_pct (ratio c.preload_evicted_unused c.preloads_completed);
            (if c.violations = [] then "ok"
             else Printf.sprintf "%d VIOLATED" (List.length c.violations));
          ])
      mine;
    Table.print t;
    print_newline ()
  end

let print_report settings outcome =
  Printf.printf "## Chaos — scheme matrix under fault plans (seed %d)\n\n"
    settings.seed;
  List.iter
    (fun p ->
      Printf.printf "- %-16s %s\n" p.Fault_plan.name (Fault_plan.describe p))
    (List.map (fun p -> Fault_plan.with_seed p settings.seed) settings.plans);
  (match settings.breaker with
  | None -> ()
  | Some b ->
    Printf.printf
      "- %-16s window %d, min %d samples, trip under %.0f%%, cooldown %d, \
       probe %d\n"
      "breaker" b.Preload.Breaker.window b.Preload.Breaker.min_samples
      (100.0 *. b.Preload.Breaker.threshold)
      b.Preload.Breaker.cooldown b.Preload.Breaker.probe_samples);
  (match settings.online with
  | None -> ()
  | Some o ->
    Printf.printf "- %-16s %s (adaptive controller on every cell)\n" "online"
      (Preload.Online.config_name o));
  print_newline ();
  List.iter (print_workload outcome.cells) settings.workloads;
  List.iter
    (fun c ->
      List.iter
        (fun v ->
          Printf.printf "VIOLATION %s/%s/%s: %s\n" c.workload c.scheme c.plan v)
        c.violations)
    outcome.cells;
  (* Failed cells go to stderr (the pool already noted each); the stdout
     summary only counts them, keeping stdout identical whether failures
     were retried at different times. *)
  Printf.printf "%d cells, %d invariant violation(s), %d failed cell(s)\n"
    (List.length outcome.cells + List.length outcome.failed)
    outcome.violation_count
    (List.length outcome.failed);
  List.iter
    (fun f -> Printf.eprintf "chaos: cell %s\n%!" (Job_pool.describe f))
    outcome.failed

let ok outcome = outcome.failed = [] && outcome.violation_count = 0
