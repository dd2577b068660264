(* Command-line driver: run a workload under a scheme, inspect SIP
   profiles/plans, or regenerate paper experiments. *)

open Cmdliner

module Scheme = Preload.Scheme
module Input = Workload.Input
module Experiments = Sim.Experiments

(* The workload catalog lives in Experiments so the [list] output, the
   error messages below and what [run] accepts can never drift apart
   (this listing used to omit the parallel and synthetic families). *)
let list_workloads () = Experiments.workload_names ()
let model_of_name = Experiments.find_model

let unknown_workload name =
  Printf.eprintf "unknown workload %S; known workloads:\n  %s\n" name
    (String.concat "\n  " (list_workloads ()));
  exit 1

(* ---------- shared argument converters ---------- *)

let input_conv =
  let parse s =
    match Input.of_string s with Ok i -> Ok i | Error m -> Error (`Msg m)
  in
  Arg.conv (parse, fun fmt i -> Format.pp_print_string fmt (Input.to_string i))

let workload_arg =
  let doc = "Workload model (see $(b,list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let epc_arg =
  let doc = "Usable EPC size in 4 KiB pages." in
  Arg.(value & opt int 2048 & info [ "epc" ] ~docv:"PAGES" ~doc)

let input_arg =
  let doc = "Input set: $(b,train) or $(b,ref0), $(b,ref1), ..." in
  Arg.(value & opt input_conv (Input.Ref 0) & info [ "input" ] ~docv:"INPUT" ~doc)

let threshold_arg =
  let doc = "SIP irregular-ratio instrumentation threshold." in
  Arg.(
    value
    & opt float Preload.Sip_instrumenter.default_threshold
    & info [ "threshold" ] ~docv:"RATIO" ~doc)

let breaker_arg =
  let doc =
    "Attach the preload circuit breaker (stock configuration) to every \
     enclave instance: when the scan-harvested preload hit rate falls \
     below the trip threshold over a full window, the breaker opens and \
     sheds speculative loads until a half-open probe run succeeds."
  in
  Arg.(value & flag & info [ "breaker" ] ~doc)

let breaker_of flag =
  if flag then Some Preload.Breaker.default_config else None

let online_arg =
  let doc =
    "Attach the online adaptive controller (no PGO input): $(b,online) \
     for the stock configuration, or a parameterized spec like \
     $(b,online:window=8,probe=256).  The controller classifies every \
     access (§4.4 Class 1/2/3) against its own LRU residency proxy, sized \
     to the EPC, and stream predictor, never reading the enclave, and \
     switches between baseline, DFP and learned instrumentation at scan \
     boundaries."
  in
  Arg.(
    value
    & opt ~vopt:(Some "online") (some string) None
    & info [ "online" ] ~docv:"SPEC" ~doc)

let online_of = function
  | None -> None
  | Some s -> (
    match Preload.Online.config_of_string s with
    | Ok c -> Some c
    | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1)

(* ---------- run ---------- *)

let settings_of ~epc ~input =
  { Experiments.default with epc_pages = epc; ref_input = input }

let build_plan ~epc name =
  let model =
    match model_of_name name with
    | Some m -> m
    | None ->
      (* Only [replay] gets here: a recorded file may name any workload.
         Every other command checks its workload names first. *)
      Printf.eprintf
        "no shipped workload named %S: sip and hybrid profile their plan \
         from a shipped model's train input\n"
        name;
      exit 1
  in
  let train = model ~epc_pages:epc ~input:Input.Train in
  let profile =
    Preload.Sip_profiler.profile
      ~input:(Input.to_string Input.Train)
      (Preload.Sip_profiler.default_config ~residency_pages:epc)
      train
  in
  Preload.Sip_instrumenter.plan_of_profile profile

(* One scheme grammar for every command — {!Scheme.of_string} owns the
   parsing; the CLI only supplies the plan thunk (the [--plan] file's
   plan when given, else the train-input PGO pipeline), which is forced
   only when the scheme actually needs a plan. *)
let scheme_of_string ~plan s =
  match Scheme.of_string ~plan s with
  | Ok scheme -> scheme
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    exit 1

let parse_scheme ?plan ~epc ~workload s =
  scheme_of_string s ~plan:(fun () ->
      match plan with Some p -> p | None -> build_plan ~epc workload)

(* A [--plan] file is read once, in the parent, before any matrix cell
   forks: a worker's [exit] would end only the worker. *)
let load_plan path =
  match Preload.Plan_io.load ~path with
  | Ok plan -> plan
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    exit 1

(* The matrix commands parse their schemes inside forked cells, where
   [exit] would end only the worker.  They check every scheme string
   here first, in the parent, against a placeholder plan: the grammar is
   the same, and no plan is built. *)
let check_scheme ~workload s =
  ignore
    (scheme_of_string s ~plan:(fun () ->
         Preload.Sip_instrumenter.empty_plan ~workload))

let scheme_doc =
  "Preloading scheme: $(b,baseline), $(b,native), $(b,dfp), $(b,dfp-stop), \
   $(b,sip), $(b,sip+dfp), $(b,sip+dfp-stop) (alias $(b,hybrid)), \
   $(b,next-line:K), $(b,stride:K), $(b,markov:T,D)."

let run_cmd =
  let scheme_arg =
    Arg.(
      value
      & opt string "baseline"
      & info [ "scheme" ] ~docv:"SCHEME" ~doc:scheme_doc)
  in
  let breakdown_arg =
    let doc = "Print the cycle-accounting breakdown." in
    Arg.(value & flag & info [ "breakdown" ] ~doc)
  in
  let events_arg =
    let doc = "Record and print the first $(docv) timeline events." in
    Arg.(value & opt int 0 & info [ "events" ] ~docv:"N" ~doc)
  in
  let plan_arg =
    let doc = "Use a saved instrumentation plan (see $(b,profile --save-plan)) for the sip/hybrid schemes." in
    Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"FILE" ~doc)
  in
  let action workload scheme epc input breakdown events plan_file breaker
      online =
    match model_of_name workload with
    | None -> unknown_workload workload
    | Some model ->
      let scheme =
        parse_scheme ?plan:(Option.map load_plan plan_file) ~epc ~workload
          scheme
      in
      let trace = model ~epc_pages:epc ~input in
      let config =
        { Sim.Runner.default_config with epc_pages = epc; log_capacity = events }
      in
      let spec =
        Sim.Runner.Spec.make ~config ?breaker:(breaker_of breaker)
          ?online:(online_of online)
          ~input_label:(Input.to_string input) ()
      in
      let result = Sim.Runner.run ~spec ~scheme trace in
      print_endline (Sim.Report.summary result);
      if result.instrumentation_points > 0 then
        Printf.printf "instrumentation points: %d\n" result.instrumentation_points;
      if result.dfp_stopped then print_endline "DFP-stop fired during the run.";
      if breakdown then begin
        print_newline ();
        Repro_util.Table.print (Sim.Report.breakdown_table result);
        print_newline ();
        Repro_util.Table.print (Sim.Report.fault_latency_table result);
        print_newline ();
        Repro_util.Table.print (Sim.Report.diagnostics_table result)
      end;
      if events > 0 then begin
        print_newline ();
        List.iter (fun e -> Format.printf "%a@." Sgxsim.Event.pp e) result.events
      end
  in
  let term =
    Term.(
      const action $ workload_arg $ scheme_arg $ epc_arg $ input_arg
      $ breakdown_arg $ events_arg $ plan_arg $ breaker_arg $ online_arg)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload under one preloading scheme")
    term

(* ---------- compare ---------- *)

let compare_cmd =
  let action workload epc input =
    match model_of_name workload with
    | None -> unknown_workload workload
    | Some model ->
      let trace = model ~epc_pages:epc ~input in
      let spec =
        Sim.Runner.Spec.make
          ~config:{ Sim.Runner.default_config with epc_pages = epc }
          ~input_label:(Input.to_string input) ()
      in
      let run scheme = Sim.Runner.run ~spec ~scheme trace in
      let baseline = run Scheme.Baseline in
      let plan = build_plan ~epc workload in
      let table =
        Repro_util.Table.create
          ~headers:
            [
              ("scheme", Repro_util.Table.Left);
              ("cycles", Repro_util.Table.Right);
              ("normalized", Repro_util.Table.Right);
              ("improvement", Repro_util.Table.Right);
              ("faults", Repro_util.Table.Right);
            ]
      in
      List.iter
        (fun scheme ->
          let r = run scheme in
          Repro_util.Table.add_row table
            [
              r.scheme;
              Repro_util.Table.cell_int r.cycles;
              Repro_util.Table.cell_float ~decimals:3
                (Sim.Runner.normalized_time ~baseline r);
              Repro_util.Table.cell_pct (Sim.Runner.improvement ~baseline r);
              Repro_util.Table.cell_int (Sgxsim.Metrics.total_faults r.metrics);
            ])
        [
          Scheme.Baseline; Scheme.dfp_default; Scheme.dfp_stop; Scheme.Sip plan;
          Scheme.Hybrid (Preload.Dfp.with_stop Preload.Dfp.default_config, plan);
        ];
      Printf.printf "%s, input %s, EPC %d pages:\n\n" workload
        (Input.to_string input) epc;
      Repro_util.Table.print table
  in
  let term = Term.(const action $ workload_arg $ epc_arg $ input_arg) in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run every scheme on one workload and compare")
    term

(* ---------- profile ---------- *)

let profile_cmd =
  let save_arg =
    let doc = "Also write the instrumentation plan to $(docv)." in
    Arg.(value & opt (some string) None & info [ "save-plan" ] ~docv:"FILE" ~doc)
  in
  let action workload epc input threshold save =
    match model_of_name workload with
    | None -> unknown_workload workload
    | Some model ->
      let trace = model ~epc_pages:epc ~input in
      let profile =
        Preload.Sip_profiler.profile
          ~input:(Input.to_string input)
          (Preload.Sip_profiler.default_config ~residency_pages:epc)
          trace
      in
      let plan = Preload.Sip_instrumenter.plan_of_profile ~threshold profile in
      let totals = Preload.Sip_profiler.totals profile in
      Printf.printf "%s (%s): %d accesses, class1=%d class2=%d class3=%d\n"
        workload (Input.to_string input) profile.total_accesses totals.c1
        totals.c2 totals.c3;
      Printf.printf "instrumentation points at %.1f%%: %d\n\n"
        (100.0 *. threshold)
        (Preload.Sip_instrumenter.instrumentation_points plan);
      let table =
        Repro_util.Table.create
          ~headers:
            [
              ("site", Repro_util.Table.Left);
              ("class1", Repro_util.Table.Right);
              ("class2", Repro_util.Table.Right);
              ("class3", Repro_util.Table.Right);
              ("irregular", Repro_util.Table.Right);
              ("instrument", Repro_util.Table.Left);
            ]
      in
      List.iter
        (fun (d : Preload.Sip_instrumenter.decision) ->
          Repro_util.Table.add_row table
            [
              Workload.Trace.site_name trace d.site;
              string_of_int d.counts.c1;
              string_of_int d.counts.c2;
              string_of_int d.counts.c3;
              Repro_util.Table.cell_pct d.ratio;
              (if d.instrument then "yes" else "-");
            ])
        plan.decisions;
      Repro_util.Table.print table;
      match save with
      | Some path ->
        Preload.Plan_io.save plan ~path;
        Printf.printf "\nplan written to %s\n" path
      | None -> ()
  in
  let term =
    Term.(
      const action $ workload_arg $ epc_arg $ input_arg $ threshold_arg
      $ save_arg)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run the SIP profiling pass and show per-site classification")
    term

(* ---------- stats ---------- *)

let stats_cmd =
  let action workload epc input =
    match model_of_name workload with
    | None -> unknown_workload workload
    | Some model ->
      let trace = model ~epc_pages:epc ~input in
      let s = Workload.Trace_stats.analyse trace in
      Printf.printf "%s (%s):\n  %s\n\n" workload (Input.to_string input)
        (Format.asprintf "%a" Workload.Trace_stats.pp s);
      Printf.printf
        "hot-page persistence (top-%d overlap across %d windows): %s\n\n"
        64 16
        (Repro_util.Table.cell_pct s.Workload.Trace_stats.hot_persistence);
      print_endline "LRU miss-ratio curve (baseline fault-rate estimate):";
      List.iter
        (fun (size, ratio) ->
          Printf.printf "  %6d pages -> %s\n" size
            (Repro_util.Table.cell_pct ratio))
        (Workload.Trace_stats.miss_ratio_curve trace
           ~epc_pages:[ epc / 4; epc / 2; epc; 2 * epc ])
  in
  let term = Term.(const action $ workload_arg $ epc_arg $ input_arg) in
  Cmd.v
    (Cmd.info "stats" ~doc:"Characterise a workload (locality, miss curve)")
    term

(* ---------- record / replay ---------- *)

let output_arg =
  let doc = "Output file." in
  Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let record_cmd =
  let action workload epc input output =
    match model_of_name workload with
    | None -> unknown_workload workload
    | Some model ->
      let trace = model ~epc_pages:epc ~input in
      Workload.Trace_io.save_trace trace ~path:output;
      Printf.printf "recorded %s (%s) to %s\n" workload (Input.to_string input)
        output
  in
  let term = Term.(const action $ workload_arg $ epc_arg $ input_arg $ output_arg) in
  Cmd.v (Cmd.info "record" ~doc:"Record a workload's access trace to a file") term

let replay_cmd =
  let file_arg =
    let doc = "Trace file written by $(b,record)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let scheme_arg =
    Arg.(
      value
      & opt string "baseline"
      & info [ "scheme" ] ~docv:"SCHEME" ~doc:scheme_doc)
  in
  let action file scheme epc =
    let trace =
      match Workload.Trace_io.load_trace ~path:file with
      | Ok trace -> trace
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    in
    let scheme = parse_scheme ~epc ~workload:trace.Workload.Trace.name scheme in
    let spec =
      Sim.Runner.Spec.make
        ~config:{ Sim.Runner.default_config with epc_pages = epc }
        ()
    in
    let result = Sim.Runner.run ~spec ~scheme trace in
    print_endline (Sim.Report.summary result)
  in
  let term = Term.(const action $ file_arg $ scheme_arg $ epc_arg) in
  Cmd.v (Cmd.info "replay" ~doc:"Run a recorded trace file under a scheme") term

(* ---------- validate ---------- *)

let scheme_pos_arg =
  Arg.(value & pos 1 string "baseline" & info [] ~docv:"SCHEME" ~doc:scheme_doc)

let run_logged ?online ~workload ~scheme_name ~epc ~input ~log_capacity () =
  match model_of_name workload with
  | None -> unknown_workload workload
  | Some model ->
    let scheme = parse_scheme ~epc ~workload scheme_name in
    let trace = model ~epc_pages:epc ~input in
    let spec =
      Sim.Runner.Spec.make
        ~config:{ Sim.Runner.default_config with epc_pages = epc; log_capacity }
        ~input_label:(Input.to_string input) ?online ()
    in
    Sim.Runner.run ~spec ~scheme trace

let validate_cmd =
  let action workload scheme epc input online =
    (* Large enough to keep full histories for the shipped workloads, so
       the event-derived checks actually run; Validate skips them if the
       ring still overflows. *)
    let result =
      run_logged
        ?online:(online_of online)
        ~workload ~scheme_name:scheme ~epc ~input ~log_capacity:(1 lsl 20) ()
    in
    if result.diagnostics.events_truncated then
      Printf.printf
        "note: event ring overflowed (%d events kept); event-derived checks \
         skipped\n"
        (List.length result.events);
    match Sim.Validate.check result with
    | [] ->
      Printf.printf "%s/%s: all invariants hold (%d cycles, %d events)\n"
        result.workload result.scheme result.cycles
        (List.length result.events)
    | violations ->
      Printf.eprintf "%s/%s: %d invariant violation(s)\n%s\n" result.workload
        result.scheme
        (List.length violations)
        (Sim.Validate.report violations);
      exit 1
  in
  let term =
    Term.(
      const action $ workload_arg $ scheme_pos_arg $ epc_arg $ input_arg
      $ online_arg)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Run a workload under a scheme and check every simulator invariant \
          (cycle accounting, event-log discipline, counter identities)")
    term

(* ---------- export ---------- *)

let export_cmd =
  let format_arg =
    (* The converter is derived from [Trace_export.formats]: a format
       added to the variant shows up here without touching the CLI. *)
    let doc = "Output format: $(b,chrome-trace), $(b,jsonl) or $(b,csv)." in
    Arg.(
      value
      & opt (Arg.enum Sim.Trace_export.formats) Sim.Trace_export.Chrome_trace
      & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  let out_arg =
    let doc = "Write to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let scheme_opt_arg =
    let doc = "Preloading scheme (as for $(b,run))." in
    Arg.(value & opt string "baseline" & info [ "scheme" ] ~docv:"SCHEME" ~doc)
  in
  let action workload scheme epc input format out online =
    let log_capacity =
      if Sim.Trace_export.needs_events format then 1 lsl 20 else 0
    in
    let result =
      run_logged
        ?online:(online_of online)
        ~workload ~scheme_name:scheme ~epc ~input ~log_capacity ()
    in
    let payload = Sim.Trace_export.render ~format result in
    match out with
    | None -> print_string payload
    | Some path ->
      let oc = open_out path in
      output_string oc payload;
      close_out oc;
      Printf.eprintf "wrote %s (%d bytes)\n" path (String.length payload)
  in
  let term =
    Term.(
      const action $ workload_arg $ scheme_opt_arg $ epc_arg $ input_arg
      $ format_arg $ out_arg $ online_arg)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Run a workload and export the run as a Perfetto-loadable Chrome \
          trace, a JSONL record or a CSV row")
    term

(* ---------- experiment / chaos (shared hardening flags) ---------- *)

let quick_arg =
  let doc = "Use the trimmed quick settings." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let jobs_arg =
  let doc =
    "Fan each experiment's cells out across $(docv) forked worker \
     processes (1 = run in-process).  Results merge deterministically, \
     so the output is byte-identical at any value."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let timeout_arg =
  let doc =
    "Wall-clock seconds per cell attempt; a cell still running after \
     $(docv) seconds is SIGKILLed and counts as failed (or is retried, \
     see $(b,--retries))."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let retries_arg =
  let doc = "Re-run a failing cell up to $(docv) extra times (exponential backoff)." in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)

let keep_going_arg =
  let doc =
    "Collect failures and keep running the rest of the matrix; report \
     them at the end and exit nonzero if any remain."
  in
  Arg.(value & flag & info [ "k"; "keep-going" ] ~doc)

let journal_arg =
  let doc =
    "Checkpoint completed cells into per-table journal files under \
     $(docv) (created if missing); see $(b,--resume)."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"DIR" ~doc)

let resume_arg =
  let doc =
    "Reuse cells journaled by an interrupted run with the same \
     configuration instead of re-executing them (requires \
     $(b,--journal))."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

(* A matrix that lost cells names each on stderr and exits 1. *)
let report_lost what fs =
  Printf.eprintf "%s: %d cell(s) failed:\n" what (List.length fs);
  List.iter (fun f -> Printf.eprintf "  %s\n" (Sim.Job_pool.describe f)) fs;
  exit 1

let ensure_journal_dir = function
  | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
  | _ -> ()

let experiment_cmd =
  let ids_arg =
    let doc = "Experiment ids (see $(b,list)); defaults to all." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let action ids epc input quick_flag jobs timeout retries keep_going journal
      resume =
    let settings =
      if quick_flag then Experiments.quick else settings_of ~epc ~input
    in
    ensure_journal_dir journal;
    let settings =
      {
        settings with
        Experiments.jobs;
        cell_timeout = timeout;
        retries;
        keep_going;
        journal_dir = journal;
        resume;
      }
    in
    let ids = if ids = [] then List.map fst Experiments.all else ids in
    match Experiments.run_many ids settings with
    | [] -> ()
    | failures ->
      Printf.eprintf "%d experiment(s) failed: %s\n"
        (List.length failures)
        (String.concat ", " (List.map fst failures));
      exit 1
  in
  let term =
    Term.(
      const action $ ids_arg $ epc_arg $ input_arg $ quick_arg $ jobs_arg
      $ timeout_arg $ retries_arg $ keep_going_arg $ journal_arg $ resume_arg)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate paper tables/figures by id")
    term

(* ---------- chaos ---------- *)

let chaos_cmd =
  let seed_arg =
    let doc = "Fault-plan seed; same seed = bit-identical matrix." in
    Arg.(
      value
      & opt int Sim.Fault_plan.bank_seed
      & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let plans_arg =
    let doc =
      "Comma-separated fault-plan names to run (default: the whole bank)."
    in
    Arg.(
      value
      & opt (list string) (Sim.Fault_plan.names ())
      & info [ "plans" ] ~docv:"NAMES" ~doc)
  in
  let workloads_arg =
    let doc = "Comma-separated workloads (default: the chaos set)." in
    Arg.(value & opt (list string) [] & info [ "workloads" ] ~docv:"NAMES" ~doc)
  in
  let action epc input quick_flag jobs seed plan_names workloads timeout
      retries keep_going journal resume breaker online =
    let plans =
      List.map
        (fun name ->
          match Sim.Fault_plan.find name with
          | Some p -> p
          | None ->
            Printf.eprintf "unknown fault plan %S; known plans:\n  %s\n" name
              (String.concat "\n  " (Sim.Fault_plan.names ()));
            exit 1)
        plan_names
    in
    List.iter
      (fun w -> if model_of_name w = None then unknown_workload w)
      workloads;
    ensure_journal_dir journal;
    let base = if quick_flag then Sim.Chaos.quick else Sim.Chaos.default in
    let settings =
      {
        base with
        Sim.Chaos.epc_pages = epc;
        input;
        jobs;
        seed;
        plans;
        workloads = (if workloads = [] then base.Sim.Chaos.workloads else workloads);
        cell_timeout = timeout;
        retries;
        keep_going;
        journal_dir = journal;
        resume;
        breaker = breaker_of breaker;
        online = online_of online;
      }
    in
    let outcome =
      try Sim.Chaos.run settings
      with Experiments.Cells_failed fs -> report_lost "chaos" fs
    in
    Sim.Chaos.print_report settings outcome;
    if not (Sim.Chaos.ok outcome) then exit 1
  in
  let epc_chaos_arg =
    let doc = "Usable EPC size in 4 KiB pages." in
    Arg.(value & opt int 1024 & info [ "epc" ] ~docv:"PAGES" ~doc)
  in
  let term =
    Term.(
      const action $ epc_chaos_arg $ input_arg $ quick_arg $ jobs_arg
      $ seed_arg $ plans_arg $ workloads_arg $ timeout_arg $ retries_arg
      $ keep_going_arg $ journal_arg $ resume_arg $ breaker_arg $ online_arg)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the scheme matrix under a bank of named fault plans, print \
          graceful-degradation tables, and exit nonzero on any invariant \
          violation or failed cell")
    term

(* ---------- fleet ---------- *)

let fleet_cmd =
  let module Fleet = Sim.Fleet in
  let module Arbiter = Sgxsim.Load_channel.Arbiter in
  let tenants_arg =
    let doc =
      "Tenant workloads, one co-resident enclave each (repeat a name to \
       run two instances of the same workload)."
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"WORKLOAD" ~doc)
  in
  let schemes_arg =
    let doc =
      "Comma-separated preloading schemes: one applied to every tenant, \
       or exactly one per tenant in tenant order.  Same grammar as \
       $(b,run --scheme)."
    in
    Arg.(value & opt (list string) [ "baseline" ] & info [ "schemes" ] ~docv:"SCHEMES" ~doc)
  in
  let mode_arg =
    let doc = "EPC mode: $(b,shared), $(b,partitioned), or $(b,both)." in
    Arg.(value & opt string "shared" & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let policy_arg =
    let doc =
      "Paging-channel arbitration: $(b,fifo), $(b,fair-share) or \
       $(b,priority)."
    in
    Arg.(value & opt string "fifo" & info [ "policy" ] ~docv:"POLICY" ~doc)
  in
  let priorities_arg =
    let doc =
      "Comma-separated per-tenant priority levels (0 = highest; only \
       the $(b,priority) policy reads them).  Default: all 1."
    in
    Arg.(value & opt (list int) [] & info [ "priorities" ] ~docv:"LEVELS" ~doc)
  in
  let fault_plan_arg =
    let doc = "Run under a named chaos fault plan (see $(b,chaos))." in
    Arg.(value & opt string "fault-free" & info [ "fault-plan" ] ~docv:"NAME" ~doc)
  in
  let summaries_arg =
    let doc =
      "Print only the label-prefixed per-tenant summary lines — the \
       stable surface the CI determinism diff compares."
    in
    Arg.(value & flag & info [ "summaries" ] ~doc)
  in
  let plan_arg =
    let doc = "Use a saved instrumentation plan for sip/hybrid schemes." in
    Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"FILE" ~doc)
  in
  let action tenant_names schemes epc input mode_s policy_s priorities
      fault_plan_name jobs summaries plan_file =
    List.iter
      (fun w -> if model_of_name w = None then unknown_workload w)
      tenant_names;
    let n = List.length tenant_names in
    let scheme_strings =
      match schemes with
      | [ s ] -> List.map (fun w -> (w, s)) tenant_names
      | ss when List.length ss = n -> List.combine tenant_names ss
      | ss ->
        Printf.eprintf
          "--schemes wants 1 scheme or exactly one per tenant (%d tenants, \
           %d schemes)\n"
          n (List.length ss);
        exit 1
    in
    let priorities =
      match priorities with
      | [] -> List.map (fun _ -> 1) tenant_names
      | ps when List.length ps = n -> ps
      | ps ->
        Printf.eprintf "--priorities wants one level per tenant (%d tenants, %d levels)\n"
          n (List.length ps);
        exit 1
    in
    let modes =
      match mode_s with
      | "both" -> [ Fleet.Shared; Fleet.Partitioned ]
      | s -> (
        match Fleet.mode_of_string s with
        | Some m -> [ m ]
        | None ->
          Printf.eprintf "unknown mode %S (shared, partitioned, both)\n" s;
          exit 1)
    in
    let policy =
      match Arbiter.policy_of_string policy_s with
      | Some p -> p
      | None ->
        Printf.eprintf "unknown policy %S (%s)\n" policy_s
          (String.concat ", " (List.map Arbiter.policy_name Arbiter.policies));
        exit 1
    in
    let fault_plan =
      match Sim.Fault_plan.find fault_plan_name with
      | Some p -> p
      | None ->
        Printf.eprintf "unknown fault plan %S; known plans:\n  %s\n"
          fault_plan_name
          (String.concat "\n  " ("fault-free" :: Sim.Fault_plan.names ()));
        exit 1
    in
    let tenants =
      List.map2
        (fun w priority ->
          let model = Option.get (model_of_name w) in
          Fleet.tenant ~label:w ~scheme:Scheme.Baseline ~priority
            (model ~epc_pages:epc ~input))
        tenant_names priorities
    in
    let config =
      { Fleet.default_config with Fleet.epc_pages = epc; policy }
    in
    List.iter (fun (w, s) -> check_scheme ~workload:w s) scheme_strings;
    let plan = Option.map load_plan plan_file in
    (* SIP plan profiling happens per cell, inside the matrix worker. *)
    let scheme_for _tag label =
      parse_scheme ?plan ~epc ~workload:label (List.assoc label scheme_strings)
    in
    (* [-j] is the fleet's only pool option, so the runner picks the
       plain pool: every result is [Ok], and a failing cell raises. *)
    let cells =
      List.map Result.get_ok
        (Experiments.run_cells { Experiments.default with jobs } ~table:"fleet"
           (Fleet.matrix ~config ~fault_plan
              ~input_label:(Input.to_string input) ~scheme_for
              ~tags:[ "fleet" ] ~modes tenants))
    in
    List.iter
      (fun (c : Fleet.cell) ->
        if summaries then begin
          if List.length cells > 1 then
            Printf.printf "# mode=%s\n" (Fleet.mode_name c.Fleet.c_mode);
          List.iter print_endline (Fleet.summary_lines c.Fleet.c_outcome)
        end
        else begin
          Fleet.print_outcome c.Fleet.c_outcome;
          print_newline ()
        end)
      cells
  in
  let term =
    Term.(
      const action $ tenants_arg $ schemes_arg $ epc_arg $ input_arg
      $ mode_arg $ policy_arg $ priorities_arg $ fault_plan_arg $ jobs_arg
      $ summaries_arg $ plan_arg)
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Run several enclaves concurrently over one EPC (shared global \
          CLOCK or static partitions) and report per-tenant slowdown plus \
          the victim/aggressor interference table")
    term

(* ---------- service ---------- *)

let service_cmd =
  let module Service = Sim.Service in
  let schemes_arg =
    let doc =
      "Comma-separated preloading schemes to serve with, one warm pool \
       per scheme.  Same grammar as $(b,run --scheme)."
    in
    Arg.(
      value
      & opt (list string) [ "baseline"; "dfp-stop" ]
      & info [ "schemes" ] ~docv:"SCHEMES" ~doc)
  in
  let requests_arg =
    let doc = "Requests to dispatch (open loop)." in
    Arg.(
      value
      & opt int Service.default_config.Service.requests
      & info [ "requests" ] ~docv:"N" ~doc)
  in
  let pool_arg =
    let doc = "Warm enclave instances serving in parallel." in
    Arg.(
      value
      & opt int Service.default_config.Service.pool
      & info [ "pool" ] ~docv:"N" ~doc)
  in
  let events_arg =
    let doc = "Trace events replayed per request." in
    Arg.(
      value
      & opt int Service.default_config.Service.request_events
      & info [ "request-events" ] ~docv:"N" ~doc)
  in
  let gap_arg =
    let doc = "Mean inter-arrival gap in cycles (lower = more load)." in
    Arg.(
      value
      & opt int Service.default_config.Service.mean_gap
      & info [ "gap" ] ~docv:"CYCLES" ~doc)
  in
  let arrivals_arg =
    let doc = "Arrival process: $(b,poisson), $(b,bursty) or $(b,diurnal)." in
    Arg.(value & opt string "poisson" & info [ "arrivals" ] ~docv:"PROCESS" ~doc)
  in
  let slo_arg =
    let doc = "Latency objective in cycles; slower requests count as violations." in
    Arg.(
      value
      & opt int Service.default_config.Service.slo
      & info [ "slo" ] ~docv:"CYCLES" ~doc)
  in
  let seed_arg =
    let doc = "Arrival-generator seed; same seed = same arrivals, same table." in
    Arg.(value & opt int Service.default_config.Service.seed & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let switchless_arg =
    let doc =
      "Use switchless enclave calls: charge the mailbox notification \
       instead of EENTER+EEXIT per request."
    in
    Arg.(value & flag & info [ "switchless" ] ~doc)
  in
  let fault_plan_arg =
    let doc = "Run under a named chaos fault plan (see $(b,chaos))." in
    Arg.(value & opt string "fault-free" & info [ "fault-plan" ] ~docv:"NAME" ~doc)
  in
  let plan_arg =
    let doc = "Use a saved instrumentation plan for sip/hybrid schemes." in
    Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"FILE" ~doc)
  in
  let deadline_arg =
    let doc =
      "Per-attempt latency deadline in cycles; an attempt finishing \
       later than dispatch + $(docv) fails its round (enables \
       $(b,--request-retries))."
    in
    Arg.(value & opt (some int) None & info [ "deadline" ] ~docv:"CYCLES" ~doc)
  in
  let request_retries_arg =
    let doc =
      "Retry a deadline-blown request up to $(docv) more rounds, each on \
       a different instance with exponential backoff (requires \
       $(b,--deadline)).  Distinct from $(b,--retries), which re-runs \
       failed matrix cells."
    in
    Arg.(value & opt int 0 & info [ "request-retries" ] ~docv:"N" ~doc)
  in
  let backoff_arg =
    let doc = "Base retry backoff in cycles, doubling each round." in
    Arg.(value & opt int 0 & info [ "retry-backoff" ] ~docv:"CYCLES" ~doc)
  in
  let hedge_arg =
    let doc =
      "Hedge: duplicate an attempt onto another instance once the \
       primary has been outstanding $(docv) cycles; the first completion \
       wins and the loser is cancelled."
    in
    Arg.(value & opt (some int) None & info [ "hedge" ] ~docv:"CYCLES" ~doc)
  in
  let restart_arg =
    let doc =
      "Crash–restart policy: $(b,cold) (restart with an empty EPC) or \
       $(b,rewarm) (re-request the pages the crash wiped)."
    in
    Arg.(value & opt string "cold" & info [ "restart" ] ~docv:"POLICY" ~doc)
  in
  let action workload schemes epc input requests pool events gap arrivals_s
      slo seed switchless fault_plan_name jobs plan_file deadline
      request_retries backoff hedge restart_s breaker online timeout
      cell_retries keep_going =
    let model =
      match model_of_name workload with
      | Some m -> m
      | None -> unknown_workload workload
    in
    let arrivals =
      match Service.arrival_of_string arrivals_s with
      | Ok a -> a
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    in
    let fault_plan =
      match Sim.Fault_plan.find fault_plan_name with
      | Some p -> p
      | None ->
        Printf.eprintf "unknown fault plan %S; known plans:\n  %s\n"
          fault_plan_name
          (String.concat "\n  " ("fault-free" :: Sim.Fault_plan.names ()));
        exit 1
    in
    let restart =
      match Sim.Runner.restart_policy_of_string restart_s with
      | Ok r -> r
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    in
    let resilience =
      {
        Service.deadline;
        retries = request_retries;
        retry_backoff = backoff;
        hedge_after = hedge;
        restart;
        breaker = breaker_of breaker;
        online = online_of online;
      }
    in
    let config =
      {
        Service.default_config with
        Service.epc_pages = epc;
        pool;
        requests;
        request_events = events;
        mean_gap = gap;
        arrivals;
        seed;
        slo;
        switchless;
        resilience;
      }
    in
    let trace = model ~epc_pages:epc ~input in
    List.iter (check_scheme ~workload) schemes;
    let plan = Option.map load_plan plan_file in
    (* SIP plan profiling happens per cell, inside the matrix worker. *)
    let scheme_for tag = parse_scheme ?plan ~epc ~workload tag in
    let settings =
      {
        Experiments.default with
        jobs;
        cell_timeout = timeout;
        retries = cell_retries;
        keep_going;
      }
    in
    let results =
      try
        Experiments.run_cells settings ~table:"service"
          (Service.matrix ~config ~fault_plan
             ~input_label:(Input.to_string input) ~label:"service" ~scheme_for
             ~tags:schemes trace)
      with Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    in
    (* Keep-going granularity is the cell: the surviving schemes print,
       and a lost one still makes the exit code 1. *)
    let lost = Experiments.failures results in
    if lost <> [] && not keep_going then report_lost "service" lost;
    Service.print_cells (List.filter_map Result.to_option results);
    if lost <> [] then report_lost "service" lost
  in
  let term =
    Term.(
      const action $ workload_arg $ schemes_arg $ epc_arg $ input_arg
      $ requests_arg $ pool_arg $ events_arg $ gap_arg $ arrivals_arg
      $ slo_arg $ seed_arg $ switchless_arg $ fault_plan_arg $ jobs_arg
      $ plan_arg $ deadline_arg $ request_retries_arg $ backoff_arg
      $ hedge_arg $ restart_arg $ breaker_arg $ online_arg $ timeout_arg
      $ retries_arg $ keep_going_arg)
  in
  Cmd.v
    (Cmd.info "service"
       ~doc:
         "Serve seeded open-loop request traffic through a pool of warm \
          enclave instances and report per-scheme p50/p95/p99/p999 \
          request latency, throughput and SLO violations")
    term

(* ---------- list ---------- *)

let list_cmd =
  let action () =
    print_endline "workloads:";
    List.iter
      (fun (name, family) -> Printf.printf "  %-16s %s\n" name family)
      Experiments.workload_families;
    print_newline ();
    print_endline "experiments:";
    List.iter
      (fun (id, descr) -> Printf.printf "  %-14s %s\n" id descr)
      Experiments.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List workload models and experiments")
    Term.(const action $ const ())

let () =
  let doc =
    "Simulated reproduction of 'Regaining Lost Seconds: Efficient Page \
     Preloading for SGX Enclaves' (Middleware '20)"
  in
  let info = Cmd.info "sgx_preload" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; compare_cmd; profile_cmd; stats_cmd; record_cmd;
            replay_cmd; validate_cmd; export_cmd; experiment_cmd; chaos_cmd;
            fleet_cmd; service_cmd; list_cmd;
          ]))
