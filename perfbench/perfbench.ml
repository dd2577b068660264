(* perfbench: host time and host memory of the simulator, per workload.

   perfbench --workload NAME --seed N --seconds S --trace 0|1

   One process, no forked workers.  Set-up (trace generation, arena
   compilation, SIP profiling) is timed on its own, before the timed
   region and again between its passes; the timed region replays the
   workload's cells in closed loop, a number of passes fixed by S (about
   S seconds on the reference host).  Every run passes the
   correctness gate.  The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
   metrics are the end-to-end ones, with --trace 1 the per-layer ones of a
   traced replay of the same workload and seed.  Exit 0 only when every
   run passed the gate.  See README.md for every metric. *)

module Trace_arena = Workload.Trace_arena
module Metrics = Sgxsim.Metrics

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : Inputs.size;
  record : bool;
  commit : string;
}

let parse_args () =
  let workload = ref "" and seed = ref Inputs.default_seed and seconds = ref 30.
  and trace = ref 0 and size = ref "full" and record = ref false
  and commit = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" Inputs.workloads);
      ("--seed", Arg.Set_int seed, " Workload seed (default 1, the recorded one)");
      ("--seconds", Arg.Set_float seconds, " Sets the passes of the timed region");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics");
      ("--size", Arg.Set_string size, " full (default) | tiny (the benchmark's tests)");
      ("--record", Arg.Set record, " Print this run's digests in recorded form");
      ("--commit", Arg.Set_string commit, " Source identity reported with results");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let die msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  if not (List.mem !workload Inputs.workloads) then die ("unknown workload " ^ !workload);
  let size =
    match Inputs.size_of_string !size with
    | Some s -> s
    | None -> die ("unknown size " ^ !size)
  in
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if !seconds <= 0. then die "--seconds must be positive";
  {
    workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
    size; record = !record; commit = !commit;
  }

(* The default seed's recorded digests, relative to the checkout root. *)
let recorded_path = "perfbench/recorded.txt"

(* Set-ups an untraced run times, spread evenly over the timed region. *)
let setup_samples = 3

(* Nominal seconds one pass over a workload's cells takes on the
   reference host (a shared 2-vCPU Xeon VM), untraced and traced.  A run
   makes [ceil (seconds / pass)] passes, so the number of replays per
   cell is fixed by --seconds alone and is the same for every version of
   the code measured.  (A statistic over a time-boxed number of replays
   depends on how fast the code is: the minimum of more samples is
   lower, for one.) *)
let pass_seconds ~trace = function
  | "queue-stress" -> if trace then 3.75 else 1.9
  | "paper-mix" -> if trace then 5.0 else 2.0
  | "tenancy" -> if trace then 3.0 else 1.25
  | w -> invalid_arg ("perfbench: unknown workload " ^ w)

let passes a =
  max 1 (int_of_float (Float.ceil (a.seconds /. pass_seconds ~trace:a.trace a.workload)))

(* Where the traced run writes its span file, under the checkout. *)
let out_dir = ".bench_out"

(* ------------------------------------------------------------------ *)
(* Per-cell timing                                                    *)
(* ------------------------------------------------------------------ *)

type timing = {
  cell : Cells.cell;
  mutable times : float list;  (** Seconds per replay, untraced. *)
  mutable traced_times : float list;
  mutable words : float list;  (** Minor words per replay, untraced. *)
  mutable events : int;  (** Events one replay of the cell steps. *)
}

(* A cell's median replay.  On a shared host interference from other
   tenants comes and goes within seconds and only adds time; the median
   of a cell's replays is the figure that repeats from run to run.  (On a
   shared 2-vCPU Xeon VM the fastest replay is a rare undisturbed one,
   and moved 2-5x more than the median between runs.) *)
let median = function
  | [] -> 0.
  | xs -> Repro_util.Stats.percentile (Array.of_list xs) 50.

(* Sum over cells of each cell's median replay: the time of one typical
   pass over the workload. *)
let sum_median timings f = List.fold_left (fun acc t -> acc +. median (f t)) 0. timings

let sum_events timings = List.fold_left (fun acc t -> acc + t.events) 0 timings

(* ------------------------------------------------------------------ *)
(* Output                                                             *)
(* ------------------------------------------------------------------ *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* [{"name": {"value": v, "unit": u}, ...}] *)
let metrics_json metrics =
  let field (name, unit, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit
  in
  "{" ^ String.concat ", " (List.map field metrics) ^ "}"

let print_result ~gate metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    (gate.Gate.failed = 0) gate.Gate.attempted gate.Gate.failed (metrics_json metrics)

let print_metric (name, unit, v) = Printf.printf "  %-40s %14.6g %s\n" name v unit

let host_facts a =
  Printf.sprintf "nproc=%d ocaml=%s commit=%s os=%s"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version a.commit Sys.os_type

(* ------------------------------------------------------------------ *)
(* Main                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  let a = parse_args () in
  (* Set-up must measure generation, never an on-disk arena cache hit. *)
  Unix.putenv Trace_arena.cache_env_var "";
  if Trace_arena.cache_dir () <> None then failwith "arena cache still enabled";
  let recorded =
    if a.seed = Inputs.default_seed && not a.record then
      Some (Gate.load_recorded recorded_path)
    else None
  in
  let gate = Gate.create recorded in
  let key label = Printf.sprintf "%s/%s/%s" a.size.Inputs.size_name a.workload label in
  let check outs = List.iter (fun (label, o) -> Gate.check gate ~key:(key label) o) outs in
  Printf.printf "perfbench: workload=%s seed=%d size=%s seconds=%g trace=%d\n" a.workload
    a.seed a.size.Inputs.size_name a.seconds (if a.trace then 1 else 0);
  Printf.printf "host: %s\n%!" (host_facts a);
  let build ?hooks () =
    Trace_arena.clear_memo ();
    Gc.full_major ();
    let t0 = Hostclock.now_ns () in
    let inputs = Inputs.build ?hooks ~size:a.size ~seed:a.seed a.workload in
    (inputs, Hostclock.seconds_since t0)
  in
  let tracer = Tracer.create () in
  let hooks =
    if not a.trace then None
    else
      Some
        {
          Inputs.compile =
            (fun t ->
              Tracer.span tracer Tracer.compile ~id:(-1) (fun () -> Trace_arena.compile t));
          plan = (fun f -> Tracer.span tracer Tracer.plan ~id:(-1) f);
        }
  in
  let inputs, first_setup = build ?hooks () in
  let setups = ref [ first_setup ] in
  let timings =
    List.map
      (fun cell -> { cell; times = []; traced_times = []; words = []; events = 0 })
      (Cells.make ~size:a.size ~seed:a.seed ~traced:a.trace inputs)
  in
  (* Per-layer set-up figures outside the replays: decoding the arenas
     with an empty callback, and (tenancy) perturbing them. *)
  let decode_events = ref 0 and perturb_events = ref 0 in
  if a.trace then begin
    List.iter
      (fun trace ->
        let arena = Trace_arena.compile trace in
        let len = Trace_arena.length arena in
        for _ = 1 to 3 do
          Tracer.span tracer Tracer.decode ~id:(-1) (fun () ->
              Trace_arena.iter_range arena ~lo:0 ~hi:len
                ~f:(fun ~site:_ ~vpage:_ ~compute:_ ~thread:_ -> ()));
          decode_events := !decode_events + len
        done)
      (Cells.traces inputs);
    match inputs with
    | Inputs.Tenancy { tenant_traces; _ } ->
      let storm = Inputs.fault_plan ~seed:a.seed Sim.Fault_plan.perfect_storm in
      List.iter
        (fun (_, trace) ->
          let arena = Trace_arena.compile trace in
          Tracer.span tracer Tracer.perturb ~id:(-1) (fun () ->
              Seq.iter ignore
                (Sim.Fault_plan.perturb_trace storm
                   ~elrange_pages:trace.Workload.Trace.elrange_pages
                   (Trace_arena.to_seq arena)));
          perturb_events := !perturb_events + Trace_arena.length arena)
        tenant_traces
    | Inputs.Queue_stress _ | Inputs.Paper_mix _ -> ()
  end;
  (* The timed region: [passes a] whole passes over the cells.  An
     untraced run repeats the set-up between passes at even intervals, so
     its set-up samples are spread over the run like the replays are.  A
     set-up empties the arena memo first, so the replays after it run on
     its arenas (a rebuilt trace compiles to the same arena) and the
     previous ones are freed; its garbage is collected before the next
     pass. *)
  let counters = Metrics.create () in
  let promoted = ref 0. and majors = ref 0 in
  let rounds = passes a in
  let t_start = Hostclock.now_ns () in
  for pass = 1 to rounds do
    List.iter
      (fun t ->
        let cell = t.cell in
        let g0 = if a.trace then Some (Gc.quick_stat ()) else None in
        let w0 = Hostclock.minor_words () in
        let t0 = Hostclock.now_ns () in
        match cell.Cells.run () with
        | exception e -> Gate.crashed gate ~key:(key cell.Cells.label) e
        | outs ->
          let dt = Hostclock.seconds_since t0 in
          let dw = Hostclock.minor_words () - w0 in
          (match g0 with
          | Some g0 ->
            let g1 = Gc.quick_stat () in
            promoted := !promoted +. g1.Gc.promoted_words -. g0.Gc.promoted_words;
            majors := !majors + g1.Gc.major_collections - g0.Gc.major_collections
          | None -> ());
          t.times <- dt :: t.times;
          t.words <- float_of_int dw :: t.words;
          t.events <- List.fold_left (fun acc (_, o) -> acc + Outputs.events o) 0 outs;
          check outs;
          if a.trace && pass = 1 && cell.Cells.per_event then
            List.iter
              (fun (_, o) ->
                List.iter
                  (fun (r : Sim.Runner.result) ->
                    let m = r.Sim.Runner.metrics and c = counters in
                    c.faults <- c.faults + Metrics.total_faults m;
                    c.preloads_issued <- c.preloads_issued + m.preloads_issued;
                    c.preloads_aborted <- c.preloads_aborted + m.preloads_aborted;
                    c.preloads_completed <- c.preloads_completed + m.preloads_completed;
                    c.preload_hits <- c.preload_hits + m.preload_hits;
                    c.evictions <- c.evictions + m.evictions;
                    c.scans <- c.scans + m.scans)
                  (Outputs.results o))
              outs;
          if a.trace then begin
            let t0 = Hostclock.now_ns () in
            match cell.Cells.traced tracer with
            | exception e -> Gate.crashed gate ~key:(key cell.Cells.label) e
            | outs ->
              t.traced_times <- Hostclock.seconds_since t0 :: t.traced_times;
              check outs
          end)
      timings;
    while
      (not a.trace)
      && List.length !setups < setup_samples
      && pass * setup_samples >= List.length !setups * rounds
    do
      setups := snd (build ()) :: !setups;
      Gc.full_major ()
    done
  done;
  let elapsed = Hostclock.seconds_since t_start in
  List.iter
    (fun t ->
      Printf.printf "cell %-36s events=%-9d replays=%d median=%.4fs%s\n"
        t.cell.Cells.label t.events (List.length t.times) (median t.times)
        (if a.trace then Printf.sprintf " traced median=%.4fs" (median t.traced_times)
         else ""))
    timings;
  Printf.printf "timed region: %d passes in %.2f s; set-ups: %s s\n" rounds elapsed
    (String.concat ", " (List.rev_map (Printf.sprintf "%.3f") !setups));
  let metrics =
    if not a.trace then begin
      let events = float_of_int (sum_events timings) in
      [
        ("events_per_s", "1/s", events /. sum_median timings (fun t -> t.times));
        ("setup_s", "s", median !setups);
        ("alloc_words_per_event", "words/event",
         sum_median timings (fun t -> t.words) /. events);
        ("max_rss_mb", "MB", Hostclock.max_rss_mb ());
      ]
    end
    else begin
      let tr = tracer in
      let per_pass n = float_of_int n /. float_of_int rounds in
      let ns_per ~total ~n = if n = 0 then 0. else float_of_int total /. float_of_int n in
      let span_total name = tr.Tracer.total_ns.(name) in
      let span_s name = float_of_int (span_total name) /. 1e9 in
      let count n = float_of_int n in
      let traced = List.filter (fun t -> t.cell.Cells.per_event) timings in
      let replay_events = float_of_int (sum_events timings) in
      let c = counters in
      let common =
        [
          ("workload.trace_arena.compile_s", "s", span_s Tracer.compile);
          ("workload.trace_arena.decode_ns", "ns",
           ns_per ~total:(span_total Tracer.decode) ~n:!decode_events);
          ("preload.dfp.on_fault_ns", "ns", Tracer.mean_ns tr.Tracer.hook);
          ("preload.dfp.on_fault_calls", "count", per_pass tr.Tracer.hook.n);
          ("preload.dfp.on_fault_words", "words", Tracer.mean_words tr.Tracer.hook);
          ("sgxsim.enclave.hit_ns", "ns", Tracer.mean_ns tr.Tracer.hit);
          ("sgxsim.enclave.hit_words", "words", Tracer.mean_words tr.Tracer.hit);
          ("sgxsim.enclave.fault_self_ns", "ns", Tracer.mean_ns tr.Tracer.fault_self);
          ("sgxsim.enclave.fault_words", "words",
           Tracer.mean_words tr.Tracer.fault_self);
          ("sgxsim.enclave.scan_ns", "ns", Tracer.mean_ns tr.Tracer.scan);
          ("sgxsim.enclave.scan_calls", "count", per_pass tr.Tracer.scan.n);
          ("sgxsim.load_channel.queue_depth_mean", "count",
           ns_per ~total:tr.Tracer.queue_sum ~n:tr.Tracer.hook.n);
          ("sgxsim.load_channel.queue_depth_max", "count", count tr.Tracer.queue_max);
          ("sgxsim.faults", "count", count c.faults);
          ("sgxsim.preloads_issued", "count", count c.preloads_issued);
          ("sgxsim.preloads_aborted", "count", count c.preloads_aborted);
          ("sgxsim.preloads_completed", "count", count c.preloads_completed);
          ("sgxsim.preload_hits", "count", count c.preload_hits);
          ("sgxsim.preload_use_ratio", "ratio",
           ns_per ~total:c.preload_hits ~n:c.preloads_completed);
          ("sgxsim.evictions", "count", count c.evictions);
          ("sgxsim.scans", "count", count c.scans);
          ("sim.runner.step_p50_ns", "ns", Tracer.step_quantile tr 0.5);
          ("sim.runner.step_p999_ns", "ns", Tracer.step_quantile tr 0.999);
          ("sim.runner.step_samples", "count", count (Tracer.step_samples tr));
          ("sim.runner.instance_us", "us",
           ns_per
             ~total:(span_total Tracer.make_instance + span_total Tracer.finalize)
             ~n:tr.Tracer.count.(Tracer.make_instance)
           /. 1e3);
          ("gc.promoted_words_per_event", "words/event",
           !promoted /. (float_of_int rounds *. replay_events));
          ("gc.major_collections", "count", per_pass !majors);
          ("bench.trace_overhead", "ratio",
           sum_median traced (fun t -> t.traced_times)
           /. sum_median traced (fun t -> t.times));
        ]
      in
      (* Layers only some workloads exercise: printed, and written to the
         span file, but not part of the per-layer JSON (which every
         workload reports in full). *)
      let time_of label =
        match List.find_opt (fun t -> t.cell.Cells.label = label) timings with
        | Some t -> median t.times
        | None -> 0.
      in
      let group_ns_per pred denom =
        let ts = List.filter (fun t -> pred t.cell.Cells.group) timings in
        let d = List.fold_left (fun acc t -> acc + denom t) 0 ts in
        if d = 0 then 0. else sum_median ts (fun t -> t.times) *. 1e9 /. float_of_int d
      in
      let fleet_ns =
        group_ns_per
          (function Cells.Fleet_run { storm = false } -> true | _ -> false)
          (fun t -> t.events)
      in
      let solo_ns = group_ns_per (( = ) Cells.Tenant_solo) (fun t -> t.events) in
      let specific =
        match inputs with
        | Inputs.Queue_stress _ -> []
        | Inputs.Paper_mix _ ->
          [
            ("preload.sip.plan_s", "s", span_s Tracer.plan);
            ("preload.online.observe_ns", "ns", Tracer.span_ns tr Tracer.observe);
            ("sgxsim.enclave.sip_access_ns", "ns", Tracer.mean_ns tr.Tracer.sip);
          ]
        | Inputs.Tenancy _ ->
          [
            ("sim.fleet.ns_per_event", "ns", fleet_ns);
            ("sim.fleet.solo_ratio", "ratio",
             if solo_ns = 0. then 0. else fleet_ns /. solo_ns);
          ]
          @ List.map
              (fun pool ->
                ( Printf.sprintf "sim.service.pool%d.ns_per_request" pool,
                  "ns",
                  group_ns_per
                    (function
                      | Cells.Service_run { pool = p; flaky = false } -> p = pool
                      | _ -> false)
                    (fun t -> t.cell.Cells.requests) ))
              a.size.Inputs.pools
          @ [
              ("sim.fault_plan.perturb_ns", "ns",
               ns_per ~total:(span_total Tracer.perturb) ~n:!perturb_events);
              ("sim.fault_plan.degraded_ratio", "ratio",
               let clean = time_of "fleet/dfp-stop" in
               if clean = 0. then 0. else time_of "fleet/dfp-stop/perfect-storm" /. clean);
            ]
      in
      let absent =
        let all =
          [
            ("preload.sip.plan_s", "only paper-mix builds SIP plans");
            ("preload.online.observe_ns", "only paper-mix has online cells");
            ("sgxsim.enclave.sip_access_ns", "only paper-mix has SIP cells");
            ("sim.fleet.ns_per_event", "only tenancy runs Fleet.run");
            ("sim.fleet.solo_ratio", "only tenancy runs Fleet.run");
            ("sim.fault_plan.perturb_ns", "only tenancy runs a fault plan");
            ("sim.fault_plan.degraded_ratio", "only tenancy runs a fault plan");
          ]
          @ List.map
              (fun p ->
                ( Printf.sprintf "sim.service.pool%d.ns_per_request" p,
                  "only tenancy runs Service.run" ))
              a.size.Inputs.pools
        in
        List.filter
          (fun (n, _) -> not (List.exists (fun (m, _, _) -> m = n) specific))
          all
      in
      Printf.printf "workload-specific layers:\n";
      List.iter print_metric specific;
      List.iter (fun (n, why) -> Printf.printf "  %-40s absent: %s\n" n why) absent;
      (* The span file: aggregates plus a bounded sample of the spans. *)
      (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path =
        Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" a.workload a.seed)
      in
      let header =
        Printf.sprintf
          "\"workload\": %S, \"seed\": %d, \"size\": %S, \"host\": %S,\n \"metrics\": %s"
          a.workload a.seed a.size.Inputs.size_name (host_facts a)
          (metrics_json (common @ specific))
      in
      Tracer.write tr ~path ~header;
      Printf.printf "spans: %s\n" path;
      common
    end
  in
  Printf.printf "metrics:\n";
  List.iter print_metric metrics;
  if a.record then List.iter print_endline (Gate.recorded_lines gate);
  List.iteri
    (fun i p -> if i < 10 then Printf.printf "FAILED %s\n" p)
    (List.rev gate.Gate.problems);
  Printf.printf "runs = %d, runs_failed = %d\n" gate.Gate.attempted gate.Gate.failed;
  print_result ~gate metrics;
  exit (if gate.Gate.failed = 0 then 0 else 1)
