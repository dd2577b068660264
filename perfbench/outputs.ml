(* What one simulation run produces, and the two checks the correctness
   gate applies to it: the library's own invariant battery, and a digest
   of its simulated outputs (cycles, counters, latency histograms,
   service percentiles, fleet interference).  The simulator is
   deterministic, so a performance change must leave every digest
   unchanged. *)

module Runner = Sim.Runner
module Fleet = Sim.Fleet
module Service = Sim.Service
module Metrics = Sgxsim.Metrics
module Histogram = Repro_util.Histogram

type t =
  | Run of Runner.result
  | Fleet of Fleet.outcome
  | Service of Service.outcome

(* The simulated fields, listed explicitly: a field added to the library
   later must not change a recorded digest by itself. *)
let metric_values (m : Metrics.t) =
  [
    m.cyc_compute; m.cyc_access; m.cyc_aex; m.cyc_eresume; m.cyc_os_handler;
    m.cyc_load_wait; m.cyc_bitmap_check; m.cyc_notify; m.cyc_sip_wait;
    m.cyc_restart; m.accesses; m.faults; m.faults_in_flight;
    m.faults_already_present; m.preloads_requested; m.preloads_rejected_range;
    m.preloads_rejected_dup; m.preloads_rejected_breaker; m.preloads_issued;
    m.preloads_completed; m.preloads_aborted; m.preloads_taken_over;
    m.preloads_skipped; m.preload_hits; m.preload_evicted_unused; m.evictions;
    m.sip_checks; m.sip_notifies; m.scans; m.crashes; m.crash_pages_lost;
  ]

let ints xs = String.concat "," (List.map string_of_int xs)

(* Floats as hex literals: exact, so two runs agree only bit for bit. *)
let hist h =
  Printf.sprintf "%d:%d:%d:%d:%h:%h:%h:%h" (Histogram.count h)
    (Histogram.nan_count h) (Histogram.underflow h) (Histogram.overflow h)
    (Histogram.mean h) (Histogram.min_observed h) (Histogram.max_observed h)
    (Histogram.quantile h 0.99)

let run_text (r : Runner.result) =
  let d = r.Runner.diagnostics in
  let online =
    match d.Runner.online with
    | None -> "-"
    | Some s ->
      Printf.sprintf "%s/%d/%d/%d/%d/%d"
        (Preload.Online.mode_name s.Preload.Online.final_mode)
        (List.length s.Preload.Online.s_transitions)
        (List.length s.Preload.Online.s_label_changes)
        s.Preload.Online.s_observed s.Preload.Online.s_instrumented
        s.Preload.Online.s_phase_shifts
  in
  String.concat ";"
    [
      r.Runner.workload; r.Runner.scheme; r.Runner.fault_plan;
      ints [ r.Runner.cycles; r.Runner.final_now; r.Runner.epc_capacity;
             r.Runner.instrumentation_points ];
      string_of_bool r.Runner.dfp_stopped;
      ints (metric_values r.Runner.metrics);
      ints [ d.Runner.pending_preloads; d.Runner.in_flight_preloads;
             d.Runner.resident_at_end; d.Runner.restarts; d.Runner.breaker_trips ];
      String.concat "," (List.map (fun (_, h) -> hist h) r.Runner.fault_latency);
      online;
    ]

let matrix m =
  String.concat "|" (Array.to_list (Array.map (fun row -> ints (Array.to_list row)) m))

let text = function
  | Run r -> run_text r
  | Fleet o ->
    String.concat "\n"
      (ints (Array.to_list o.Fleet.triggered)
       :: ints (Array.to_list o.Fleet.channel_waits)
       :: string_of_int o.Fleet.channel_contentions
       :: matrix o.Fleet.interference
       :: List.map run_text o.Fleet.results)
  | Service o ->
    let q p = Printf.sprintf "%h" (Service.quantile o p) in
    String.concat "\n"
      (ints
         [ o.Service.dispatched; o.Service.completed; o.Service.failed;
           o.Service.in_flight; o.Service.attempts; o.Service.crashes;
           o.Service.restarts; o.Service.crash_pages_lost;
           o.Service.slo_violations; o.Service.makespan ]
       :: String.concat "," (List.map q [ 0.5; 0.95; 0.99; 0.999 ])
       :: String.concat ","
            (Array.to_list (Array.map (Printf.sprintf "%h") o.Service.latencies))
       :: List.map run_text o.Service.results)

let digest o = Digest.to_hex (Digest.string (text o))

let violations = function
  | Run r -> Sim.Validate.check r
  | Fleet o -> Fleet.check o
  | Service o -> Service.check o

let results = function
  | Run r -> [ r ]
  | Fleet o -> o.Fleet.results
  | Service o -> o.Service.results

(* Trace events replayed: one simulated access per step, over every
   simulated instance of the run. *)
let events o =
  List.fold_left
    (fun acc (r : Runner.result) -> acc + r.Runner.metrics.Metrics.accesses)
    0 (results o)
