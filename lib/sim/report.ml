module Table = Repro_util.Table
module Metrics = Sgxsim.Metrics

let summary (r : Runner.result) =
  let m = r.metrics in
  Printf.sprintf
    "%s/%s: %s cycles, %s faults (%s in-flight, %s resolved-by-preload), %s \
     preloads (%s used, %s aborted)"
    r.workload r.scheme (Table.cell_int r.cycles)
    (Table.cell_int (Metrics.total_faults m))
    (Table.cell_int m.faults_in_flight)
    (Table.cell_int m.faults_already_present)
    (Table.cell_int m.preloads_completed)
    (Table.cell_int m.preload_hits)
    (Table.cell_int m.preloads_aborted)

let breakdown_table (r : Runner.result) =
  let m = r.metrics in
  let t =
    Table.create
      ~headers:[ ("category", Table.Left); ("cycles", Table.Right); ("share", Table.Right) ]
  in
  (* A zero-cycle run has no meaningful shares; say so rather than
     masking the division with a fake 1-cycle total (which silently
     rendered every share as 0.0%). *)
  let row name cycles =
    let share =
      if r.cycles = 0 then "n/a"
      else Table.cell_pct (float_of_int cycles /. float_of_int r.cycles)
    in
    Table.add_row t [ name; Table.cell_int cycles; share ]
  in
  row "compute" m.cyc_compute;
  row "in-EPC access" m.cyc_access;
  row "AEX" m.cyc_aex;
  row "ERESUME" m.cyc_eresume;
  row "OS handler" m.cyc_os_handler;
  row "load wait (demand)" m.cyc_load_wait;
  row "bitmap checks" m.cyc_bitmap_check;
  row "notifications" m.cyc_notify;
  row "SIP load wait" m.cyc_sip_wait;
  row "restart downtime" m.cyc_restart;
  Table.add_separator t;
  row "total" r.cycles;
  t

let diagnostics_table (r : Runner.result) =
  let d = r.Runner.diagnostics in
  let t =
    Table.create ~headers:[ ("diagnostic", Table.Left); ("value", Table.Right) ]
  in
  let row name v = Table.add_row t [ name; v ] in
  row "pending preloads" (Table.cell_int d.Runner.pending_preloads);
  row "in-flight preloads" (Table.cell_int d.Runner.in_flight_preloads);
  row "in-flight kind"
    (match d.Runner.in_flight_kind with
    | None -> "-"
    | Some Sgxsim.Load_channel.Demand -> "demand"
    | Some Sgxsim.Load_channel.Preload_dfp -> "dfp"
    | Some Sgxsim.Load_channel.Preload_sip -> "sip");
  row "resident pages" (Table.cell_int d.Runner.resident_at_end);
  row "EPC capacity" (Table.cell_int r.Runner.epc_capacity);
  row "events truncated" (if d.Runner.events_truncated then "yes" else "no");
  row "crashes" (Table.cell_int r.Runner.metrics.Metrics.crashes);
  row "restarts" (Table.cell_int d.Runner.restarts);
  row "crash pages lost"
    (Table.cell_int r.Runner.metrics.Metrics.crash_pages_lost);
  (match d.Runner.breaker_state with
  | None -> ()
  | Some s ->
    row "breaker state" (Preload.Breaker.state_name s);
    row "breaker trips" (Table.cell_int d.Runner.breaker_trips);
    row "breaker rejections"
      (Table.cell_int r.Runner.metrics.Metrics.preloads_rejected_breaker));
  (match d.Runner.online with
  | None -> ()
  | Some s ->
    let module Online = Preload.Online in
    row "online mode" (Online.mode_name s.Online.final_mode);
    row "online mode switches"
      (Table.cell_int (List.length s.Online.s_transitions));
    row "online phase shifts" (Table.cell_int s.Online.s_phase_shifts);
    row "online sites instrumented" (Table.cell_int s.Online.s_instrumented);
    row "online label flips"
      (Table.cell_int (List.length s.Online.s_label_changes)));
  t

let fault_latency_table (r : Runner.result) =
  let t =
    Table.create
      ~headers:
        [
          ("resolution", Table.Left); ("faults", Table.Right);
          ("mean cyc", Table.Right); ("overflow", Table.Right);
          ("max cyc", Table.Right); ("latency histogram", Table.Left);
        ]
  in
  List.iter
    (fun (kind, hist) ->
      let n = Repro_util.Histogram.count hist in
      Table.add_row t
        [
          Runner.resolution_name kind;
          Table.cell_int n;
          (if n = 0 then "-"
           else Table.cell_int (int_of_float (Repro_util.Histogram.mean hist)));
          (* Latencies past the histogram's range land in the explicit
             overflow bucket; the exact maximum shows how far past. *)
          Table.cell_int (Repro_util.Histogram.overflow hist);
          (if n = 0 then "-"
           else
             Table.cell_int
               (int_of_float (Repro_util.Histogram.max_observed hist)));
          Format.asprintf "%a" Repro_util.Histogram.pp hist;
        ])
    r.fault_latency;
  t

let geomean_normalized pairs =
  match pairs with
  | [] -> invalid_arg "Report.geomean_normalized: no runs"
  | _ ->
    Repro_util.Stats.geometric_mean
      (List.map (fun (b, r) -> Runner.normalized_time ~baseline:b r) pairs)

let ascii_scatter ~width ~height points ~max_x ~max_y =
  if width <= 0 || height <= 0 then invalid_arg "Report.ascii_scatter: bad size";
  let grid = Array.make_matrix height width ' ' in
  List.iter
    (fun (x, y) ->
      if x >= 0 && x <= max_x && y >= 0 && y <= max_y then begin
        let cx = x * (width - 1) / max 1 max_x in
        let cy = y * (height - 1) / max 1 max_y in
        (* Row 0 renders at the top; flip so y grows upward. *)
        grid.(height - 1 - cy).(cx) <- '*'
      end)
    points;
  let buf = Buffer.create (height * (width + 4)) in
  Array.iter
    (fun row ->
      Buffer.add_char buf '|';
      Buffer.add_string buf (String.init width (Array.get row));
      Buffer.add_char buf '\n')
    grid;
  Buffer.add_char buf '+';
  Buffer.add_string buf (String.make width '-');
  Buffer.add_char buf '\n';
  Buffer.contents buf

let fault_reduction ~baseline r =
  let bf = Metrics.total_faults baseline.Runner.metrics in
  if bf = 0 then None
  else
    Some
      (1.0
      -. float_of_int (Metrics.total_faults r.Runner.metrics)
         /. float_of_int bf)

(* ------------------------------------------------------------------ *)
(* Graceful degradation under fault plans                              *)
(* ------------------------------------------------------------------ *)

type degradation = {
  overhead : float;
  fault_increase : float option;
  preload_abort_rate : float option;
  mispreload_rate : float option;
}

(* [None] on a zero denominator: "0 aborted of 0 issued" is not a 0%
   abort rate, it is an undefined one, and conflating the two hid
   preloader-never-ran cells behind a clean-looking 0.0%. *)
let ratio num den =
  if den = 0 then None else Some (float_of_int num /. float_of_int den)

let degradation ~fault_free (r : Runner.result) =
  if fault_free.Runner.cycles = 0 then
    invalid_arg "Report.degradation: empty fault-free baseline";
  let m = r.Runner.metrics in
  {
    overhead =
      (float_of_int r.Runner.cycles /. float_of_int fault_free.Runner.cycles)
      -. 1.0;
    fault_increase =
      Option.map
        (fun x -> x -. 1.0)
        (ratio (Metrics.total_faults m)
           (Metrics.total_faults fault_free.Runner.metrics));
    preload_abort_rate = ratio m.preloads_aborted m.preloads_issued;
    mispreload_rate = ratio m.preload_evicted_unused m.preloads_completed;
  }
