module Event = Sgxsim.Event
module Metrics = Sgxsim.Metrics
module Cost_model = Sgxsim.Cost_model
module Load_channel = Sgxsim.Load_channel
module Histogram = Repro_util.Histogram

type violation = { check : string; detail : string }

let v check fmt = Printf.ksprintf (fun detail -> { check; detail }) fmt

let report violations =
  String.concat "\n"
    (List.map (fun x -> Printf.sprintf "[%s] %s" x.check x.detail) violations)

(* ------------------------------------------------------------------ *)
(* Event-log invariants                                                *)
(* ------------------------------------------------------------------ *)

(* The log presents one global chronological sequence; per-track
   discipline (channel, fault spans, SIP spans) is checked by walking it
   with a small state machine per track. *)

let check_monotone events =
  let rec walk acc = function
    | a :: (b :: _ as rest) ->
      let acc =
        if Event.at a > Event.at b then
          v "monotone-timestamps" "event at t=%d precedes event at t=%d"
            (Event.at a) (Event.at b)
          :: acc
        else acc
      in
      walk acc rest
    | _ -> List.rev acc
  in
  walk [] events

(* The load channel is exclusive and non-preemptible: Load_start and
   Load_done must alternate, agree on page and kind, and a done can never
   precede its start. *)
let check_channel events =
  let violations = ref [] in
  let add x = violations := x :: !violations in
  let in_flight = ref None in
  List.iter
    (fun e ->
      match e with
      | Event.Load_start { at; vpage; kind } -> (
        match !in_flight with
        | Some (v0, _, at0) ->
          add
            (v "channel-exclusive"
               "load of p%d started at t=%d while p%d (started t=%d) had no \
                load-done"
               vpage at v0 at0)
        | None -> in_flight := Some (vpage, kind, at))
      | Event.Load_done { at; vpage; kind } -> (
        match !in_flight with
        | None ->
          add (v "channel-exclusive" "load-done of p%d at t=%d without a load-start" vpage at)
        | Some (v0, k0, at0) ->
          if v0 <> vpage || k0 <> kind then
            add
              (v "channel-exclusive"
                 "load-done of p%d at t=%d does not match in-flight p%d" vpage
                 at v0)
          else if at < at0 then
            add
              (v "channel-exclusive" "load of p%d completed at t=%d before it started at t=%d"
                 vpage at at0);
          in_flight := None)
      (* A crash cancels the in-flight load: its Load_done never arrives,
         and the next Load_start is legal.  The only place a start may go
         unmatched mid-log. *)
      | Event.Crash _ -> in_flight := None
      | _ -> ())
    events;
  (* A load still in flight when the log ends is legal (the run stopped
     mid-span); only ordering violations count. *)
  List.rev !violations

(* Faults are serviced synchronously in a single-threaded replay, so the
   Fault / Aex_done / Eresume triple of one fault never interleaves with
   another's.  AEX has a fixed architectural cost, so Aex_done is exactly
   t_aex after the fault trapped. *)
let check_fault_spans ~costs events =
  let violations = ref [] in
  let add x = violations := x :: !violations in
  let state = ref `Idle in
  List.iter
    (fun e ->
      match (e, !state) with
      | Event.Fault { at; vpage }, `Idle -> state := `Faulted (vpage, at)
      | Event.Fault { at; vpage }, (`Faulted (v0, _) | `Handled (v0, _)) ->
        add (v "fault-span" "fault on p%d at t=%d inside the span of p%d's fault" vpage at v0);
        state := `Faulted (vpage, at)
      | Event.Aex_done { at; vpage }, `Faulted (v0, at0) ->
        if vpage <> v0 then
          add (v "fault-span" "aex-done for p%d at t=%d but p%d faulted" vpage at v0);
        if at <> at0 + costs.Cost_model.t_aex then
          add
            (v "fault-span"
               "aex-done for p%d at t=%d, expected fault time %d + t_aex %d"
               vpage at at0 costs.Cost_model.t_aex);
        state := `Handled (v0, at0)
      | Event.Aex_done { at; vpage }, _ ->
        add (v "fault-span" "aex-done for p%d at t=%d without a pending fault" vpage at)
      | Event.Eresume { at; vpage }, `Handled (v0, at0) ->
        if vpage <> v0 then
          add (v "fault-span" "eresume for p%d at t=%d but p%d faulted" vpage at v0);
        if at < at0 then
          add (v "fault-span" "eresume for p%d at t=%d before its fault at t=%d" vpage at at0);
        state := `Idle
      | Event.Eresume { at; vpage }, _ ->
        add (v "fault-span" "eresume for p%d at t=%d without a handled fault" vpage at)
      | _ -> ())
    events;
  (match !state with
  | `Idle -> ()
  | `Faulted (v0, at0) | `Handled (v0, at0) ->
    add (v "fault-span" "fault on p%d at t=%d has no eresume" v0 at0));
  List.rev !violations

(* A SIP notification is stamped when the kernel thread receives it —
   exactly t_notify after the absent bitmap check that triggered it.
   (This is the invariant the pre-fix [Sip_notify] stamp violated: it
   carried the check time instead.) *)
let check_sip_spans ~costs events =
  let violations = ref [] in
  let add x = violations := x :: !violations in
  let pending : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e with
      | Event.Sip_check { at; vpage; present } ->
        if present then Hashtbl.remove pending vpage
        else Hashtbl.replace pending vpage at
      | Event.Sip_notify { at; vpage } -> (
        match Hashtbl.find_opt pending vpage with
        | None ->
          add
            (v "sip-notify-span"
               "sip-notify for p%d at t=%d without a preceding absent check"
               vpage at)
        | Some checked_at ->
          if at <> checked_at + costs.Cost_model.t_notify then
            add
              (v "sip-notify-span"
                 "sip-notify for p%d stamped t=%d; the notify span of the \
                  check at t=%d ends at t=%d"
                 vpage at checked_at
                 (checked_at + costs.Cost_model.t_notify));
          Hashtbl.remove pending vpage)
      | _ -> ())
    events;
  List.rev !violations

let check_events ~costs events =
  check_monotone events
  @ check_channel events
  @ check_fault_spans ~costs events
  @ check_sip_spans ~costs events

(* ------------------------------------------------------------------ *)
(* Whole-run invariants                                                *)
(* ------------------------------------------------------------------ *)

let count pred events = List.length (List.filter pred events)

let check_accounting (r : Runner.result) =
  let m = r.metrics in
  let d = r.diagnostics in
  let sum_categories =
    m.cyc_compute + m.cyc_access + m.cyc_aex + m.cyc_eresume + m.cyc_os_handler
    + m.cyc_load_wait + m.cyc_bitmap_check + m.cyc_notify + m.cyc_sip_wait
    + m.cyc_restart
  in
  let violations = ref [] in
  let add x = violations := x :: !violations in
  if Metrics.total_cycles m <> sum_categories then
    add
      (v "cycle-identity" "total_cycles %d <> sum of the ten categories %d"
         (Metrics.total_cycles m) sum_categories);
  if r.final_now <> Metrics.total_cycles m then
    add
      (v "cycle-identity" "final simulated now %d <> total accounted cycles %d"
         r.final_now (Metrics.total_cycles m));
  if r.cycles <> Metrics.total_cycles m then
    add (v "cycle-identity" "result.cycles %d <> total_cycles %d" r.cycles
           (Metrics.total_cycles m));
  if
    Metrics.total_faults m
    <> m.faults + m.faults_in_flight + m.faults_already_present
  then
    add
      (v "counter-identity"
         "total_faults %d <> demand %d + in-flight %d + already-present %d"
         (Metrics.total_faults m) m.faults m.faults_in_flight
         m.faults_already_present);
  (* Every preload request is either rejected (out of ELRANGE, refused by
     an Open circuit breaker, or a duplicate of a
     present/in-flight/queued page) or issued... *)
  if
    m.preloads_requested
    <> m.preloads_issued + m.preloads_rejected_range
       + m.preloads_rejected_breaker + m.preloads_rejected_dup
  then
    add
      (v "preload-identity"
         "requested %d <> issued %d + rejected-range %d + rejected-breaker %d \
          + rejected-dup %d"
         m.preloads_requested m.preloads_issued m.preloads_rejected_range
         m.preloads_rejected_breaker m.preloads_rejected_dup);
  (* ...and every issued preload ends in exactly one disposition.  Only
     a DFP-kind load closes this identity: [preloads_issued] counts the
     speculative queue, which SIP's synchronous loads never enter. *)
  let in_flight_dfp =
    match d.Runner.in_flight_kind with
    | Some Load_channel.Preload_dfp -> 1
    | Some (Load_channel.Preload_sip | Load_channel.Demand) | None -> 0
  in
  let accounted =
    m.preloads_completed + m.preloads_aborted + m.preloads_taken_over
    + m.preloads_skipped + d.Runner.pending_preloads + in_flight_dfp
  in
  if m.preloads_issued <> accounted then
    add
      (v "preload-identity"
         "issued %d <> completed %d + aborted %d + taken-over %d + skipped %d \
          + queued %d + in-flight %d"
         m.preloads_issued m.preloads_completed m.preloads_aborted
         m.preloads_taken_over m.preloads_skipped d.Runner.pending_preloads
         in_flight_dfp);
  (* [in_flight_preloads] is the kind-resolved view of the same channel:
     either speculative kind counts, a demand load does not.  (The old
     runner counted only [Preload_dfp], silently dropping an in-flight
     SIP preload from the report.) *)
  let in_flight_expected =
    match d.Runner.in_flight_kind with
    | Some (Load_channel.Preload_dfp | Load_channel.Preload_sip) -> 1
    | Some Load_channel.Demand | None -> 0
  in
  if d.Runner.in_flight_preloads <> in_flight_expected then
    add
      (v "preload-identity"
         "in_flight_preloads %d disagrees with the channel (kind %s expects %d)"
         d.Runner.in_flight_preloads
         (match d.Runner.in_flight_kind with
         | None -> "none"
         | Some Load_channel.Demand -> "demand"
         | Some Load_channel.Preload_dfp -> "preload-dfp"
         | Some Load_channel.Preload_sip -> "preload-sip")
         in_flight_expected);
  if m.accesses < Metrics.total_faults m then
    add
      (v "counter-identity" "accesses %d < total faults %d" m.accesses
         (Metrics.total_faults m));
  List.rev !violations

(* The latency histograms auto-expand, so every observation must land in
   a real bucket: a non-empty overflow bucket means a fixed bound crept
   back in and the reported mean is biased low. *)
let check_fault_latency (r : Runner.result) =
  List.filter_map
    (fun (kind, hist) ->
      let o = Repro_util.Histogram.overflow hist in
      if o = 0 then None
      else
        Some
          (v "fault-latency-overflow"
             "%s histogram overflowed %d observation(s) (max seen %.0f): the \
              range must expand to cover the tail"
             (Runner.resolution_name kind)
             o
             (Repro_util.Histogram.max_observed hist)))
    r.fault_latency

(* Page conservation: pages cannot be minted or leaked, whatever a fault
   plan does to budgets and latencies.  Residency never exceeds the EPC,
   and (given a complete log) every resident page is the net of loads
   completed minus evictions. *)
let check_conservation (r : Runner.result) =
  let d = r.diagnostics in
  let violations = ref [] in
  let add x = violations := x :: !violations in
  if d.Runner.resident_at_end < 0 then
    add
      (v "page-conservation" "resident_at_end %d is negative"
         d.Runner.resident_at_end);
  if d.Runner.resident_at_end > r.epc_capacity then
    add
      (v "page-conservation" "resident_at_end %d exceeds EPC capacity %d"
         d.Runner.resident_at_end r.epc_capacity);
  if r.events <> [] && not d.Runner.events_truncated then begin
    let dones = count (function Event.Load_done _ -> true | _ -> false) r.events in
    let evicts = count (function Event.Evict _ -> true | _ -> false) r.events in
    (* Crash losses drop residency without Evict events: the dead
       enclave's pages simply vanish (no write-back), counted per crash
       in the log and in [crash_pages_lost]. *)
    let crash_losses =
      List.fold_left
        (fun acc e ->
          match e with
          | Event.Crash { pages_lost; _ } -> acc + pages_lost
          | _ -> acc)
        0 r.events
    in
    if dones - evicts - crash_losses <> d.Runner.resident_at_end then
      add
        (v "page-conservation"
           "load-dones %d - evictions %d - crash losses %d = %d, but %d pages \
            are resident"
           dones evicts crash_losses
           (dones - evicts - crash_losses)
           d.Runner.resident_at_end)
  end;
  List.rev !violations

(* Cycle categories and event counters are sums of non-negative charges;
   a negative value means an accounting path went backwards (e.g. a
   perturbed load duration shorter than the span already charged). *)
let check_non_negative (r : Runner.result) =
  let counters =
    List.map (fun (name, f) -> (name, f r.metrics)) Metrics.fields
    @ [
        ("cycles", r.cycles); ("final_now", r.final_now);
        ("pending_preloads", r.diagnostics.Runner.pending_preloads);
        ("in_flight_preloads", r.diagnostics.Runner.in_flight_preloads);
        ("restarts", r.diagnostics.Runner.restarts);
        ("breaker_trips", r.diagnostics.Runner.breaker_trips);
      ]
  in
  List.filter_map
    (fun (name, value) ->
      if value < 0 then Some (v "non-negative" "%s is %d" name value) else None)
    counters

let check_event_counters (r : Runner.result) =
  let m = r.metrics in
  let violations = ref [] in
  let add x = violations := x :: !violations in
  let expect name expected actual =
    if expected <> actual then
      add (v "event-counter" "%s: metrics say %d, log has %d" name expected actual)
  in
  let events = r.events in
  expect "faults" (Metrics.total_faults m)
    (count (function Event.Fault _ -> true | _ -> false) events);
  expect "eresumes" (Metrics.total_faults m)
    (count (function Event.Eresume _ -> true | _ -> false) events);
  expect "preloads issued" m.preloads_issued
    (count (function Event.Preload_queued _ -> true | _ -> false) events);
  expect "preloads aborted" m.preloads_aborted
    (List.fold_left
       (fun acc e ->
         match e with Event.Preload_aborted { count; _ } -> acc + count | _ -> acc)
       0 events);
  expect "sip checks" m.sip_checks
    (count (function Event.Sip_check _ -> true | _ -> false) events);
  expect "sip notifies" m.sip_notifies
    (count (function Event.Sip_notify _ -> true | _ -> false) events);
  expect "evictions" m.evictions
    (count (function Event.Evict _ -> true | _ -> false) events);
  expect "scans" m.scans
    (count (function Event.Scan _ -> true | _ -> false) events);
  expect "crashes" m.crashes
    (count (function Event.Crash _ -> true | _ -> false) events);
  expect "crash pages lost" m.crash_pages_lost
    (List.fold_left
       (fun acc e ->
         match e with Event.Crash { pages_lost; _ } -> acc + pages_lost | _ -> acc)
       0 events);
  let starts = count (function Event.Load_start _ -> true | _ -> false) events in
  let dones = count (function Event.Load_done _ -> true | _ -> false) events in
  (* Each crash may cancel one in-flight load (a start whose done never
     arrives), plus at most one span legitimately open at end of log. *)
  if starts - dones < 0 || starts - dones > m.crashes + 1 then
    add
      (v "event-counter"
         "load-starts %d vs load-dones %d: at most one span open plus one \
          cancelled per crash (%d crashes)"
         starts dones m.crashes);
  List.rev !violations

(* Online-controller invariants: label conservation (every observed
   access carries exactly one lifetime class label), transition-log
   legality against the mode machine, and decision alignment — with a
   complete event log, every mode switch and label flip must sit on a
   service-scan timestamp, the only place the controller is allowed to
   act. *)
let check_online (r : Runner.result) =
  match r.diagnostics.Runner.online with
  | None -> []
  | Some s ->
    let module Online = Preload.Online in
    let violations = ref [] in
    let add x = violations := x :: !violations in
    if s.Online.s_observed <> r.metrics.Metrics.accesses then
      add
        (v "online-conservation"
           "controller observed %d access(es), metrics counted %d"
           s.Online.s_observed r.metrics.Metrics.accesses);
    let labelled =
      List.fold_left
        (fun acc (_, (c1, c2, c3)) -> acc + c1 + c2 + c3)
        0 s.Online.per_site
    in
    if labelled <> s.Online.s_observed then
      add
        (v "online-conservation"
           "per-site lifetime labels sum to %d, controller observed %d"
           labelled s.Online.s_observed);
    (match
       Online.check_transitions ?pin:s.Online.s_config.Online.pin
         s.Online.s_transitions
     with
    | None -> ()
    | Some reason -> add (v "online-legal" "%s" reason));
    let initial =
      Option.value s.Online.s_config.Online.pin ~default:Online.Baseline
    in
    let expected_final =
      List.fold_left
        (fun _ (x : Online.transition) -> x.Online.to_mode)
        initial s.Online.s_transitions
    in
    if s.Online.final_mode <> expected_final then
      add
        (v "online-legal" "final mode %s but transition log ends %s"
           (Online.mode_name s.Online.final_mode)
           (Online.mode_name expected_final));
    if r.events <> [] && not r.diagnostics.Runner.events_truncated then begin
      let scan_times = Hashtbl.create 64 in
      List.iter
        (fun e ->
          match e with
          | Event.Scan _ -> Hashtbl.replace scan_times (Event.at e) ()
          | _ -> ())
        r.events;
      let at_scan t = Hashtbl.mem scan_times t in
      List.iter
        (fun (x : Online.transition) ->
          if not (at_scan x.Online.at) then
            add
              (v "online-scan-aligned"
                 "mode switch %s -> %s at t=%d is not a scan timestamp"
                 (Online.mode_name x.Online.from_mode)
                 (Online.mode_name x.Online.to_mode)
                 x.Online.at))
        s.Online.s_transitions;
      List.iter
        (fun (x : Online.label_change) ->
          if not (at_scan x.Online.lc_at) then
            add
              (v "online-scan-aligned"
                 "label flip of site %d at t=%d is not a scan timestamp"
                 x.Online.lc_site x.Online.lc_at))
        s.Online.s_label_changes
    end;
    List.rev !violations

(* The oracle identity: a controller pinned to a static scheme's mode
   must reproduce that scheme's run field for field.  The only legal
   differences are the "+online" scheme label and the controller summary
   in the diagnostics; everything measurable — cycles, every metric
   counter, the event log, the end-of-run channel state — must agree. *)
let check_online_oracle ~(pinned : Runner.result) ~(static : Runner.result) =
  let violations = ref [] in
  let add x = violations := x :: !violations in
  let expect_int name a b =
    if a <> b then add (v "online-oracle" "%s: pinned %d <> static %d" name a b)
  in
  let expect_str name a b =
    if a <> b then
      add (v "online-oracle" "%s: pinned %S <> static %S" name a b)
  in
  expect_str "workload" pinned.Runner.workload static.Runner.workload;
  expect_str "input" pinned.Runner.input static.Runner.input;
  expect_str "fault_plan" pinned.Runner.fault_plan static.Runner.fault_plan;
  expect_int "cycles" pinned.Runner.cycles static.Runner.cycles;
  expect_int "final_now" pinned.Runner.final_now static.Runner.final_now;
  expect_int "epc_capacity" pinned.Runner.epc_capacity
    static.Runner.epc_capacity;
  expect_int "instrumentation_points" pinned.Runner.instrumentation_points
    static.Runner.instrumentation_points;
  if pinned.Runner.dfp_stopped <> static.Runner.dfp_stopped then
    add
      (v "online-oracle" "dfp_stopped: pinned %b <> static %b"
         pinned.Runner.dfp_stopped static.Runner.dfp_stopped);
  if pinned.Runner.metrics <> static.Runner.metrics then
    add (v "online-oracle" "metric counters diverge");
  if pinned.Runner.events <> static.Runner.events then
    add
      (v "online-oracle" "event logs diverge (%d vs %d events)"
         (List.length pinned.Runner.events)
         (List.length static.Runner.events));
  if pinned.Runner.fault_latency <> static.Runner.fault_latency then
    add (v "online-oracle" "fault-latency histograms diverge");
  let dp = pinned.Runner.diagnostics and ds = static.Runner.diagnostics in
  expect_int "pending_preloads" dp.Runner.pending_preloads
    ds.Runner.pending_preloads;
  expect_int "in_flight_preloads" dp.Runner.in_flight_preloads
    ds.Runner.in_flight_preloads;
  expect_int "resident_at_end" dp.Runner.resident_at_end
    ds.Runner.resident_at_end;
  expect_int "restarts" dp.Runner.restarts ds.Runner.restarts;
  expect_int "breaker_trips" dp.Runner.breaker_trips ds.Runner.breaker_trips;
  if dp.Runner.in_flight_kind <> ds.Runner.in_flight_kind then
    add (v "online-oracle" "in-flight load kind diverges");
  if dp.Runner.events_truncated <> ds.Runner.events_truncated then
    add (v "online-oracle" "events_truncated diverges");
  List.rev !violations

let check (r : Runner.result) =
  check_accounting r
  @ check_non_negative r
  @ check_conservation r
  @ check_fault_latency r
  @ check_online r
  @
  (* Event-derived checks need the whole history: skip them when logging
     was off or the ring dropped its oldest events. *)
  if r.events = [] || r.diagnostics.Runner.events_truncated then []
  else check_event_counters r @ check_events ~costs:r.costs r.events

(* Fleet invariants take unpacked arrays rather than a [Fleet] record so
   [Fleet] can depend on this module (and not the other way round). *)
let check_fleet ~epc_pages ~shared ~interference ~triggered results =
  let n = List.length results in
  let violations = ref [] in
  let add x = violations := x :: !violations in
  if
    Array.length shared <> n
    || Array.length triggered <> n
    || Array.length interference <> n
    || Array.exists (fun row -> Array.length row <> n) interference
  then
    add
      (v "fleet-shape" "ownership/interference arrays do not match %d tenant(s)"
         n)
  else begin
    (* Every tenant's run must stand on its own first. *)
    List.iteri
      (fun i r ->
        List.iter
          (fun x ->
            add { x with check = Printf.sprintf "tenant%d:%s" i x.check })
          (check r))
      results;
    (* Frame conservation across the shared pool: co-tenants can squeeze
       each other but can never mint frames. *)
    let total =
      List.fold_left ( + ) 0
        (List.mapi
           (fun i (r : Runner.result) ->
             if shared.(i) then r.diagnostics.Runner.resident_at_end else 0)
           results)
    in
    if total > epc_pages then
      add
        (v "fleet-conservation"
           "shared tenants hold %d frames together, pool has %d" total
           epc_pages);
    Array.iteri
      (fun vi row ->
        Array.iteri
          (fun ai x ->
            if x < 0 then
              add
                (v "fleet-interference"
                   "negative entry at victim %d, aggressor %d" vi ai))
          row)
      interference;
    (* The interference table is double-entry bookkeeping over the same
       evictions the per-tenant counters record: each row must sum to its
       victim's eviction counter, each column to its aggressor's trigger
       counter. *)
    List.iteri
      (fun vi (r : Runner.result) ->
        let row_sum = Array.fold_left ( + ) 0 interference.(vi) in
        let evictions = r.metrics.Metrics.evictions in
        if row_sum <> evictions then
          add
            (v "fleet-interference"
               "victim %d: row sum %d <> evictions counter %d" vi row_sum
               evictions))
      results;
    for ai = 0 to n - 1 do
      let col = ref 0 in
      for vi = 0 to n - 1 do
        col := !col + interference.(vi).(ai)
      done;
      if !col <> triggered.(ai) then
        add
          (v "fleet-interference"
             "aggressor %d: column sum %d <> triggered counter %d" ai !col
             triggered.(ai))
    done
  end;
  List.rev !violations

(* Service invariants take unpacked scalars/histograms rather than a
   [Service] record so [Service] can depend on this module (the same
   inversion as [check_fleet]). *)

(* Shared by [check_service] and [check_resilience]: latency-histogram
   sanity plus the per-instance battery. *)
let service_core ~completed ~latency results add =
  let n = Histogram.count latency in
  if n <> completed then
    add
      (v "service-latency"
         "latency histogram holds %d observation(s), %d request(s) completed"
         n completed);
  if Histogram.nan_count latency <> 0 then
    add
      (v "service-latency" "%d nan latency observation(s)"
         (Histogram.nan_count latency));
  if Histogram.overflow latency <> 0 then
    add
      (v "service-latency"
         "latency histogram overflowed %d observation(s) despite auto-expand"
         (Histogram.overflow latency));
  if completed > 0 && Histogram.min_observed latency < 0.0 then
    add
      (v "service-latency" "negative request latency %.0f observed"
         (Histogram.min_observed latency));
  (* Every warm instance's run must stand on its own: the service layer
     charges transition cost outside the instance clock, so the full
     single-run battery (cycle identity included) still applies. *)
  List.iteri
    (fun i r ->
      List.iter
        (fun x -> add { x with check = Printf.sprintf "instance%d:%s" i x.check })
        (check r))
    results

let check_service ~dispatched ~completed ~in_flight ~latency results =
  let violations = ref [] in
  let add x = violations := x :: !violations in
  if dispatched < 0 || completed < 0 || in_flight < 0 then
    add
      (v "service-conservation"
         "negative request counter (dispatched=%d completed=%d in-flight=%d)"
         dispatched completed in_flight);
  if dispatched <> completed + in_flight then
    add
      (v "service-conservation"
         "dispatched %d <> completed %d + in-flight %d" dispatched completed
         in_flight);
  service_core ~completed ~latency results add;
  List.rev !violations

(* The resilient-service battery: request conservation with a failure
   disposition, attempt conservation across retries and hedges, crash
   bookkeeping against the instances' own counters, and breaker
   transition-log legality. *)
let check_resilience ~dispatched ~completed ~failed ~in_flight ~attempts
    ~retried ~hedged ~hedge_wins ~hedge_cancelled ~crashes ~restarts
    ~down_at_end ~latency results =
  let violations = ref [] in
  let add x = violations := x :: !violations in
  List.iter
    (fun (name, value) ->
      if value < 0 then add (v "resilience-counter" "%s is %d" name value))
    [
      ("dispatched", dispatched); ("completed", completed); ("failed", failed);
      ("in_flight", in_flight); ("attempts", attempts); ("retried", retried);
      ("hedged", hedged); ("hedge_wins", hedge_wins);
      ("hedge_cancelled", hedge_cancelled); ("crashes", crashes);
      ("restarts", restarts); ("down_at_end", down_at_end);
    ];
  (* Every dispatched request ends in exactly one disposition. *)
  if dispatched <> completed + failed + in_flight then
    add
      (v "service-conservation"
         "dispatched %d <> completed %d + failed %d + in-flight %d" dispatched
         completed failed in_flight);
  (* Every attempt is the request's first dispatch, a retry re-dispatch,
     or a hedged duplicate — and a hedge race has exactly one winner, so
     wins and cancellations are bounded by the hedges launched. *)
  if attempts <> dispatched + retried + hedged then
    add
      (v "attempt-conservation"
         "attempts %d <> dispatched %d + retried %d + hedged %d" attempts
         dispatched retried hedged);
  if hedge_wins > hedged then
    add (v "attempt-conservation" "hedge wins %d exceed hedges %d" hedge_wins hedged);
  if hedge_cancelled > hedged then
    add
      (v "attempt-conservation" "hedge cancellations %d exceed hedges %d"
         hedge_cancelled hedged);
  (* Crash bookkeeping: every crash is either restarted or still down at
     the end, and the aggregates must agree with the instances' own
     counters. *)
  if crashes <> restarts + down_at_end then
    add
      (v "crash-bookkeeping" "crashes %d <> restarts %d + down-at-end %d"
         crashes restarts down_at_end);
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let metric_crashes = sum (fun (r : Runner.result) -> r.metrics.Metrics.crashes) in
  let diag_restarts =
    sum (fun (r : Runner.result) -> r.diagnostics.Runner.restarts)
  in
  if crashes <> metric_crashes then
    add
      (v "crash-bookkeeping" "outcome says %d crash(es), instances report %d"
         crashes metric_crashes);
  if restarts <> diag_restarts then
    add
      (v "crash-bookkeeping" "outcome says %d restart(s), instances report %d"
         restarts diag_restarts);
  List.iteri
    (fun i (r : Runner.result) ->
      let d = r.diagnostics in
      if d.Runner.restarts > r.metrics.Metrics.crashes then
        add
          (v "crash-bookkeeping" "instance%d: %d restart(s) but only %d crash(es)"
             i d.Runner.restarts r.metrics.Metrics.crashes);
      (match Preload.Breaker.check_transitions d.Runner.breaker_transitions with
      | None -> ()
      | Some reason -> add (v "breaker-legal" "instance%d: %s" i reason));
      let trips =
        List.length
          (List.filter
             (fun (x : Preload.Breaker.transition) ->
               x.Preload.Breaker.to_state = Preload.Breaker.Open)
             d.Runner.breaker_transitions)
      in
      if d.Runner.breaker_trips <> trips then
        add
          (v "breaker-legal"
             "instance%d: %d trip(s) reported, transition log has %d" i
             d.Runner.breaker_trips trips);
      match d.Runner.breaker_state with
      | None ->
        if d.Runner.breaker_transitions <> [] then
          add
            (v "breaker-legal"
               "instance%d: transitions logged without a breaker" i)
      | Some final ->
        let expected =
          List.fold_left
            (fun _ (x : Preload.Breaker.transition) -> x.Preload.Breaker.to_state)
            Preload.Breaker.Closed d.Runner.breaker_transitions
        in
        if final <> expected then
          add
            (v "breaker-legal"
               "instance%d: final state %s but transition log ends %s" i
               (Preload.Breaker.state_name final)
               (Preload.Breaker.state_name expected)))
    results;
  service_core ~completed ~latency results add;
  List.rev !violations

exception Invalid of violation list

let assert_valid r =
  match check r with
  | [] -> ()
  | violations ->
    raise (Invalid violations)

let () =
  Printexc.register_printer (function
    | Invalid violations ->
      Some (Printf.sprintf "Validate.Invalid:\n%s" (report violations))
    | _ -> None)
