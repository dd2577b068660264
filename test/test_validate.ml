(* Tests of the observability layer: the Validate invariant checker
   (including that it rejects logs exhibiting the pre-fix Sip_notify
   timestamp bug) and the Trace_export renderers, whose JSON output is
   re-parsed here with a small recursive-descent parser — the repository
   deliberately carries no JSON dependency. *)

module Runner = Sim.Runner
module Validate = Sim.Validate
module Trace_export = Sim.Trace_export
module Scheme = Preload.Scheme
module Event = Sgxsim.Event
module Cost_model = Sgxsim.Cost_model
module Load_channel = Sgxsim.Load_channel
module Trace = Workload.Trace
module Pattern = Workload.Pattern

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let c = Cost_model.paper

(* ------------------------------------------------------------------ *)
(* Minimal JSON parser                                                 *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\n' | '\t' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect ch =
    if !pos < n && s.[!pos] = ch then incr pos
    else fail (Printf.sprintf "expected %c" ch)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= n then fail "dangling escape";
        (match s.[!pos] with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          (* The exports only emit control characters this way; a
             placeholder is enough for the tests. *)
          pos := !pos + 4;
          Buffer.add_char buf '?'
        | ch -> fail (Printf.sprintf "bad escape \\%c" ch));
        incr pos;
        go ()
      | ch ->
        Buffer.add_char buf ch;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      expect '{';
      skip_ws ();
      if peek () = Some '}' then begin
        expect '}';
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value () in
          fields := (key, value) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            expect ',';
            members ()
          | _ -> expect '}'
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      expect '[';
      skip_ws ();
      if peek () = Some ']' then begin
        expect ']';
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let value = parse_value () in
          items := value :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            expect ',';
            elements ()
          | _ -> expect ']'
        in
        elements ();
        Arr (List.rev !items)
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_num = function Some (Num f) -> f | _ -> Alcotest.fail "expected number"
let to_str = function Some (Str s) -> s | _ -> Alcotest.fail "expected string"
let to_arr = function Some (Arr xs) -> xs | _ -> Alcotest.fail "expected array"

(* ------------------------------------------------------------------ *)
(* A small deterministic run to export                                 *)
(* ------------------------------------------------------------------ *)

let didactic_trace () =
  Trace.make ~name:"export-didactic" ~elrange_pages:64 ~footprint_pages:16
    ~seed:1
    ~sites:[ (0, "loop") ]
    (Pattern.sequential ~site:0 ~base:0 ~pages:16 ~events_per_page:2
       ~compute:60_000 ~jitter:0.0)

let run_didactic scheme =
  (* EPC above the footprint: cold faults only, so every baseline fault
     span has the exact architectural cost asserted below. *)
  let config =
    { Runner.default_config with epc_pages = 32; log_capacity = 4096 }
  in
  Runner.run ~spec:(Runner.Spec.make ~config ()) ~scheme (didactic_trace ())

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)
(* ------------------------------------------------------------------ *)

(* Everything goes through the one public entry point. *)
let chrome r = Trace_export.render ~format:Trace_export.Chrome_trace r
let jsonl r = Trace_export.render ~format:Trace_export.Jsonl r

let csv_lines r =
  match
    String.split_on_char '\n' (Trace_export.render ~format:Trace_export.Csv r)
  with
  | [ header; row; "" ] -> (header, row)
  | _ -> Alcotest.fail "csv payload must be one header line plus one row"

let test_chrome_trace_parses () =
  let r = run_didactic Scheme.dfp_default in
  let doc = parse_json (chrome r) in
  let events = to_arr (member "traceEvents" doc) in
  checkb "has events beyond metadata" true (List.length events > 8);
  List.iter
    (fun e ->
      let ph = to_str (member "ph" e) in
      checkb "known phase" true (List.mem ph [ "X"; "i"; "M" ]);
      checkb "named" true (String.length (to_str (member "name" e)) > 0);
      checki "single process" 1 (int_of_float (to_num (member "pid" e)));
      if ph = "X" then
        checkb "span duration non-negative" true (to_num (member "dur" e) >= 0.0))
    events

let test_chrome_trace_timestamps_monotone_per_track () =
  let r = run_didactic Scheme.dfp_default in
  let events = to_arr (member "traceEvents" (parse_json (chrome r))) in
  let last : (int, float) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if to_str (member "ph" e) <> "M" then begin
        let tid = int_of_float (to_num (member "tid" e)) in
        let ts = to_num (member "ts" e) in
        (match Hashtbl.find_opt last tid with
        | Some prev ->
          checkb
            (Printf.sprintf "tid %d nondecreasing at ts %.0f" tid ts)
            true (ts >= prev)
        | None -> ());
        Hashtbl.replace last tid ts
      end)
    events;
  checkb "app and channel tracks both present" true
    (Hashtbl.mem last 1 && Hashtbl.mem last 2)

let test_chrome_trace_names_tracks () =
  let r = run_didactic Scheme.Baseline in
  let events = to_arr (member "traceEvents" (parse_json (chrome r))) in
  let thread_names =
    List.filter_map
      (fun e ->
        if to_str (member "ph" e) = "M" && to_str (member "name" e) = "thread_name"
        then Some (to_str (member "name" (Option.get (member "args" e))))
        else None)
      events
  in
  List.iter
    (fun expected -> checkb expected true (List.mem expected thread_names))
    [ "app thread"; "load channel"; "service scan"; "preload queue" ]

let test_chrome_trace_fault_spans_cost_accurate () =
  (* Every baseline fault span covers AEX + load + ERESUME (the didactic
     trace never waits on an in-flight load). *)
  let r = run_didactic Scheme.Baseline in
  let events = to_arr (member "traceEvents" (parse_json (chrome r))) in
  let fault_spans =
    List.filter
      (fun e ->
        to_str (member "ph" e) = "X"
        && member "cat" e = Some (Str "fault"))
      events
  in
  checki "one span per fault" (Sgxsim.Metrics.total_faults r.metrics)
    (List.length fault_spans);
  List.iter
    (fun e ->
      checki "span covers the whole fault"
        (c.t_aex + c.t_load + c.t_eresume)
        (int_of_float (to_num (member "dur" e))))
    fault_spans

(* ------------------------------------------------------------------ *)
(* JSONL / CSV export                                                  *)
(* ------------------------------------------------------------------ *)

let test_jsonl_row_round_trips () =
  let r = run_didactic Scheme.dfp_default in
  let row = parse_json (jsonl r) in
  Alcotest.(check string) "workload" "export-didactic" (to_str (member "workload" row));
  Alcotest.(check string) "scheme" r.scheme (to_str (member "scheme" row));
  checki "cycles" r.cycles (int_of_float (to_num (member "cycles" row)));
  checki "final_now agrees" r.cycles (int_of_float (to_num (member "final_now" row)));
  checki "faults" r.metrics.faults (int_of_float (to_num (member "faults" row)))

(* The row layout is a file format that external tools parse by
   position: a golden copy of the CSV header, whose order the JSONL keys
   must follow too. *)
let golden_columns =
  "workload,input,scheme,cycles,final_now,cyc_compute,cyc_access,\
   cyc_aex,cyc_eresume,cyc_os_handler,cyc_load_wait,\
   cyc_bitmap_check,cyc_notify,cyc_sip_wait,cyc_restart,accesses,\
   faults,faults_in_flight,faults_already_present,total_faults,\
   preloads_requested,preloads_rejected_range,\
   preloads_rejected_dup,preloads_issued,preloads_rejected_breaker,\
   preloads_completed,preloads_aborted,preloads_taken_over,\
   preloads_skipped,preload_hits,preload_evicted_unused,evictions,\
   sip_checks,sip_notifies,scans,crashes,crash_pages_lost,\
   dfp_stopped,instrumentation_points,pending_preloads,\
   in_flight_preloads,in_flight_kind,resident_at_end,\
   events_truncated,online_mode,online_transitions,\
   online_phase_shifts,online_instrumented"

let test_columns_golden () =
  let r = run_didactic Scheme.dfp_default in
  Alcotest.(check string) "csv header" golden_columns (fst (csv_lines r));
  match parse_json (jsonl r) with
  | Obj fields ->
    Alcotest.(check (list string))
      "jsonl key order"
      (String.split_on_char ',' golden_columns)
      (List.map fst fields)
  | _ -> Alcotest.fail "jsonl row must be an object"

let test_csv_header_matches_row () =
  let r = run_didactic Scheme.Baseline in
  let split line = String.split_on_char ',' line in
  let header_line, row_line = csv_lines r in
  let header = split header_line in
  let row = split row_line in
  checki "same arity" (List.length header) (List.length row);
  let get key = List.assoc key (List.combine header row) in
  Alcotest.(check string) "workload cell" "export-didactic" (get "workload");
  Alcotest.(check string) "cycles cell" (string_of_int r.cycles) (get "cycles");
  (* The request-disposition counters behind Validate's preload identity
     are part of the flattened counter set too; a DFP run makes them
     nonzero. *)
  let d = run_didactic Scheme.dfp_default in
  let dfp_header, dfp_row = csv_lines d in
  let dfp_get key =
    List.assoc key (List.combine (split dfp_header) (split dfp_row))
  in
  checkb "dfp requests preloads" true (d.metrics.preloads_requested > 0);
  List.iter
    (fun (key, v) -> Alcotest.(check string) key (string_of_int v) (dfp_get key))
    [
      ("preloads_requested", d.metrics.preloads_requested);
      ("preloads_rejected_range", d.metrics.preloads_rejected_range);
      ("preloads_rejected_dup", d.metrics.preloads_rejected_dup);
    ];
  (* The JSONL object exposes exactly the CSV columns. *)
  match parse_json (jsonl r) with
  | Obj fields ->
    Alcotest.(check (list string)) "jsonl keys = csv columns" header
      (List.map fst fields)
  | _ -> Alcotest.fail "jsonl row must be an object"

(* ------------------------------------------------------------------ *)
(* Validate: clean runs pass                                           *)
(* ------------------------------------------------------------------ *)

let test_clean_runs_validate () =
  List.iter
    (fun scheme ->
      let r = run_didactic scheme in
      checkb (r.Runner.scheme ^ " log complete") false
        r.Runner.diagnostics.Runner.events_truncated;
      Alcotest.(check string)
        (r.scheme ^ " passes")
        ""
        (Validate.report (Validate.check r)))
    [ Scheme.Baseline; Scheme.Native; Scheme.dfp_default; Scheme.next_line ~degree:2 ]

(* ------------------------------------------------------------------ *)
(* Validate: corrupted logs are rejected                               *)
(* ------------------------------------------------------------------ *)

let flags check violations = List.exists (fun v -> v.Validate.check = check) violations

let test_swapped_timestamps_detected () =
  let log =
    [
      Event.Scan { at = 500 };
      Event.Scan { at = 100 };
      (* out of order *)
      Event.Scan { at = 900 };
    ]
  in
  checkb "monotonicity violation reported" true
    (flags "monotone-timestamps" (Validate.check_events ~costs:c log))

let test_dropped_load_done_detected () =
  (* Two starts with the first load's completion dropped: the exclusive
     channel can never have two loads in flight. *)
  let log =
    [
      Event.Load_start { at = 0; vpage = 1; kind = Load_channel.Preload_dfp };
      Event.Load_start { at = 50_000; vpage = 2; kind = Load_channel.Preload_dfp };
      Event.Load_done { at = 94_000; vpage = 2; kind = Load_channel.Preload_dfp };
    ]
  in
  checkb "channel violation reported" true
    (flags "channel-exclusive" (Validate.check_events ~costs:c log))

let test_unmatched_load_done_detected () =
  let log =
    [ Event.Load_done { at = 44_000; vpage = 3; kind = Load_channel.Demand } ]
  in
  checkb "orphan load-done reported" true
    (flags "channel-exclusive" (Validate.check_events ~costs:c log))

let test_prefix_sip_notify_bug_detected () =
  (* The pre-fix recorder stamped Sip_notify with the bitmap-check time.
     Synthesize exactly that log and demand the checker reject it. *)
  let checked_at = 1_000 + c.t_bitmap_check in
  let buggy =
    [
      Event.Sip_check { at = checked_at; vpage = 7; present = false };
      Event.Sip_notify { at = checked_at; vpage = 7 };
      Event.Load_start { at = checked_at + c.t_notify; vpage = 7; kind = Load_channel.Preload_sip };
      Event.Load_done { at = checked_at + c.t_notify + c.t_load; vpage = 7; kind = Load_channel.Preload_sip };
    ]
  in
  checkb "pre-fix log rejected" true
    (flags "sip-notify-span" (Validate.check_events ~costs:c buggy));
  (* The same span with the correct stamp passes. *)
  let fixed =
    [
      Event.Sip_check { at = checked_at; vpage = 7; present = false };
      Event.Sip_notify { at = checked_at + c.t_notify; vpage = 7 };
      Event.Load_start { at = checked_at + c.t_notify; vpage = 7; kind = Load_channel.Preload_sip };
      Event.Load_done { at = checked_at + c.t_notify + c.t_load; vpage = 7; kind = Load_channel.Preload_sip };
    ]
  in
  Alcotest.(check string) "fixed log accepted" ""
    (Validate.report (Validate.check_events ~costs:c fixed))

let test_fault_span_discipline () =
  let ok =
    [
      Event.Fault { at = 100; vpage = 4 };
      Event.Aex_done { at = 100 + c.t_aex; vpage = 4 };
      Event.Eresume { at = 100 + c.t_aex + c.t_load + c.t_eresume; vpage = 4 };
    ]
  in
  Alcotest.(check string) "well-formed span accepted" ""
    (Validate.report (Validate.check_events ~costs:c ok));
  let late_aex =
    [
      Event.Fault { at = 100; vpage = 4 };
      Event.Aex_done { at = 100 + c.t_aex + 1; vpage = 4 };
      Event.Eresume { at = 200_000; vpage = 4 };
    ]
  in
  checkb "mistimed aex-done rejected" true
    (flags "fault-span" (Validate.check_events ~costs:c late_aex));
  let unterminated = [ Event.Fault { at = 100; vpage = 4 } ] in
  checkb "fault without eresume rejected" true
    (flags "fault-span" (Validate.check_events ~costs:c unterminated))

let test_validator_distinguishes_violations () =
  (* Each corruption is reported under its own check name, so a report
     names the failing invariant rather than a generic error. *)
  let log =
    [
      Event.Scan { at = 1_000 };
      Event.Scan { at = 0 };
      Event.Load_done { at = 2_000; vpage = 1; kind = Load_channel.Demand };
    ]
  in
  let violations = Validate.check_events ~costs:c log in
  checkb "monotone flagged" true (flags "monotone-timestamps" violations);
  checkb "channel flagged" true (flags "channel-exclusive" violations);
  checkb "fault spans not dragged in" false (flags "fault-span" violations);
  let report = Validate.report violations in
  checkb "report names the checks" true
    (String.length report > 0 && report.[0] = '[')

(* ------------------------------------------------------------------ *)
(* Validate: whole-run accounting and assert_valid                     *)
(* ------------------------------------------------------------------ *)

let test_accounting_identity_broken_detected () =
  let r = run_didactic Scheme.Baseline in
  (* Tamper with the reported clock: the cycle identity must catch it. *)
  let tampered = { r with Runner.final_now = r.final_now + 1 } in
  checkb "cycle identity violated" true
    (flags "cycle-identity" (Validate.check tampered));
  (match Validate.check r with
  | [] -> ()
  | vs -> Alcotest.fail ("clean run flagged: " ^ Validate.report vs));
  Alcotest.check_raises "assert_valid raises on tampering"
    (Validate.Invalid (Validate.check tampered))
    (fun () -> Validate.assert_valid tampered)

let test_event_counter_mismatch_detected () =
  let r = run_didactic Scheme.dfp_default in
  (* Dropping one Fault event from the log must break the counter
     cross-check (the log claims fewer faults than the metrics). *)
  let dropped = ref false in
  let events =
    List.filter
      (fun e ->
        match e with
        | Event.Fault _ when not !dropped ->
          dropped := true;
          false
        | _ -> true)
      r.events
  in
  checkb "a fault was dropped" true !dropped;
  let tampered = { r with Runner.events } in
  checkb "event counter mismatch reported" true
    (flags "event-counter" (Validate.check tampered))

let test_in_flight_preload_miscount_detected () =
  let r = run_didactic Scheme.dfp_default in
  (* Claiming an in-flight preload the channel does not show... *)
  let d = r.Runner.diagnostics in
  let inflated =
    {
      r with
      Runner.diagnostics =
        { d with Runner.in_flight_preloads = d.Runner.in_flight_preloads + 1 };
    }
  in
  checkb "inflated count caught" true
    (flags "preload-identity" (Validate.check inflated));
  (* ...and the pre-fix blind spot: a dangling SIP-kind load with the
     counter still at zero.  The old runner counted only Preload_dfp, so
     this state sailed through validation. *)
  let sip_blind =
    {
      r with
      Runner.diagnostics =
        {
          d with
          Runner.in_flight_kind = Some Load_channel.Preload_sip;
          in_flight_preloads = 0;
        };
    }
  in
  checkb "sip-kind blind spot caught" true
    (flags "preload-identity" (Validate.check sip_blind))

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "validate"
    [
      ( "chrome trace",
        [
          tc "parses as JSON" test_chrome_trace_parses;
          tc "timestamps monotone per track" test_chrome_trace_timestamps_monotone_per_track;
          tc "names tracks" test_chrome_trace_names_tracks;
          tc "fault spans cost-accurate" test_chrome_trace_fault_spans_cost_accurate;
        ] );
      ( "rows",
        [
          tc "jsonl round-trips" test_jsonl_row_round_trips;
          tc "csv header matches row" test_csv_header_matches_row;
          tc "column order golden" test_columns_golden;
        ] );
      ( "validator",
        [
          tc "clean runs pass" test_clean_runs_validate;
          tc "swapped timestamps" test_swapped_timestamps_detected;
          tc "dropped load-done" test_dropped_load_done_detected;
          tc "orphan load-done" test_unmatched_load_done_detected;
          tc "pre-fix sip-notify log rejected" test_prefix_sip_notify_bug_detected;
          tc "fault-span discipline" test_fault_span_discipline;
          tc "violations distinguished" test_validator_distinguishes_violations;
          tc "tampered accounting caught" test_accounting_identity_broken_detected;
          tc "tampered event log caught" test_event_counter_mismatch_detected;
          tc "in-flight preload miscount caught" test_in_flight_preload_miscount_detected;
        ] );
    ]
