module Event = Sgxsim.Event
module Metrics = Sgxsim.Metrics
module Load_channel = Sgxsim.Load_channel

(* ------------------------------------------------------------------ *)
(* Minimal JSON emission                                               *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let str s = Printf.sprintf "\"%s\"" (escape s)

let obj fields =
  Printf.sprintf "{%s}"
    (String.concat ","
       (List.map (fun (k, value) -> Printf.sprintf "%s:%s" (str k) value) fields))

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON (Perfetto / chrome://tracing loadable)       *)
(* ------------------------------------------------------------------ *)

(* Track (thread) ids within the single simulated-enclave process. *)
let tid_app = 1
let tid_channel = 2
let tid_scan = 3
let tid_queue = 4

let span ~name ~cat ~tid ~ts ~dur args =
  ( ts,
    obj
      ([
         ("name", str name); ("cat", str cat); ("ph", str "X");
         ("ts", string_of_int ts); ("dur", string_of_int dur);
         ("pid", "1"); ("tid", string_of_int tid);
       ]
      @ if args = [] then [] else [ ("args", obj args) ]) )

let instant ~name ~cat ~tid ~ts args =
  ( ts,
    obj
      ([
         ("name", str name); ("cat", str cat); ("ph", str "i");
         ("s", str "t"); ("ts", string_of_int ts);
         ("pid", "1"); ("tid", string_of_int tid);
       ]
      @ if args = [] then [] else [ ("args", obj args) ]) )

let metadata ~name ~tid args =
  obj
    [
      ("name", str name); ("ph", str "M"); ("pid", "1");
      ("tid", string_of_int tid); ("args", obj args);
    ]

let kind_str = function
  | Load_channel.Demand -> "demand"
  | Load_channel.Preload_dfp -> "dfp"
  | Load_channel.Preload_sip -> "sip"

(* Walk the chronological event list pairing span endpoints:
   Fault -> Eresume on the app track, Load_start -> Load_done on the
   channel track, absent Sip_check -> Sip_notify on the app track.
   Unpaired endpoints (a truncated log, a load still in flight) degrade
   to instants rather than being dropped. *)
let trace_events events =
  let out = ref [] in
  let emit e = out := e :: !out in
  let fault : (int * int) option ref = ref None in
  let load : (int * int * Load_channel.kind) option ref = ref None in
  let sip_checks : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e with
      | Event.Fault { at; vpage } -> fault := Some (vpage, at)
      | Event.Aex_done { at; vpage } ->
        emit
          (instant ~name:"aex-done" ~cat:"fault" ~tid:tid_app ~ts:at
             [ ("vpage", string_of_int vpage) ])
      | Event.Eresume { at; vpage } -> (
        match !fault with
        | Some (v0, t0) when v0 = vpage ->
          fault := None;
          emit
            (span
               ~name:(Printf.sprintf "fault p%d" vpage)
               ~cat:"fault" ~tid:tid_app ~ts:t0 ~dur:(at - t0)
               [ ("vpage", string_of_int vpage) ])
        | Some _ | None ->
          emit
            (instant ~name:"eresume" ~cat:"fault" ~tid:tid_app ~ts:at
               [ ("vpage", string_of_int vpage) ]))
      | Event.Load_start { at; vpage; kind } -> load := Some (vpage, at, kind)
      | Event.Load_done { at; vpage; kind } -> (
        match !load with
        | Some (v0, t0, k0) when v0 = vpage && k0 = kind ->
          load := None;
          emit
            (span
               ~name:(Printf.sprintf "load p%d (%s)" vpage (kind_str kind))
               ~cat:"load" ~tid:tid_channel ~ts:t0 ~dur:(at - t0)
               [ ("vpage", string_of_int vpage); ("kind", str (kind_str kind)) ])
        | Some _ | None ->
          emit
            (instant ~name:"load-done" ~cat:"load" ~tid:tid_channel ~ts:at
               [ ("vpage", string_of_int vpage) ]))
      | Event.Sip_check { at; vpage; present } ->
        if present then
          emit
            (instant ~name:"sip-check hit" ~cat:"sip" ~tid:tid_app ~ts:at
               [ ("vpage", string_of_int vpage) ])
        else Hashtbl.replace sip_checks vpage at
      | Event.Sip_notify { at; vpage } -> (
        match Hashtbl.find_opt sip_checks vpage with
        | Some t0 ->
          Hashtbl.remove sip_checks vpage;
          emit
            (span
               ~name:(Printf.sprintf "sip-notify p%d" vpage)
               ~cat:"sip" ~tid:tid_app ~ts:t0 ~dur:(at - t0)
               [ ("vpage", string_of_int vpage) ])
        | None ->
          emit
            (instant ~name:"sip-notify" ~cat:"sip" ~tid:tid_app ~ts:at
               [ ("vpage", string_of_int vpage) ]))
      | Event.Evict { at; vpage } ->
        emit
          (instant ~name:"evict" ~cat:"epc" ~tid:tid_scan ~ts:at
             [ ("vpage", string_of_int vpage) ])
      | Event.Scan { at } ->
        emit (instant ~name:"clock-scan" ~cat:"epc" ~tid:tid_scan ~ts:at [])
      | Event.Preload_queued { at; vpage } ->
        emit
          (instant ~name:"preload-queued" ~cat:"preload" ~tid:tid_queue ~ts:at
             [ ("vpage", string_of_int vpage) ])
      | Event.Preload_aborted { at; count } ->
        emit
          (instant ~name:"preload-aborted" ~cat:"preload" ~tid:tid_queue ~ts:at
             [ ("count", string_of_int count) ])
      | Event.Crash { at; pages_lost } ->
        (* A crash orphans any open fault/load span; drop the pending
           starts so they degrade to instants rather than pairing with
           post-restart endpoints. *)
        fault := None;
        load := None;
        emit
          (instant ~name:"crash" ~cat:"fault" ~tid:tid_app ~ts:at
             [ ("pages_lost", string_of_int pages_lost) ])
      | Event.Access { at; vpage } ->
        emit
          (instant ~name:"access" ~cat:"app" ~tid:tid_app ~ts:at
             [ ("vpage", string_of_int vpage) ]))
    events;
  (* Spans are emitted when their end event is seen but stamped with
     their start time, so re-sort: viewers and the export test expect
     timestamp order. *)
  List.map snd
    (List.stable_sort
       (fun (ts_a, _) (ts_b, _) -> compare ts_a ts_b)
       (List.rev !out))

let chrome_trace (r : Runner.result) =
  let process_label =
    Printf.sprintf "%s/%s%s" r.workload r.scheme
      (if r.input = "" then "" else " (" ^ r.input ^ ")")
  in
  let header =
    metadata ~name:"process_name" ~tid:tid_app [ ("name", str process_label) ]
    :: List.map
         (fun (tid, name) ->
           metadata ~name:"thread_name" ~tid [ ("name", str name) ])
         [
           (tid_app, "app thread"); (tid_channel, "load channel");
           (tid_scan, "service scan"); (tid_queue, "preload queue");
         ]
  in
  Printf.sprintf "{%s:%s,%s:[\n%s\n]}" (str "displayTimeUnit") (str "ns")
    (str "traceEvents")
    (String.concat ",\n" (header @ trace_events r.events))

(* ------------------------------------------------------------------ *)
(* Result rows: JSONL / CSV                                            *)
(* ------------------------------------------------------------------ *)

(* The flattened row: one (name, cell) pair per field, each cell a JSON
   literal.  The JSONL keys and the CSV header both come from this one
   list, so the two formats cannot drift apart. *)
let columns : (string * (Runner.result -> string)) list =
  let int name f = (name, fun r -> string_of_int (f r)) in
  let bool name f = (name, fun r -> if f r then "true" else "false") in
  let diag name f = int name (fun (r : Runner.result) -> f r.diagnostics) in
  let online name ~none f =
    ( name,
      fun (r : Runner.result) ->
        match r.diagnostics.Runner.online with
        | None -> none
        | Some s -> f s )
  in
  [
    ("workload", fun r -> str r.Runner.workload);
    ("input", fun r -> str r.Runner.input);
    ("scheme", fun r -> str r.Runner.scheme);
    int "cycles" (fun r -> r.Runner.cycles);
    int "final_now" (fun r -> r.Runner.final_now);
  ]
  @ List.map
      (fun (name, f) -> int name (fun (r : Runner.result) -> f r.metrics))
      Metrics.fields
  @ [
      bool "dfp_stopped" (fun r -> r.Runner.dfp_stopped);
      int "instrumentation_points" (fun r -> r.Runner.instrumentation_points);
      diag "pending_preloads" (fun d -> d.Runner.pending_preloads);
      diag "in_flight_preloads" (fun d -> d.Runner.in_flight_preloads);
      ( "in_flight_kind",
        fun r ->
          str
            (match r.Runner.diagnostics.Runner.in_flight_kind with
            | None -> "none"
            | Some k -> kind_str k) );
      diag "resident_at_end" (fun d -> d.Runner.resident_at_end);
      bool "events_truncated" (fun r ->
          r.Runner.diagnostics.Runner.events_truncated);
      online "online_mode" ~none:(str "none") (fun s ->
          str (Preload.Online.mode_name s.Preload.Online.final_mode));
      online "online_transitions" ~none:"0" (fun s ->
          string_of_int (List.length s.Preload.Online.s_transitions));
      online "online_phase_shifts" ~none:"0" (fun s ->
          string_of_int s.Preload.Online.s_phase_shifts);
      online "online_instrumented" ~none:"0" (fun s ->
          string_of_int s.Preload.Online.s_instrumented);
    ]

let row_fields r = List.map (fun (name, cell) -> (name, cell r)) columns

let jsonl_row r = obj (row_fields r)

let csv_header = String.concat "," (List.map fst columns)

let csv_cell value =
  (* JSON string values arrive quoted; CSV wants them bare (workload and
     scheme names contain no commas or quotes). *)
  let n = String.length value in
  if n >= 2 && value.[0] = '"' && value.[n - 1] = '"' then String.sub value 1 (n - 2)
  else value

let csv_row r = String.concat "," (List.map (fun (_, x) -> csv_cell x) (row_fields r))

(* ------------------------------------------------------------------ *)
(* The one rendering entry point                                       *)
(* ------------------------------------------------------------------ *)

type format = Chrome_trace | Jsonl | Csv

let formats =
  [ ("chrome-trace", Chrome_trace); ("jsonl", Jsonl); ("csv", Csv) ]

let needs_events = function Chrome_trace -> true | Jsonl | Csv -> false

(* The single exhaustiveness-checked dispatch: adding a format extends
   the variant, and the compiler walks every consumer here. *)
let render ~format r =
  match format with
  | Chrome_trace -> chrome_trace r ^ "\n"
  | Jsonl -> jsonl_row r ^ "\n"
  | Csv -> csv_header ^ "\n" ^ csv_row r ^ "\n"
