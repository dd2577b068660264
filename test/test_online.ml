(* The online adaptive controller: grammar totality, the pinned-mode
   oracle identities (a controller pinned to a static scheme's mode must
   reproduce that scheme's run field for field), classifier determinism,
   label conservation, and the scan-alignment law (every decision the
   controller takes carries a CLOCK-scan timestamp). *)

module Runner = Sim.Runner
module Scheme = Preload.Scheme
module Online = Preload.Online
module Metrics = Sgxsim.Metrics
module Event = Sgxsim.Event

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let epc = 1024

(* The phased witness: a scan-heavy phase (stream-covered misses) then
   an irregular one — the trace the controller must adapt across. *)
let mixed_trace () =
  Workload.Vision.mixed_blood ~epc_pages:epc ~input:(Workload.Input.Ref 0)

(* Multi-threaded queue-stress trace for the randomized properties. *)
let stress_trace seed =
  Stress_trace.make ~seed (Printf.sprintf "online-prop-%d" seed)

let spec ?fault_plan ?online ?(log_capacity = 0) () =
  Runner.Spec.make
    ~config:{ Runner.default_config with epc_pages = epc; log_capacity }
    ?fault_plan ?online ()

(* ------------------------------------------------------------------ *)
(* Grammar                                                             *)
(* ------------------------------------------------------------------ *)

let test_grammar_roundtrip () =
  (* Every printed config name must re-parse to itself — the CLI flag,
     the chaos journal key and the experiment tables share this
     grammar. *)
  List.iter
    (fun c ->
      let name = Online.config_name c in
      match Online.config_of_string name with
      | Ok c' -> checkb (name ^ " round-trips") true (c = c')
      | Error m -> Alcotest.fail (name ^ ": " ^ m))
    [
      Online.default_config;
      { Online.default_config with Online.window = 8 };
      { Online.default_config with Online.probe = 512 };
      { Online.default_config with Online.threshold = 0.25 };
      { Online.default_config with Online.pin = Some Online.Baseline };
      { Online.default_config with Online.pin = Some Online.Dfp };
      {
        Online.default_config with
        Online.window = 2;
        probe = 64;
        threshold = 0.9;
        pin = Some Online.Sip;
      };
    ];
  checkb "bare online is the default" true
    (Online.config_of_string "online" = Ok Online.default_config);
  checks "default prints bare" "online" (Online.config_name Online.default_config)

let test_grammar_errors () =
  (* Exact strings: the message is CLI surface, same contract as the
     arrival-process grammar. *)
  let err s expected =
    match Online.config_of_string s with
    | Ok _ -> Alcotest.fail (s ^ " unexpectedly parsed")
    | Error m -> checks s expected m
  in
  err "online:window=0" "online \"online:window=0\": window must be positive";
  err "online:window=x"
    "online \"online:window=x\": malformed value \"x\" for window";
  err "online:probe=-1" "online \"online:probe=-1\": probe must be positive";
  err "online:threshold=1.5"
    "online \"online:threshold=1.5\": threshold must be in [0, 1]";
  err "online:pin=zap"
    "online \"online:pin=zap\": pin must be baseline|dfp|sip|hybrid, not \
     \"zap\"";
  err "online:window"
    "online \"online:window\": malformed key=value \"window\"";
  err "online:lr=0.1"
    "online \"online:lr=0.1\": unknown key \"lr\" (window, probe, threshold, \
     pin)";
  err "offline"
    "unknown online controller \"offline\" (expected online or \
     online:key=value,... with keys window=N, probe=N, threshold=R, \
     pin=baseline|dfp|sip|hybrid)"

(* ------------------------------------------------------------------ *)
(* Oracle identities                                                   *)
(* ------------------------------------------------------------------ *)

let oracle ~pin ~static_scheme trace =
  let pinned =
    Runner.run
      ~spec:
        (spec ~online:{ Online.default_config with Online.pin = Some pin } ())
      ~scheme:Scheme.Baseline trace
  in
  let static = Runner.run ~spec:(spec ()) ~scheme:static_scheme trace in
  (pinned, static)

let test_oracle_pin_baseline () =
  (* pin=baseline: the controller observes but never actuates, so the
     run must be the static Baseline run in every field but the scheme
     label and the controller summary. *)
  let pinned, static = oracle ~pin:Online.Baseline ~static_scheme:Scheme.Baseline (mixed_trace ()) in
  checks "label carries +online" "baseline+online" pinned.Runner.scheme;
  (match Sim.Validate.check_online_oracle ~pinned ~static with
  | [] -> ()
  | vs -> Alcotest.fail (Sim.Validate.report vs));
  (* And the controller's own invariants hold on the pinned run. *)
  match Sim.Validate.check_online pinned with
  | [] -> ()
  | vs -> Alcotest.fail (Sim.Validate.report vs)

let test_oracle_pin_dfp () =
  (* pin=dfp: the controller's stream preloader is the stock DFP
     configuration, so forcing DFP mode reproduces [Scheme.dfp_default]
     exactly — same preloads, same channel contention, same cycles. *)
  let pinned, static = oracle ~pin:Online.Dfp ~static_scheme:Scheme.dfp_default (mixed_trace ()) in
  match Sim.Validate.check_online_oracle ~pinned ~static with
  | [] -> ()
  | vs -> Alcotest.fail (Sim.Validate.report vs)

let test_native_never_attaches () =
  let r =
    Runner.run
      ~spec:(spec ~online:Online.default_config ())
      ~scheme:Scheme.Native (mixed_trace ())
  in
  checkb "no controller on native" true (r.Runner.diagnostics.Runner.online = None);
  checks "native label unsuffixed" "native" r.Runner.scheme

(* ------------------------------------------------------------------ *)
(* Determinism and composition                                         *)
(* ------------------------------------------------------------------ *)

let test_rerun_identity () =
  (* Bit-reproducibility: the classifier state is a pure function of the
     replayed stream, so a rerun is structurally identical — including
     the transition log and per-site label counts. *)
  let go () =
    Runner.run
      ~spec:(spec ~online:Online.default_config ())
      ~scheme:Scheme.Baseline (mixed_trace ())
  in
  let a = go () and b = go () in
  checkb "whole result equal" true (a = b)

let test_fused_online_identity () =
  (* The fused-replay contract extends to online specs: each fused
     instance carries its own controller, so fused == per-cell holds
     field for field (controller summaries included). *)
  let trace = stress_trace 5 in
  let s = spec ~online:Online.default_config () in
  let schemes = [ Scheme.Baseline; Scheme.dfp_stop ] in
  let fused = Runner.run_fused ~spec:s ~schemes trace in
  let solo = List.map (fun scheme -> Runner.run ~spec:s ~scheme trace) schemes in
  List.iter2
    (fun (f : Runner.result) (s : Runner.result) ->
      checkb (f.Runner.scheme ^ " fused == solo") true (f = s))
    fused solo

let test_adapts_on_phased_trace () =
  (* The feature does something: on the phased witness the controller
     must leave baseline mode at least once and report phase activity,
     and the run must beat the static baseline. *)
  let r =
    Runner.run
      ~spec:(spec ~online:Online.default_config ())
      ~scheme:Scheme.Baseline (mixed_trace ())
  in
  let baseline =
    Runner.run ~spec:(spec ()) ~scheme:Scheme.Baseline (mixed_trace ())
  in
  let s = Option.get r.Runner.diagnostics.Runner.online in
  checkb "controller switched modes" true (s.Online.s_transitions <> []);
  checkb "improves on static baseline" true
    (Runner.improvement ~baseline r > 0.0);
  Sim.Validate.assert_valid r

(* ------------------------------------------------------------------ *)
(* Conservation and scan alignment                                     *)
(* ------------------------------------------------------------------ *)

let test_label_conservation () =
  let r =
    Runner.run
      ~spec:(spec ~online:Online.default_config ())
      ~scheme:Scheme.Baseline (mixed_trace ())
  in
  let s = Option.get r.Runner.diagnostics.Runner.online in
  checki "observed = accesses" r.Runner.metrics.Metrics.accesses
    s.Online.s_observed;
  let labelled =
    List.fold_left
      (fun acc (_, (c1, c2, c3)) -> acc + c1 + c2 + c3)
      0 s.Online.per_site
  in
  checki "lifetime labels sum to observed" s.Online.s_observed labelled

let scan_times (r : Runner.result) =
  let t = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match e with
      | Event.Scan _ -> Hashtbl.replace t (Event.at e) ()
      | _ -> ())
    r.Runner.events;
  t

let check_scan_aligned (r : Runner.result) =
  checkb "log complete" false r.Runner.diagnostics.Runner.events_truncated;
  let scans = scan_times r in
  let s = Option.get r.Runner.diagnostics.Runner.online in
  List.iter
    (fun (x : Online.transition) ->
      checkb
        (Printf.sprintf "switch at t=%d is a scan time" x.Online.at)
        true
        (Hashtbl.mem scans x.Online.at))
    s.Online.s_transitions;
  List.iter
    (fun (x : Online.label_change) ->
      checkb
        (Printf.sprintf "label flip at t=%d is a scan time" x.Online.lc_at)
        true
        (Hashtbl.mem scans x.Online.lc_at))
    s.Online.s_label_changes

let test_decisions_at_scan_times () =
  let r =
    Runner.run
      ~spec:(spec ~online:Online.default_config ~log_capacity:(1 lsl 20) ())
      ~scheme:Scheme.Baseline (mixed_trace ())
  in
  check_scan_aligned r

let prop_labels_only_change_at_scans =
  (* Randomized version of the scan-alignment law, across trace seeds
     and controller windows: every transition and label flip on a
     multi-threaded stress trace still lands on a scan timestamp, and
     the full online battery stays clean. *)
  QCheck2.Test.make ~name:"labels only change at scan timestamps" ~count:20
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 1 6))
    (fun (seed, window) ->
      let trace = stress_trace seed in
      let r =
        Runner.run
          ~spec:
            (spec
               ~online:{ Online.default_config with Online.window }
               ~log_capacity:(1 lsl 20) ())
          ~scheme:Scheme.Baseline trace
      in
      check_scan_aligned r;
      (match Sim.Validate.check r with
      | [] -> ()
      | vs -> Alcotest.fail (Sim.Validate.report vs));
      true)

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "online"
    [
      ( "grammar",
        [
          tc "round-trips" test_grammar_roundtrip;
          tc "errors" test_grammar_errors;
        ] );
      ( "oracle",
        [
          tc "pin=baseline == Baseline" test_oracle_pin_baseline;
          tc "pin=dfp == dfp_default" test_oracle_pin_dfp;
          tc "native never attaches" test_native_never_attaches;
        ] );
      ( "determinism",
        [
          tc "rerun identity" test_rerun_identity;
          tc "fused == per-cell with online" test_fused_online_identity;
          tc "adapts on phased trace" test_adapts_on_phased_trace;
        ] );
      ( "laws",
        [
          tc "label conservation" test_label_conservation;
          tc "decisions at scan times" test_decisions_at_scan_times;
          QCheck_alcotest.to_alcotest prop_labels_only_change_at_scans;
        ] );
    ]
