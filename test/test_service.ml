(* Service mode: open-loop arrivals, request scheduling, tail-latency
   accounting, and the determinism contract. *)

module Service = Sim.Service
module Fault_plan = Sim.Fault_plan
module Validate = Sim.Validate
module Scheme = Preload.Scheme
module Input = Workload.Input
module Spec = Workload.Spec
module Histogram = Repro_util.Histogram
module Table = Repro_util.Table

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let trace = Spec.deepsjeng ~epc_pages:128 ~input:Input.Train

let config =
  {
    Service.default_config with
    Service.epc_pages = 128;
    pool = 2;
    requests = 40;
    request_events = 100;
    mean_gap = 2_000_000;
    seed = 5;
  }

(* ------------------------------------------------------------------ *)
(* Arrival generators                                                  *)
(* ------------------------------------------------------------------ *)

let test_arrivals_deterministic () =
  List.iter
    (fun arrivals ->
      let c = { config with Service.arrivals } in
      check
        Alcotest.(array int)
        (Service.arrival_name arrivals ^ " same seed")
        (Service.arrival_times c) (Service.arrival_times c))
    [
      Service.Poisson;
      Service.Bursty { burst = 8 };
      Service.Diurnal { period = 100_000_000; swing = 0.8 };
    ]

let test_arrivals_seed_sensitive () =
  let a = Service.arrival_times config in
  let b = Service.arrival_times { config with Service.seed = 6 } in
  checkb "different seeds diverge" true (a <> b)

let test_arrivals_non_decreasing () =
  List.iter
    (fun arrivals ->
      let c = { config with Service.arrivals } in
      let times = Service.arrival_times c in
      checki "count" c.Service.requests (Array.length times);
      for k = 1 to Array.length times - 1 do
        checkb "non-decreasing" true (times.(k) >= times.(k - 1));
        checkb "non-negative" true (times.(k) >= 0)
      done)
    [
      Service.Poisson;
      Service.Bursty { burst = 8 };
      Service.Diurnal { period = 100_000_000; swing = 0.8 };
    ]

let test_arrivals_bursty_groups () =
  let c = { config with Service.arrivals = Service.Bursty { burst = 5 } } in
  let times = Service.arrival_times c in
  (* Requests within one burst share an arrival instant. *)
  for k = 0 to Array.length times - 1 do
    if k mod 5 <> 0 then
      checki (Printf.sprintf "burst member %d" k) times.(k - 1) times.(k)
  done

let test_arrivals_bad_config_rejected () =
  Alcotest.check_raises "zero pool"
    (Invalid_argument "Service: pool must be positive") (fun () ->
      ignore (Service.arrival_times { config with Service.pool = 0 }));
  Alcotest.check_raises "bad swing"
    (Invalid_argument "Service: diurnal swing must be in [0, 1)") (fun () ->
      ignore
        (Service.arrival_times
           {
             config with
             Service.arrivals = Service.Diurnal { period = 1000; swing = 1.5 };
           }));
  Alcotest.check_raises "zero horizon"
    (Invalid_argument "Service: horizon must be positive") (fun () ->
      ignore (Service.arrival_times { config with Service.horizon = Some 0 }));
  Alcotest.check_raises "retries without deadline"
    (Invalid_argument "Service: retries require a deadline") (fun () ->
      ignore
        (Service.arrival_times
           {
             config with
             Service.resilience =
               { Service.no_resilience with Service.retries = 1 };
           }))

let test_arrival_grammar_roundtrip () =
  (* Every process's printed name must re-parse to itself (the CLI and
     the outcome's [arrivals] field share this grammar). *)
  List.iter
    (fun a ->
      let name = Service.arrival_name a in
      match Service.arrival_of_string name with
      | Ok b -> checkb (name ^ " round-trips") true (a = b)
      | Error m -> Alcotest.fail (name ^ ": " ^ m))
    [
      Service.Poisson;
      Service.Bursty { burst = 1 };
      Service.Bursty { burst = 16 };
      Service.Diurnal { period = 200_000_000; swing = 0.8 };
      Service.Diurnal { period = 5; swing = 0.0 };
    ];
  (* Bare names keep their stock parameters; the paren spelling parses. *)
  checkb "bare bursty" true
    (Service.arrival_of_string "bursty" = Ok (Service.Bursty { burst = 8 }));
  checkb "paren spelling" true
    (Service.arrival_of_string "bursty(16)" = Ok (Service.Bursty { burst = 16 }))

let test_arrival_grammar_errors () =
  let err s expected =
    match Service.arrival_of_string s with
    | Ok _ -> Alcotest.fail (s ^ " unexpectedly parsed")
    | Error m -> check Alcotest.string s expected m
  in
  err "bursty:0" "arrival \"bursty:0\": burst must be positive";
  err "bursty:many" "arrival \"bursty:many\": malformed burst \"many\"";
  err "diurnal:0,0.5"
    "arrival \"diurnal:0,0.5\": need period > 0 and swing in [0, 1)";
  err "diurnal:1000,1.5"
    "arrival \"diurnal:1000,1.5\": need period > 0 and swing in [0, 1)";
  err "diurnal:1000,x"
    "arrival \"diurnal:1000,x\": malformed parameters \"1000,x\"";
  err "diurnal:1000" "arrival \"diurnal:1000\": diurnal takes PERIOD,SWING";
  err "sawtooth"
    "unknown arrival process \"sawtooth\" (known: poisson, bursty[:N], \
     diurnal[:PERIOD,SWING])"

(* ------------------------------------------------------------------ *)
(* Request conservation and validation                                 *)
(* ------------------------------------------------------------------ *)

let test_run_conserves_requests () =
  let o = Service.run ~config ~scheme:Scheme.Baseline trace in
  checki "dispatched" config.Service.requests o.Service.dispatched;
  checki "conservation" o.Service.dispatched
    (o.Service.completed + o.Service.in_flight);
  checki "no horizon, nothing in flight" 0 o.Service.in_flight;
  checki "one histogram observation per completion" o.Service.completed
    (Histogram.count o.Service.latency_h);
  checki "one latency per completion" o.Service.completed
    (Array.length o.Service.latencies);
  Array.iter
    (fun l -> checkb "non-negative latency" true (l >= 0.0))
    o.Service.latencies;
  checki "pool instances finalized" config.Service.pool
    (List.length o.Service.results);
  Service.assert_valid o

let test_run_horizon_in_flight () =
  (* A horizon inside the run leaves requests in flight; conservation
     and the validation battery must still hold. *)
  let full = Service.run ~config ~scheme:Scheme.Baseline trace in
  let horizon = Some (full.Service.makespan / 2) in
  let o =
    Service.run ~config:{ config with Service.horizon } ~scheme:Scheme.Baseline
      trace
  in
  checkb "some requests in flight" true (o.Service.in_flight > 0);
  checki "conservation with horizon" o.Service.dispatched
    (o.Service.completed + o.Service.in_flight);
  checki "histogram tracks completions only" o.Service.completed
    (Histogram.count o.Service.latency_h);
  Service.assert_valid o

let test_run_under_chaos_validates () =
  List.iter
    (fun plan ->
      let o = Service.run ~config ~fault_plan:plan ~scheme:Scheme.dfp_stop trace in
      check Alcotest.string "plan recorded" plan.Fault_plan.name
        o.Service.fault_plan;
      checki "conservation under chaos" o.Service.dispatched
        (o.Service.completed + o.Service.in_flight);
      Service.assert_valid o)
    [ Fault_plan.jittery_channel; Fault_plan.garbled_trace ]

let test_inert_resilience_identity () =
  (* Resilience knobs that can never fire (astronomical deadline and
     hedge trigger, no crash plan) must leave the dispatch math — and
     therefore every latency — exactly as [no_resilience] computes it. *)
  let plain = Service.run ~config ~scheme:Scheme.Baseline trace in
  let guarded =
    Service.run
      ~config:
        {
          config with
          Service.resilience =
            {
              Service.no_resilience with
              Service.deadline = Some max_int;
              retries = 3;
              retry_backoff = 1;
              hedge_after = Some (max_int / 2);
            };
        }
      ~scheme:Scheme.Baseline trace
  in
  check
    Alcotest.(array (float 1e-9))
    "latencies identical" plain.Service.latencies guarded.Service.latencies;
  checki "completed identical" plain.Service.completed
    guarded.Service.completed;
  checki "makespan identical" plain.Service.makespan guarded.Service.makespan;
  checki "nothing failed" 0 guarded.Service.failed;
  checki "nothing retried" 0 guarded.Service.retried;
  checki "nothing hedged" 0 guarded.Service.hedged;
  checki "attempts = dispatched" guarded.Service.dispatched
    guarded.Service.attempts;
  checki "no crashes" 0 guarded.Service.crashes;
  Service.assert_valid guarded

let test_chaos_degrades_tail () =
  let clean = Service.run ~config ~scheme:Scheme.Baseline trace in
  let jittery =
    Service.run ~config ~fault_plan:Fault_plan.jittery_channel
      ~scheme:Scheme.Baseline trace
  in
  checkb "jittery channel lengthens the p99 tail" true
    (Service.quantile jittery 0.99 > Service.quantile clean 0.99)

(* ------------------------------------------------------------------ *)
(* Transition cost                                                     *)
(* ------------------------------------------------------------------ *)

let test_switchless_shortens_latency () =
  let sync = Service.run ~config ~scheme:Scheme.Baseline trace in
  let swl =
    Service.run ~config:{ config with Service.switchless = true }
      ~scheme:Scheme.Baseline trace
  in
  checkb "switchless flagged" true swl.Service.switchless;
  (* Every request pays t_notify instead of EENTER+EEXIT, so each
     latency (queueing included) can only shrink. *)
  Array.iteri
    (fun k l -> checkb "per-request no slower" true (l <= sync.Service.latencies.(k)))
    swl.Service.latencies;
  checkb "median strictly faster" true
    (Service.quantile swl 0.5 < Service.quantile sync 0.5)

let test_native_transitions_free () =
  (* Native has no enclave boundary: the switchless discount must be a
     no-op, not a negative cost. *)
  let sync = Service.run ~config ~scheme:Scheme.Native trace in
  let swl =
    Service.run ~config:{ config with Service.switchless = true }
      ~scheme:Scheme.Native trace
  in
  check
    Alcotest.(array (float 1e-9))
    "identical latencies" sync.Service.latencies swl.Service.latencies

(* ------------------------------------------------------------------ *)
(* Quantiles and throughput                                            *)
(* ------------------------------------------------------------------ *)

let test_quantile_endpoints_and_monotonicity () =
  let o = Service.run ~config ~scheme:Scheme.Baseline trace in
  let sorted = Array.copy o.Service.latencies in
  Array.sort compare sorted;
  check (Alcotest.float 1e-9) "q0 is the minimum" sorted.(0)
    (Service.quantile o 0.0);
  check (Alcotest.float 1e-9) "q1 is the maximum"
    sorted.(Array.length sorted - 1)
    (Service.quantile o 1.0);
  List.fold_left
    (fun prev q ->
      let v = Service.quantile o q in
      checkb (Printf.sprintf "monotone at %.3f" q) true (v >= prev);
      v)
    neg_infinity
    [ 0.0; 0.5; 0.9; 0.95; 0.99; 0.999; 1.0 ]
  |> ignore

let test_throughput_positive () =
  let o = Service.run ~config ~scheme:Scheme.Baseline trace in
  checkb "positive throughput" true (Service.throughput o > 0.0);
  checkb "makespan covers the last arrival" true
    (o.Service.makespan
    >= (Service.arrival_times config).(config.Service.requests - 1))

(* ------------------------------------------------------------------ *)
(* Matrix determinism                                                  *)
(* ------------------------------------------------------------------ *)

let tags = [ "baseline"; "dfp-stop"; "native" ]

let scheme_for = function
  | "baseline" -> Scheme.Baseline
  | "dfp-stop" -> Scheme.dfp_stop
  | "native" -> Scheme.Native
  | t -> invalid_arg t

let matrix jobs =
  Sim.Job_pool.run ~jobs
    (Service.matrix ~config ~label:"service" ~scheme_for ~tags trace)

let test_matrix_parallel_equals_serial () =
  let render cells = Table.render (Service.summary_table cells) in
  let serial = matrix 1 in
  let forked = matrix 2 in
  check
    Alcotest.(list string)
    "tag order preserved" tags (List.map fst serial);
  check Alcotest.string "summary bytes identical" (render serial) (render forked)

let test_matrix_rerun_identical () =
  let render cells = Table.render (Service.summary_table cells) in
  let a = matrix 1 in
  let b = matrix 1 in
  check Alcotest.string "same seed, same table" (render a) (render b)

(* ------------------------------------------------------------------ *)
(* Validate.check_service direct coverage                              *)
(* ------------------------------------------------------------------ *)

let test_check_service_flags_violations () =
  let h = Histogram.create ~auto_expand:true ~lo:0.0 ~hi:100.0 ~buckets:4 () in
  Histogram.add h 10.0;
  Histogram.add h 20.0;
  (* Conservation broken: 3 <> 2 + 0. *)
  let vs =
    Validate.check_service ~dispatched:3 ~completed:2 ~in_flight:0 ~latency:h []
  in
  checkb "conservation violation reported" true
    (List.exists (fun (x : Validate.violation) -> x.check = "service-conservation") vs);
  (* Count mismatch: histogram holds 2, claim 3 completed. *)
  let vs2 =
    Validate.check_service ~dispatched:3 ~completed:3 ~in_flight:0 ~latency:h []
  in
  checkb "latency-count violation reported" true
    (List.exists (fun (x : Validate.violation) -> x.check = "service-latency") vs2);
  (* nan latency is rejected even though the histogram quarantines it. *)
  Histogram.add h Float.nan;
  let vs3 =
    Validate.check_service ~dispatched:3 ~completed:3 ~in_flight:0 ~latency:h []
  in
  checkb "nan latency reported" true
    (List.exists
       (fun (x : Validate.violation) ->
         x.check = "service-latency"
         && String.length x.detail >= 3
         && String.sub x.detail 0 3 = "1 n")
       vs3);
  (* A healthy outcome reports nothing. *)
  let ok = Histogram.create ~auto_expand:true ~lo:0.0 ~hi:100.0 ~buckets:4 () in
  Histogram.add ok 10.0;
  checki "healthy run clean" 0
    (List.length
       (Validate.check_service ~dispatched:2 ~completed:1 ~in_flight:1
          ~latency:ok []))

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "service"
    [
      ( "arrivals",
        [
          tc "deterministic" test_arrivals_deterministic;
          tc "seed sensitive" test_arrivals_seed_sensitive;
          tc "non-decreasing" test_arrivals_non_decreasing;
          tc "bursty groups" test_arrivals_bursty_groups;
          tc "bad config rejected" test_arrivals_bad_config_rejected;
          tc "grammar round-trips" test_arrival_grammar_roundtrip;
          tc "grammar errors" test_arrival_grammar_errors;
        ] );
      ( "conservation",
        [
          tc "requests conserved" test_run_conserves_requests;
          tc "horizon leaves in-flight" test_run_horizon_in_flight;
          tc "inert resilience identity" test_inert_resilience_identity;
          tc "chaos validates" test_run_under_chaos_validates;
          tc "chaos degrades tail" test_chaos_degrades_tail;
        ] );
      ( "transitions",
        [
          tc "switchless shortens latency" test_switchless_shortens_latency;
          tc "native transitions free" test_native_transitions_free;
        ] );
      ( "report",
        [
          tc "quantile endpoints and monotonicity"
            test_quantile_endpoints_and_monotonicity;
          tc "throughput positive" test_throughput_positive;
        ] );
      ( "matrix",
        [
          tc "parallel equals serial" test_matrix_parallel_equals_serial;
          tc "rerun identical" test_matrix_rerun_identical;
        ] );
      ( "validate",
        [ tc "check_service flags violations" test_check_service_flags_violations ] );
    ]
