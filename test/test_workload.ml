(* Tests of the workload substrate: pattern generators, traces, and the
   benchmark model registry. *)

module Prng = Repro_util.Prng
module Access = Workload.Access
module Pattern = Workload.Pattern
module Trace = Workload.Trace
module Input = Workload.Input
module Spec = Workload.Spec
module Vision = Workload.Vision

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let collect ?(seed = 1) pattern =
  List.of_seq (Pattern.run pattern (Prng.create seed))

let pages_of accs = List.map (fun (a : Access.t) -> a.vpage) accs

(* ------------------------------------------------------------------ *)
(* Leaves                                                              *)
(* ------------------------------------------------------------------ *)

let test_sequential_order () =
  let accs =
    collect
      (Pattern.sequential ~site:3 ~base:10 ~pages:4 ~events_per_page:2
         ~compute:100 ~jitter:0.0)
  in
  Alcotest.(check (list int)) "page order" [ 10; 10; 11; 11; 12; 12; 13; 13 ]
    (pages_of accs);
  List.iter
    (fun (a : Access.t) ->
      checki "site" 3 a.site;
      checki "compute" 100 a.compute)
    accs

let test_sequential_desc_order () =
  let accs =
    collect
      (Pattern.sequential_desc ~site:0 ~base:0 ~pages:3 ~events_per_page:1
         ~compute:0 ~jitter:0.0)
  in
  Alcotest.(check (list int)) "descending" [ 2; 1; 0 ] (pages_of accs)

let test_strided_covers_all_pages_once () =
  let accs =
    collect
      (Pattern.strided ~site:0 ~base:0 ~pages:10 ~stride:3 ~events_per_page:1
         ~compute:0 ~jitter:0.0)
  in
  let pages = pages_of accs in
  checki "every page exactly once" 10 (List.length pages);
  Alcotest.(check (list int)) "as a set" (List.init 10 Fun.id)
    (List.sort compare pages);
  (* Consecutive accesses within a sub-sweep differ by the stride. *)
  (match pages with
  | a :: b :: _ -> checki "stride apart" 3 (b - a)
  | _ -> Alcotest.fail "unexpected");
  ()

let test_multi_stream_exhausts_all () =
  let accs =
    collect
      (Pattern.multi_stream ~site:0
         ~streams:[ (0, 5); (100, 5); (200, 5) ]
         ~events_per_page:2 ~compute:0 ~jitter:0.0)
  in
  checki "all events" 30 (List.length accs);
  let in_stream base p = p >= base && p < base + 5 in
  checkb "pages from declared streams" true
    (List.for_all
       (fun p -> in_stream 0 p || in_stream 100 p || in_stream 200 p)
       (pages_of accs));
  (* Each stream is internally ascending. *)
  let stream_pages base =
    List.filter (in_stream base) (pages_of accs)
  in
  List.iter
    (fun base ->
      let ps = stream_pages base in
      checkb "ascending" true (List.sort compare ps = ps))
    [ 0; 100; 200 ]

let test_uniform_random_bounds () =
  let accs =
    collect
      (Pattern.uniform_random ~site:0 ~base:50 ~pages:10 ~events:500 ~compute:0
         ~jitter:0.0)
  in
  checki "count" 500 (List.length accs);
  checkb "in range" true
    (List.for_all (fun p -> p >= 50 && p < 60) (pages_of accs))

let test_zipf_bounds_and_skew () =
  let accs =
    collect
      (Pattern.zipf ~site:0 ~base:0 ~pages:100 ~events:5000 ~s:1.3 ~compute:0
         ~jitter:0.0)
  in
  checkb "in range" true (List.for_all (fun p -> p >= 0 && p < 100) (pages_of accs));
  let head = List.length (List.filter (fun p -> p < 5) (pages_of accs)) in
  checkb "head heavy" true (head > 5000 / 10)

let test_pointer_chase_locality () =
  let accs =
    collect
      (Pattern.pointer_chase ~site:0 ~base:0 ~pages:1000 ~events:2000
         ~locality:1.0 ~compute:0 ~jitter:0.0)
  in
  (* With locality 1.0 every step is within +/-2 pages. *)
  let rec steps = function
    | a :: (b : int) :: rest -> abs (b - a) <= 2 && steps (b :: rest)
    | _ -> true
  in
  checkb "small steps" true (steps (pages_of accs))

let test_bursty_runs_are_adjacent () =
  let accs =
    collect
      (Pattern.bursty ~site:0 ~base:0 ~pages:1000 ~events:600 ~run_min:2
         ~run_max:4 ~events_per_page:1 ~compute:0 ~jitter:0.0)
  in
  (* Each consecutive pair is either +1 (inside a run) or a jump. *)
  let pages = pages_of accs in
  let rec count_steps inc jump = function
    | a :: (b : int) :: rest ->
      if b - a = 1 then count_steps (inc + 1) jump (b :: rest)
      else count_steps inc (jump + 1) (b :: rest)
    | _ -> (inc, jump)
  in
  let inc, jump = count_steps 0 0 pages in
  checkb "has sequential steps" true (inc > 100);
  checkb "has jumps" true (jump > 50)

let test_mixed_site_ranges () =
  let accs =
    collect
      (Pattern.mixed_site ~site:0 ~hot_base:0 ~hot_pages:10 ~cold_base:100
         ~cold_pages:50 ~events:2000 ~irregular_ratio:0.3 ~compute:0 ~jitter:0.0)
  in
  let hot, cold =
    List.partition (fun p -> p < 10) (pages_of accs)
  in
  checkb "cold in range" true (List.for_all (fun p -> p >= 100 && p < 150) cold);
  let ratio = float_of_int (List.length cold) /. 2000.0 in
  checkb "ratio near 0.3" true (ratio > 0.2 && ratio < 0.4);
  checkb "hot majority" true (List.length hot > List.length cold)

let test_jitter_spreads_compute () =
  let accs =
    collect
      (Pattern.sequential ~site:0 ~base:0 ~pages:100 ~events_per_page:1
         ~compute:1000 ~jitter:0.5)
  in
  let computes = List.map (fun (a : Access.t) -> a.compute) accs in
  checkb "within band" true (List.for_all (fun x -> x >= 500 && x <= 1500) computes);
  checkb "not constant" true
    (List.exists (fun x -> x <> List.hd computes) computes)

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)
(* ------------------------------------------------------------------ *)

let seq_leaf base =
  Pattern.sequential ~site:0 ~base ~pages:3 ~events_per_page:1 ~compute:0
    ~jitter:0.0

let test_seq_list_concatenates () =
  let accs = collect (Pattern.seq_list [ seq_leaf 0; seq_leaf 10 ]) in
  Alcotest.(check (list int)) "phases in order" [ 0; 1; 2; 10; 11; 12 ]
    (pages_of accs)

let test_repeat () =
  let accs = collect (Pattern.repeat 3 (seq_leaf 0)) in
  checki "three rounds" 9 (List.length accs);
  Alcotest.(check (list int)) "rounds" [ 0; 1; 2; 0; 1; 2; 0; 1; 2 ]
    (pages_of accs)

let test_take () =
  let accs = collect (Pattern.take 2 (seq_leaf 0)) in
  Alcotest.(check (list int)) "prefix" [ 0; 1 ] (pages_of accs)

let test_interleave_exhausts_all () =
  let accs = collect (Pattern.interleave [ seq_leaf 0; seq_leaf 10; seq_leaf 20 ]) in
  checki "all events survive the merge" 9 (List.length accs);
  Alcotest.(check (list int)) "as a multiset" [ 0; 1; 2; 10; 11; 12; 20; 21; 22 ]
    (List.sort compare (pages_of accs));
  (* Relative order inside each source is preserved. *)
  let sub lo = List.filter (fun p -> p >= lo && p < lo + 3) (pages_of accs) in
  List.iter
    (fun lo ->
      Alcotest.(check (list int)) "source order kept" [ lo; lo + 1; lo + 2 ] (sub lo))
    [ 0; 10; 20 ]

let test_weighted_interleave_respects_weights () =
  let big =
    Pattern.uniform_random ~site:1 ~base:0 ~pages:10 ~events:900 ~compute:0
      ~jitter:0.0
  in
  let small =
    Pattern.uniform_random ~site:2 ~base:0 ~pages:10 ~events:900 ~compute:0
      ~jitter:0.0
  in
  let accs = collect (Pattern.weighted_interleave [ (9, big); (1, small) ]) in
  (* In the first 200 events, the weight-9 source should dominate. *)
  let first = List.filteri (fun i _ -> i < 200) accs in
  let site1 = List.length (List.filter (fun (a : Access.t) -> a.site = 1) first) in
  checkb "weighted" true (site1 > 140)

let test_empty_pattern () =
  checki "no events" 0 (List.length (collect Pattern.empty))

let test_on_thread_stamps () =
  let accs = collect (Pattern.on_thread 3 (seq_leaf 0)) in
  checkb "all stamped" true
    (List.for_all (fun (a : Access.t) -> a.thread = 3) accs);
  let default = collect (seq_leaf 0) in
  checkb "leaves default to thread 0" true
    (List.for_all (fun (a : Access.t) -> a.thread = 0) default)

let test_parallel_merges_threads () =
  let accs = collect (Pattern.parallel [ (0, seq_leaf 0); (5, seq_leaf 10) ]) in
  checki "all events" 6 (List.length accs);
  let threads =
    List.sort_uniq compare (List.map (fun (a : Access.t) -> a.thread) accs)
  in
  Alcotest.(check (list int)) "both threads present" [ 0; 5 ] threads;
  (* Thread stamping matches the source region. *)
  List.iter
    (fun (a : Access.t) ->
      checki "region matches thread" (if a.vpage < 10 then 0 else 5) a.thread)
    accs

let test_mt_scan_model () =
  let trace =
    Workload.Parallel_apps.mt_scan ~threads:4 ~epc_pages:128
      ~input:(Input.Ref 0)
  in
  let threads = Hashtbl.create 8 in
  Seq.iter
    (fun (a : Access.t) -> Hashtbl.replace threads a.thread ())
    (Seq.take 20_000 (Trace.events trace));
  checki "all four threads appear" 4 (Hashtbl.length threads)

let test_mt_models_validate () =
  Alcotest.check_raises "zero threads rejected"
    (Invalid_argument "Parallel_apps.mt_scan: threads must be positive")
    (fun () ->
      ignore
        (Workload.Parallel_apps.mt_scan ~threads:0 ~epc_pages:64
           ~input:(Input.Ref 0)))

(* Reference models for the two generators that keep int state: their
   list- and closure-based versions, kept as they were.  The properties
   below require the same events from both and the same PRNG draws, so
   traces, arena fingerprints and digests cannot move. *)
module Reference_pattern = struct
  let draw_compute prng ~compute ~jitter =
    if jitter <= 0.0 || compute = 0 then compute
    else begin
      let spread = int_of_float (float_of_int compute *. jitter) in
      if spread = 0 then compute
      else max 0 (Prng.int_in prng (compute - spread) (compute + spread))
    end

  let event prng ~site ~vpage ~compute ~jitter =
    Access.make ~site ~vpage ~compute:(draw_compute prng ~compute ~jitter) ()

  let multi_stream ~site ~streams ~events_per_page ~compute ~jitter prng =
    let cursors =
      Array.of_list
        (List.map (fun (base, pages) -> ref (base, base + pages, 0)) streams)
    in
    let alive () =
      Array.to_list cursors
      |> List.filteri (fun _ c ->
             let pos, limit, _ = !c in
             pos < limit)
      |> List.length
    in
    let rec next () =
      if alive () = 0 then Seq.Nil
      else begin
        let i = Prng.int prng (Array.length cursors) in
        let pos, limit, k = !(cursors.(i)) in
        if pos >= limit then next ()
        else begin
          let acc = event prng ~site ~vpage:pos ~compute ~jitter in
          cursors.(i) :=
            (if k + 1 >= events_per_page then (pos + 1, limit, 0)
             else (pos, limit, k + 1));
          Seq.Cons (acc, next)
        end
      end
    in
    next

  let weighted_interleave weighted prng =
    if weighted = [] then Seq.empty
    else begin
      let dispensers =
        Array.of_list
          (List.map
             (fun (w, t) -> (max 1 w, Seq.to_dispenser (Pattern.run t prng)))
             weighted)
      in
      let alive = Array.make (Array.length dispensers) true in
      let total_weight () =
        let sum = ref 0 in
        Array.iteri (fun i (w, _) -> if alive.(i) then sum := !sum + w) dispensers;
        !sum
      in
      let pick () =
        let total = total_weight () in
        if total = 0 then None
        else begin
          let target = Prng.int prng total in
          let chosen = ref (-1) in
          let acc = ref 0 in
          Array.iteri
            (fun i (w, _) ->
              if alive.(i) && !chosen = -1 then begin
                acc := !acc + w;
                if target < !acc then chosen := i
              end)
            dispensers;
          Some !chosen
        end
      in
      let rec next () =
        match pick () with
        | None -> Seq.Nil
        | Some i -> (
          let _, dispenser = dispensers.(i) in
          match dispenser () with
          | Some acc -> Seq.Cons (acc, next)
          | None ->
            alive.(i) <- false;
            next ())
      in
      next
    end
end

(* The events of a pattern and of its reference model run from the same
   seed, and the draw each leaves the generator at next, agree. *)
let same_draws ~seed pattern reference =
  let run f =
    let prng = Prng.create seed in
    let events = List.of_seq (f prng) in
    (events, Prng.int prng 1_000_000)
  in
  run (Pattern.run pattern) = run reference

let reference_qcheck =
  let open QCheck2 in
  let compute = Gen.(pair (oneofl [ 0; 7; 1000 ]) (oneofl [ 0.0; 0.3; 1.0 ])) in
  [
    Test.make ~name:"multi_stream draws what its reference model does"
      ~count:300
      Gen.(
        quad
          (list_size (int_range 1 8) (pair (int_range 0 500) (int_range (-2) 12)))
          (int_range 1 4) compute (int_bound 100_000))
      (fun (streams, events_per_page, (compute, jitter), seed) ->
        let make f = f ~site:3 ~streams ~events_per_page ~compute ~jitter in
        same_draws ~seed
          (make Pattern.multi_stream)
          (make Reference_pattern.multi_stream));
    (* Children of every kind: fixed-length and empty sweeps, random ones
       that draw per event, a pointer chase that draws when started, and
       a multi-stream; weights include the clamped 0 and -1. *)
    Test.make ~name:"weighted_interleave draws what its reference model does"
      ~count:300
      Gen.(
        triple
          (list_size (int_range 0 6)
             (triple (int_range (-1) 5) (int_range 0 4) (int_range 0 6)))
          compute (int_bound 100_000))
      (fun (children, (compute, jitter), seed) ->
        let child (kind, n) =
          match kind with
          | 0 ->
            Pattern.sequential ~site:0 ~base:0 ~pages:n ~events_per_page:2
              ~compute ~jitter
          | 1 ->
            Pattern.uniform_random ~site:1 ~base:100 ~pages:9 ~events:n
              ~compute ~jitter
          | 2 ->
            Pattern.pointer_chase ~site:2 ~base:200 ~pages:16 ~events:n
              ~locality:0.5 ~compute ~jitter
          | 3 ->
            Pattern.multi_stream ~site:3 ~streams:[ (300, n); (400, 1) ]
              ~events_per_page:1 ~compute ~jitter
          | _ -> Pattern.empty
        in
        let weighted =
          List.map (fun (w, kind, n) -> (w, child (kind, n))) children
        in
        same_draws ~seed
          (Pattern.weighted_interleave weighted)
          (Reference_pattern.weighted_interleave weighted));
  ]

let pattern_qcheck =
  [
    QCheck2.Test.make ~name:"sequential produces pages*epp events" ~count:200
      QCheck2.Gen.(pair (int_range 0 50) (int_range 1 5))
      (fun (pages, epp) ->
        let n =
          List.length
            (collect
               (Pattern.sequential ~site:0 ~base:0 ~pages ~events_per_page:epp
                  ~compute:0 ~jitter:0.0))
        in
        n = pages * epp);
    QCheck2.Test.make ~name:"same seed, same stream" ~count:100
      QCheck2.Gen.(int_range 0 10_000)
      (fun seed ->
        let p =
          Pattern.uniform_random ~site:0 ~base:0 ~pages:64 ~events:50
            ~compute:100 ~jitter:0.5
        in
        collect ~seed p = collect ~seed p);
    QCheck2.Test.make ~name:"strided visits each page epp times" ~count:100
      QCheck2.Gen.(pair (int_range 1 64) (int_range 1 7))
      (fun (pages, stride) ->
        let accs =
          collect
            (Pattern.strided ~site:0 ~base:0 ~pages ~stride ~events_per_page:2
               ~compute:0 ~jitter:0.0)
        in
        let counts = Hashtbl.create 64 in
        List.iter
          (fun (a : Access.t) ->
            Hashtbl.replace counts a.vpage
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts a.vpage)))
          accs;
        Hashtbl.length counts = pages
        && Hashtbl.fold (fun _ c ok -> ok && c = 2) counts true);
  ]

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_replay_identical () =
  let trace = Spec.lbm ~epc_pages:128 ~input:(Input.Ref 0) in
  let a = List.of_seq (Seq.take 500 (Trace.events trace)) in
  let b = List.of_seq (Seq.take 500 (Trace.events trace)) in
  checkb "replay identical" true (a = b)

let test_trace_inputs_differ () =
  let t0 = Spec.deepsjeng ~epc_pages:128 ~input:(Input.Ref 0) in
  let t1 = Spec.deepsjeng ~epc_pages:128 ~input:(Input.Ref 1) in
  let a = List.of_seq (Seq.take 200 (Trace.events t0)) in
  let b = List.of_seq (Seq.take 200 (Trace.events t1)) in
  checkb "different inputs diverge" true (a <> b)

let test_trace_site_names () =
  let trace = Spec.lbm ~epc_pages:128 ~input:(Input.Ref 0) in
  Alcotest.(check string) "known" "stream_src" (Trace.site_name trace 0);
  Alcotest.(check string) "fallback" "site99" (Trace.site_name trace 99)

let test_trace_length_and_distinct () =
  let trace =
    Trace.make ~name:"tiny" ~elrange_pages:8 ~footprint_pages:4 ~seed:1
      ~sites:[]
      (Pattern.sequential ~site:0 ~base:0 ~pages:4 ~events_per_page:3
         ~compute:0 ~jitter:0.0)
  in
  checki "length" 12 (Trace.length trace);
  checki "distinct" 4 (Trace.count_distinct_pages trace)

(* ------------------------------------------------------------------ *)
(* Trace IO                                                            *)
(* ------------------------------------------------------------------ *)

let with_temp_file f =
  let path = Filename.temp_file "sgx_preload_test" ".trace" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_trace_io_roundtrip () =
  with_temp_file (fun path ->
      let original = Spec.lbm ~epc_pages:64 ~input:(Input.Ref 0) in
      Workload.Trace_io.save_trace original ~path;
      let loaded = Workload.Trace_io.load_trace ~path in
      Alcotest.(check string) "name" original.Trace.name loaded.Trace.name;
      checki "elrange" original.Trace.elrange_pages loaded.Trace.elrange_pages;
      checki "footprint" original.Trace.footprint_pages loaded.Trace.footprint_pages;
      Alcotest.(check string) "site label" (Trace.site_name original 0)
        (Trace.site_name loaded 0);
      let a = List.of_seq (Trace.events original) in
      let b = List.of_seq (Trace.events loaded) in
      checkb "events identical" true (a = b))

let test_trace_io_replayable_twice () =
  with_temp_file (fun path ->
      let original = Spec.exchange2 ~epc_pages:64 ~input:Input.Train in
      Workload.Trace_io.save_trace original ~path;
      let loaded = Workload.Trace_io.load_trace ~path in
      let a = List.of_seq (Trace.events loaded) in
      let b = List.of_seq (Trace.events loaded) in
      checkb "loaded trace replays identically" true (a = b))

let test_trace_io_threads_preserved () =
  with_temp_file (fun path ->
      let original =
        Workload.Parallel_apps.mt_scan ~threads:3 ~epc_pages:32
          ~input:Input.Train
      in
      Workload.Trace_io.save_trace original ~path;
      let loaded = Workload.Trace_io.load_trace ~path in
      let threads trace =
        Seq.fold_left
          (fun acc (a : Access.t) -> max acc a.thread)
          0
          (Seq.take 5_000 (Trace.events trace))
      in
      checki "max thread id survives" (threads original) (threads loaded))

let test_trace_io_rejects_garbage () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "not a trace\n";
      close_out oc;
      checkb "load fails" true
        (try
           ignore (Workload.Trace_io.load_trace ~path);
           false
         with Failure _ -> true))

let load_error path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  match Workload.Trace_io.load_trace ~path with
  | _ -> Alcotest.fail "expected load_trace to fail"
  | exception Failure msg -> msg

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let test_trace_io_error_messages_not_masked () =
  (* Regression: the parse loop used to catch [Failure _] — including
     the [Failure] its own error reporter raises — so every diagnostic
     collapsed into "malformed field".  Each failure mode must keep its
     own message and line number. *)
  with_temp_file (fun path ->
      let msg =
        load_error path
          "# sgx-preload trace v1\nname t\nelrange 8\nfootprint 4\nbogus line\n"
      in
      checkb "unrecognised line named as such" true
        (contains msg "unrecognised line");
      checkb "line number points at the bogus line" true (contains msg "line 5");
      let msg =
        load_error path
          "# sgx-preload trace v1\nname t\nelrange 8\nfootprint 4\na 1 xyz 0 0\n"
      in
      checkb "bad int names the field" true
        (contains msg "malformed vpage field");
      checkb "bad int keeps the offending text" true (contains msg "xyz"))

let test_trace_io_validates_footprint () =
  with_temp_file (fun path ->
      checkb "missing footprint rejected" true
        (contains
           (load_error path "# sgx-preload trace v1\nname t\nelrange 8\n")
           "missing or invalid footprint");
      checkb "footprint above elrange rejected" true
        (contains
           (load_error path
              "# sgx-preload trace v1\nname t\nelrange 8\nfootprint 9\n")
           "exceeds elrange");
      checkb "missing elrange still rejected" true
        (contains
           (load_error path "# sgx-preload trace v1\nname t\nfootprint 4\n")
           "missing or invalid elrange"))

(* ------------------------------------------------------------------ *)
(* Trace stats                                                         *)
(* ------------------------------------------------------------------ *)

let test_stats_of_sequential () =
  let trace =
    Trace.make ~name:"t" ~elrange_pages:100 ~footprint_pages:10 ~seed:1
      ~sites:[]
      (Pattern.sequential ~site:0 ~base:0 ~pages:10 ~events_per_page:2
         ~compute:5 ~jitter:0.0)
  in
  let s = Workload.Trace_stats.analyse trace in
  checki "events" 20 s.events;
  checki "distinct" 10 s.distinct_pages;
  checki "sites" 1 s.sites;
  checki "threads" 1 s.threads;
  checki "compute" 100 s.total_compute;
  checki "sequential pairs" 9 s.sequential_pairs;
  checki "same-page pairs" 10 s.same_page_pairs

let test_stats_repeat_interrupts_run () =
  (* Pages 5, 6, 6, 7: the repeated 6 must terminate the first run and
     seed a new one — it used to bridge [5;6] and [6;7] into a single
     4-page run because [close_run] fired with the run counter already
     reset. *)
  let events =
    List.map (fun vpage -> Access.make ~site:0 ~vpage ~compute:1 ()) [ 5; 6; 6; 7 ]
  in
  let trace =
    Trace.make ~name:"repeat" ~elrange_pages:16 ~footprint_pages:3 ~seed:1
      ~sites:[] (Pattern.of_events events)
  in
  let s = Workload.Trace_stats.analyse trace in
  checki "events" 4 s.events;
  checki "sequential pairs" 2 s.sequential_pairs;
  checki "same-page pairs" 1 s.same_page_pairs;
  Alcotest.(check (float 1e-9)) "two runs of two pages" 2.0 s.run_length_mean

let test_stats_miss_ratio_bounds () =
  let trace = Spec.deepsjeng ~epc_pages:128 ~input:Input.Train in
  let big = Workload.Trace_stats.miss_ratio trace ~epc_pages:1_000_000 in
  let small = Workload.Trace_stats.miss_ratio trace ~epc_pages:16 in
  checkb "huge cache only cold misses" true (big < 0.5);
  checkb "tiny cache misses more" true (small > big);
  checkb "ratios in [0,1]" true (big >= 0.0 && small <= 1.0)

let test_stats_miss_ratio_curve_monotone () =
  let trace = Spec.leela ~epc_pages:128 ~input:Input.Train in
  let curve =
    Workload.Trace_stats.miss_ratio_curve trace ~epc_pages:[ 8; 64; 512 ]
  in
  match curve with
  | [ (_, a); (_, b); (_, c) ] ->
    checkb "monotone non-increasing" true (a >= b && b >= c)
  | _ -> Alcotest.fail "expected three points"

(* ------------------------------------------------------------------ *)
(* Synthetic boundary workloads                                        *)
(* ------------------------------------------------------------------ *)

let test_synthetic_registry () =
  checki "three models" 3 (List.length Workload.Synthetic.all);
  checkb "oram known" true (Workload.Synthetic.by_name "oram" <> None);
  checkb "unknown none" true (Workload.Synthetic.by_name "nope" = None)

let test_oram_differs_per_input () =
  let t0 = Workload.Synthetic.oram ~epc_pages:64 ~input:(Input.Ref 0) in
  let t1 = Workload.Synthetic.oram ~epc_pages:64 ~input:(Input.Ref 1) in
  let take t = List.of_seq (Seq.take 100 (Trace.events t)) in
  checkb "sequences differ across runs (the §3.1 ORAM point)" true
    (take t0 <> take t1)

let test_best_case_is_one_run () =
  let trace = Workload.Synthetic.best_case ~epc_pages:16 ~input:Input.Train in
  let s = Workload.Trace_stats.analyse trace in
  checkb "single long run" true (s.run_length_mean > 20.0)

(* ------------------------------------------------------------------ *)
(* Input                                                               *)
(* ------------------------------------------------------------------ *)

let test_input_seeds_distinct () =
  checkb "train vs ref" true
    (Input.seed_of Input.Train ~base:5 <> Input.seed_of (Input.Ref 0) ~base:5);
  checkb "refs distinct" true
    (Input.seed_of (Input.Ref 0) ~base:5 <> Input.seed_of (Input.Ref 1) ~base:5)

let test_input_sizes () =
  checkb "train smaller" true (Input.size_factor Input.Train < 1.0);
  checkb "ref full size" true (Input.size_factor (Input.Ref 0) >= 1.0)

let test_input_strings () =
  Alcotest.(check string) "train" "train" (Input.to_string Input.Train);
  Alcotest.(check string) "ref2" "ref2" (Input.to_string (Input.Ref 2));
  checkb "equal" true (Input.equal (Input.Ref 1) (Input.Ref 1));
  checkb "not equal" false (Input.equal Input.Train (Input.Ref 0))

let test_input_of_string () =
  let ok s i =
    match Input.of_string s with
    | Ok parsed -> checkb (s ^ " parses") true (Input.equal parsed i)
    | Error m -> Alcotest.fail (s ^ " rejected: " ^ m)
  in
  let rejected s =
    checkb (s ^ " rejected") true
      (match Input.of_string s with Error _ -> true | Ok _ -> false)
  in
  ok "train" Input.Train;
  ok "ref0" (Input.Ref 0);
  ok "ref12" (Input.Ref 12);
  (* Round trip through to_string. *)
  List.iter
    (fun i -> ok (Input.to_string i) i)
    [ Input.Train; Input.Ref 0; Input.Ref 7 ];
  (* A negative index used to parse ("ref-1" -> Ref (-1)) and silently
     derive a seed; all malformed indices must be rejected. *)
  rejected "ref-1";
  rejected "ref";
  rejected "refx";
  rejected "ref1.5";
  rejected "ref 2";
  rejected "ref0x2";
  rejected "ref1_0";
  rejected "Train";
  rejected ""

(* ------------------------------------------------------------------ *)
(* Benchmark models                                                    *)
(* ------------------------------------------------------------------ *)

let all_names =
  List.map (fun (n, _, _) -> n) Spec.all @ List.map fst Vision.all

let test_registry_complete () =
  checki "15 SPEC models" 15 (List.length Spec.all);
  checki "3 vision models" 3 (List.length Vision.all);
  checkb "lookup works" true
    (List.for_all
       (fun n -> Spec.by_name n <> None || Vision.by_name n <> None)
       all_names);
  checkb "unknown is None" true (Spec.by_name "nonesuch" = None)

let test_models_stay_inside_elrange () =
  List.iter
    (fun name ->
      let model =
        match Spec.by_name name with
        | Some m -> m
        | None -> Option.get (Vision.by_name name)
      in
      let trace = model ~epc_pages:256 ~input:Input.Train in
      let ok = ref true in
      Seq.iter
        (fun (a : Access.t) ->
          if a.vpage < 0 || a.vpage >= trace.Trace.elrange_pages then ok := false)
        (Seq.take 30_000 (Trace.events trace));
      checkb (name ^ " within ELRANGE") true !ok)
    all_names

let test_large_ws_footprints_exceed_epc () =
  List.iter
    (fun name ->
      let model = Option.get (Spec.by_name name) in
      let trace = model ~epc_pages:256 ~input:(Input.Ref 0) in
      checkb
        (name ^ " exceeds EPC")
        true
        (trace.Trace.footprint_pages > 256))
    Spec.large_working_set

let test_small_ws_fit_in_epc () =
  List.iter
    (fun (name, category, model) ->
      if category = Spec.Small_working_set then begin
        let trace = model ~epc_pages:256 ~input:(Input.Ref 0) in
        checkb (name ^ " fits in EPC") true (trace.Trace.footprint_pages <= 256)
      end)
    Spec.all

let test_sip_support_matches_paper () =
  checkb "bwaves is Fortran" false (Spec.sip_supported "bwaves");
  checkb "roms is Fortran" false (Spec.sip_supported "roms");
  checkb "wrf is Fortran" false (Spec.sip_supported "wrf");
  checkb "omnetpp excluded" false (Spec.sip_supported "omnetpp");
  checkb "deepsjeng supported" true (Spec.sip_supported "deepsjeng");
  checkb "mcf supported" true (Spec.sip_supported "mcf");
  checkb "unknown unsupported" false (Spec.sip_supported "nonesuch")

let test_categories () =
  checkb "micro regular" true (Spec.category_of "microbenchmark" = Some Spec.Large_regular);
  checkb "deepsjeng irregular" true (Spec.category_of "deepsjeng" = Some Spec.Large_irregular);
  checkb "leela small" true (Spec.category_of "leela" = Some Spec.Small_working_set);
  checkb "unknown none" true (Spec.category_of "nonesuch" = None)

let test_train_is_smaller () =
  let count input =
    Trace.length (Spec.deepsjeng ~epc_pages:128 ~input)
  in
  checkb "train shorter than ref" true (count Input.Train < count (Input.Ref 0))

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let props = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "workload"
    [
      ( "leaves",
        [
          tc "sequential order" test_sequential_order;
          tc "sequential desc" test_sequential_desc_order;
          tc "strided coverage" test_strided_covers_all_pages_once;
          tc "multi-stream exhausts" test_multi_stream_exhausts_all;
          tc "uniform bounds" test_uniform_random_bounds;
          tc "zipf bounds and skew" test_zipf_bounds_and_skew;
          tc "pointer chase locality" test_pointer_chase_locality;
          tc "bursty adjacency" test_bursty_runs_are_adjacent;
          tc "mixed site ranges" test_mixed_site_ranges;
          tc "jitter" test_jitter_spreads_compute;
        ] );
      ( "combinators",
        [
          tc "seq_list" test_seq_list_concatenates;
          tc "repeat" test_repeat;
          tc "take" test_take;
          tc "interleave exhausts" test_interleave_exhausts_all;
          tc "weighted interleave" test_weighted_interleave_respects_weights;
          tc "empty" test_empty_pattern;
          tc "on_thread stamps" test_on_thread_stamps;
          tc "parallel merges threads" test_parallel_merges_threads;
          tc "mt_scan model" test_mt_scan_model;
          tc "mt model validation" test_mt_models_validate;
        ]
        @ props (pattern_qcheck @ reference_qcheck) );
      ( "trace",
        [
          tc "replay identical" test_trace_replay_identical;
          tc "inputs differ" test_trace_inputs_differ;
          tc "site names" test_trace_site_names;
          tc "length and distinct" test_trace_length_and_distinct;
        ] );
      ( "trace_io",
        [
          tc "round trip" test_trace_io_roundtrip;
          tc "replayable twice" test_trace_io_replayable_twice;
          tc "threads preserved" test_trace_io_threads_preserved;
          tc "rejects garbage" test_trace_io_rejects_garbage;
          tc "error messages not masked" test_trace_io_error_messages_not_masked;
          tc "validates footprint" test_trace_io_validates_footprint;
        ] );
      ( "trace_stats",
        [
          tc "sequential stats" test_stats_of_sequential;
          tc "repeat interrupts run" test_stats_repeat_interrupts_run;
          tc "miss ratio bounds" test_stats_miss_ratio_bounds;
          tc "miss curve monotone" test_stats_miss_ratio_curve_monotone;
        ] );
      ( "synthetic",
        [
          tc "registry" test_synthetic_registry;
          tc "oram differs per input" test_oram_differs_per_input;
          tc "best case one run" test_best_case_is_one_run;
        ] );
      ( "input",
        [
          tc "seeds distinct" test_input_seeds_distinct;
          tc "sizes" test_input_sizes;
          tc "strings" test_input_strings;
          tc "of_string" test_input_of_string;
        ] );
      ( "models",
        [
          tc "registry complete" test_registry_complete;
          tc "inside ELRANGE" test_models_stay_inside_elrange;
          tc "large WS exceed EPC" test_large_ws_footprints_exceed_epc;
          tc "small WS fit" test_small_ws_fit_in_epc;
          tc "SIP support list" test_sip_support_matches_paper;
          tc "categories" test_categories;
          tc "train smaller" test_train_is_smaller;
        ] );
    ]
