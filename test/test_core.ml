(* Tests of the paper's core contribution: Algorithm 1, DFP with its
   abort machinery, the SIP profiler/instrumenter, and the ablation
   prefetchers. *)

module SP = Preload.Stream_predictor
module Dfp = Preload.Dfp
module Page_lru = Repro_util.Page_lru
module Profiler = Preload.Sip_profiler
module Instrumenter = Preload.Sip_instrumenter
module Scheme = Preload.Scheme
module Enclave = Sgxsim.Enclave

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Stream predictor (Algorithm 1)                                      *)
(* ------------------------------------------------------------------ *)

let predictor ?(len = 4) ?(ll = 4) ?detect_backward () =
  SP.create ?detect_backward ~stream_list_length:len ~load_length:ll ()

let verdict =
  Alcotest.testable
    (fun fmt v ->
      Format.pp_print_string fmt
        (match v with
        | SP.Extend -> "Extend"
        | SP.Restart_within -> "Restart_within"
        | SP.New_stream -> "New_stream"))
    ( = )

let check_verdict what expected got = Alcotest.check verdict what expected got

(* What DFP preloads after an [Extend]: the LOADLENGTH pages past the
   head's tail, in its direction, negative pages dropped. *)
let predictions p =
  let npn = SP.head_tail p and dir = SP.head_dir p in
  List.filter
    (fun q -> q >= 0)
    (List.init (SP.load_length p) (fun i -> npn + (dir * (i + 1))))

let head_pending p = List.init (SP.head_pending_count p) (SP.head_pending p)
let dropped p = Array.to_list (Array.sub (SP.dropped p) 0 (SP.dropped_count p))

(* Replace the head's pending pages, as a DFP refresh that kept none of
   the old ones would. *)
let set_head_pending p pages =
  SP.truncate_head_pending p 0;
  List.iter (SP.push_head_pending p) pages

let tails p = List.map (fun (s : SP.stream) -> s.stpn) (SP.streams p)

let test_first_fault_opens_stream () =
  let p = predictor () in
  check_verdict "verdict" SP.New_stream (SP.on_fault p 10);
  checki "tail" 10 (SP.head_tail p);
  checki "no direction yet" 0 (SP.head_dir p);
  checki "nothing replaced" 0 (SP.dropped_count p);
  checki "one stream" 1 (List.length (SP.streams p))

let test_sequential_fault_extends () =
  let p = predictor () in
  ignore (SP.on_fault p 10);
  check_verdict "verdict" SP.Extend (SP.on_fault p 11);
  checki "tail advanced" 11 (SP.head_tail p);
  checki "ascending" 1 (SP.head_dir p);
  Alcotest.(check (list int)) "LOADLENGTH pages ahead" [ 12; 13; 14; 15 ]
    (predictions p);
  checki "nothing dropped" 0 (SP.dropped_count p)

let test_descending_stream_detected () =
  let p = predictor () in
  ignore (SP.on_fault p 10);
  check_verdict "verdict" SP.Extend (SP.on_fault p 9);
  checki "descending" (-1) (SP.head_dir p);
  Alcotest.(check (list int)) "downward predictions" [ 8; 7; 6; 5 ] (predictions p)

let test_backward_detection_can_be_disabled () =
  let p = predictor ~detect_backward:false () in
  ignore (SP.on_fault p 10);
  check_verdict "descending fault must open a new stream" SP.New_stream
    (SP.on_fault p 9)

let test_direction_locks () =
  let p = predictor () in
  ignore (SP.on_fault p 10);
  ignore (SP.on_fault p 11);
  (* Once ascending, 10 is not sequential any more. *)
  check_verdict "locked direction must not re-extend backwards" SP.New_stream
    (SP.on_fault p 10)

let test_predictions_clamped_at_zero () =
  let p = predictor () in
  ignore (SP.on_fault p 2);
  check_verdict "verdict" SP.Extend (SP.on_fault p 1);
  Alcotest.(check (list int)) "no negative pages" [ 0 ] (predictions p)

let test_lru_replacement () =
  let p = predictor ~len:2 () in
  ignore (SP.on_fault p 10);
  set_head_pending p [ 11; 12 ];
  ignore (SP.on_fault p 50);
  check_verdict "verdict" SP.New_stream (SP.on_fault p 90);
  Alcotest.(check (list int)) "LRU evicted" [ 90; 50 ] (tails p);
  Alcotest.(check (list int)) "its pending pages dropped" [ 11; 12 ] (dropped p);
  checki "the new stream starts empty" 0 (SP.head_pending_count p);
  checki "bounded" 2 (List.length (SP.streams p))

let test_hit_promotes_stream () =
  let p = predictor ~len:2 () in
  ignore (SP.on_fault p 10);
  ignore (SP.on_fault p 50);
  (* Extending the older stream must move it to the head: the next
     replacement victim is then 50, not 10's stream. *)
  ignore (SP.on_fault p 11);
  check_verdict "verdict" SP.New_stream (SP.on_fault p 90);
  Alcotest.(check (list int)) "newer got evicted" [ 90; 11 ] (tails p)

let test_restart_within_pending_window () =
  let p = predictor () in
  ignore (SP.on_fault p 1);
  check_verdict "verdict" SP.Extend (SP.on_fault p 2);
  set_head_pending p (predictions p);
  ignore (SP.on_fault p 40);
  (* The paper's example: the fault skips to page 5 while 3..6 are still
     pending -> abort them, restart the stream at 5, which moves back to
     the head. *)
  check_verdict "verdict" SP.Restart_within (SP.on_fault p 5);
  Alcotest.(check (list int)) "aborts the window" [ 3; 4; 5; 6 ] (dropped p);
  checki "restarted at the fault" 5 (SP.head_tail p);
  checki "direction reset" 0 (SP.head_dir p);
  Alcotest.(check (list int)) "pending cleared" [] (head_pending p);
  Alcotest.(check (list int)) "same two streams" [ 5; 40 ] (tails p)

let test_restarted_stream_can_extend_again () =
  let p = predictor () in
  ignore (SP.on_fault p 1);
  check_verdict "verdict" SP.Extend (SP.on_fault p 2);
  set_head_pending p (predictions p);
  ignore (SP.on_fault p 5);
  check_verdict "verdict" SP.Extend (SP.on_fault p 6);
  Alcotest.(check (list int)) "resumes from the restart" [ 7; 8; 9; 10 ]
    (predictions p)

let test_interleaved_streams_both_tracked () =
  let p = predictor ~len:4 () in
  ignore (SP.on_fault p 100);
  ignore (SP.on_fault p 200);
  (* Faults alternate between two sequential regions; both must extend. *)
  let ok = ref true in
  List.iter
    (fun npn -> if SP.on_fault p npn <> SP.Extend then ok := false)
    [ 101; 201; 102; 202; 103; 203 ];
  checkb "multi-stream" true !ok

let test_reset () =
  let p = predictor () in
  ignore (SP.on_fault p 1);
  SP.reset p;
  checki "empty" 0 (List.length (SP.streams p));
  Alcotest.check_raises "no head"
    (Invalid_argument "Stream_predictor: empty stream list") (fun () ->
      ignore (SP.head_tail p))

let test_create_validation () =
  Alcotest.check_raises "bad list length"
    (Invalid_argument "Stream_predictor.create: stream_list_length must be positive")
    (fun () -> ignore (SP.create ~stream_list_length:0 ~load_length:4 ()));
  Alcotest.check_raises "bad load length"
    (Invalid_argument "Stream_predictor.create: load_length must be positive")
    (fun () -> ignore (SP.create ~stream_list_length:4 ~load_length:0 ()))

let predictor_qcheck =
  [
    QCheck2.Test.make ~name:"stream list never exceeds its capacity" ~count:200
      QCheck2.Gen.(pair (int_range 1 8) (list_size (int_range 1 100) (int_range 0 200)))
      (fun (len, faults) ->
        let p = predictor ~len () in
        List.iter (fun f -> ignore (SP.on_fault p f)) faults;
        List.length (SP.streams p) <= len);
    QCheck2.Test.make ~name:"predictions never include the faulted page" ~count:200
      QCheck2.Gen.(list_size (int_range 1 60) (int_range 0 100))
      (fun faults ->
        let p = predictor () in
        List.for_all
          (fun f ->
            match SP.on_fault p f with
            | SP.Extend -> not (List.mem f (predictions p))
            | SP.Restart_within | SP.New_stream -> true)
          faults);
    QCheck2.Test.make ~name:"predictions are contiguous from the fault" ~count:200
      QCheck2.Gen.(list_size (int_range 1 60) (int_range 0 100))
      (fun faults ->
        let p = predictor () in
        List.for_all
          (fun f ->
            match SP.on_fault p f with
            | SP.Extend ->
              let dir = SP.head_dir p in
              SP.head_tail p = f
              && List.for_all2
                   (fun i pred -> pred = f + (dir * (i + 1)))
                   (List.init (List.length (predictions p)) Fun.id)
                   (predictions p)
            | SP.Restart_within | SP.New_stream -> true)
          faults);
  ]

(* The naive reference for the differential test below: Algorithm 1 as
   a plain MRU-first list of records, with none of the predictor's
   layout tricks (no order array, no pending bounds, no single pass). *)
module Naive_predictor = struct
  type entry = { mutable stpn : int; mutable dir : int; mutable pending : int list }

  type reaction =
    | Extend of entry * int list
    | Restart_within of entry * int list
    | New_stream of entry * entry option

  type t = {
    mutable entries : entry list; (* MRU first *)
    capacity : int;
    load_length : int;
    detect_backward : bool;
  }

  let create ~capacity ~load_length ~detect_backward =
    { entries = []; capacity; load_length; detect_backward }

  let continues m e npn dir =
    let delta = (npn - e.stpn) * dir in
    delta >= 1 && delta <= m.load_length + 1

  let sequential_dir m e npn =
    if e.dir <> 0 then if continues m e npn e.dir then e.dir else 0
    else if continues m e npn 1 then 1
    else if m.detect_backward && continues m e npn (-1) then -1
    else 0

  let to_front m e = m.entries <- e :: List.filter (fun x -> x != e) m.entries

  (* §4.4's Class 2 test: 1..LOADLENGTH past a tail, in the stream's
     direction or on either side while it has none. *)
  let covers m page =
    List.exists
      (fun e ->
        let delta = page - e.stpn in
        let ahead d = d >= 1 && d <= m.load_length in
        if e.dir > 0 then ahead delta
        else if e.dir < 0 then ahead (-delta)
        else ahead (abs delta))
      m.entries

  let on_fault m npn =
    match List.find_opt (fun e -> List.mem npn e.pending) m.entries with
    | Some e ->
      let abort = e.pending in
      e.pending <- [];
      e.stpn <- npn;
      e.dir <- 0;
      to_front m e;
      Restart_within (e, abort)
    | None -> (
      match List.find_opt (fun e -> sequential_dir m e npn <> 0) m.entries with
      | Some e ->
        let dir = sequential_dir m e npn in
        e.dir <- dir;
        e.stpn <- npn;
        to_front m e;
        Extend
          ( e,
            List.filter
              (fun p -> p >= 0)
              (List.init m.load_length (fun i -> npn + (dir * (i + 1)))) )
      | None ->
        let fresh = { stpn = npn; dir = 0; pending = [] } in
        if List.length m.entries < m.capacity then begin
          m.entries <- fresh :: m.entries;
          New_stream (fresh, None)
        end
        else begin
          let rev = List.rev m.entries in
          m.entries <- fresh :: List.rev (List.tl rev);
          New_stream (fresh, Some (List.hd rev))
        end)
end

(* Random faults, each followed by a refresh of the head's pending pages
   in DFP's shape — a random subset of the old pages filtered in place,
   then a random subset of the fresh predictions appended — compared with
   the naive model after every step: the verdict, the head, the dropped
   pages, the whole list and [covers]. *)
let predictor_differential =
  let open QCheck2 in
  let gen =
    Gen.(
      quad (int_range 1 6) (int_range 1 5) bool
        (list_size (int_range 1 150) (pair (int_range 0 80) (int_bound 1023))))
  in
  let print (len, ll, back, steps) =
    Printf.sprintf "len=%d ll=%d back=%b steps=[%s]" len ll back
      (String.concat "; "
         (List.map (fun (p, m) -> Printf.sprintf "%d/%d" p m) steps))
  in
  Test.make ~name:"predictor equals a naive list model of Algorithm 1"
    ~count:500 ~print gen (fun (len, ll, back, steps) ->
      let p = predictor ~len ~ll ~detect_backward:back () in
      let m =
        Naive_predictor.create ~capacity:len ~load_length:ll
          ~detect_backward:back
      in
      let view (s : SP.stream) = (s.stpn, s.dir, s.pending) in
      let mview (e : Naive_predictor.entry) = (e.stpn, e.dir, e.pending) in
      let fail step what =
        Test.fail_reportf "step %d: %s differs from the model" step what
      in
      List.iteri
        (fun step (npn, mask) ->
          let model_entry, fresh =
            match (SP.on_fault p npn, Naive_predictor.on_fault m npn) with
            | SP.Extend, Naive_predictor.Extend (e, mpredict) ->
              if predictions p <> mpredict then fail step "predict";
              if dropped p <> [] then fail step "dropped";
              (e, mpredict)
            | SP.Restart_within, Naive_predictor.Restart_within (e, mabort) ->
              if dropped p <> mabort then fail step "dropped";
              (e, [])
            | SP.New_stream, Naive_predictor.New_stream (e, mreplaced) ->
              let mdropped =
                match mreplaced with
                | None -> []
                | Some (r : Naive_predictor.entry) -> r.pending
              in
              if dropped p <> mdropped then fail step "dropped";
              (e, [])
            | _ -> fail step "verdict"
          in
          if (SP.head_tail p, SP.head_dir p, head_pending p) <> mview model_entry
          then fail step "head";
          (* Keep the pages whose bit is set in [mask]. *)
          let bit i = (mask lsr i) land 1 = 1 in
          let old = head_pending p in
          let kept = ref 0 in
          List.iteri
            (fun i page ->
              if bit i then begin
                SP.set_head_pending p !kept page;
                incr kept
              end)
            old;
          SP.truncate_head_pending p !kept;
          List.iteri
            (fun j page ->
              if bit (List.length old + j) then SP.push_head_pending p page)
            fresh;
          let pending = List.filteri (fun i _ -> bit i) (old @ fresh) in
          model_entry.pending <- pending;
          if head_pending p <> pending then fail step "refreshed head";
          if List.map view (SP.streams p) <> List.map mview m.entries then
            fail step "streams";
          for page = -1 to 86 do
            if SP.covers p page <> Naive_predictor.covers m page then
              fail step (Printf.sprintf "covers %d" page)
          done)
        steps;
      true)

(* ------------------------------------------------------------------ *)
(* Page LRU                                                            *)
(* ------------------------------------------------------------------ *)

let test_page_lru_eviction () =
  let l = Page_lru.create ~capacity:2 ~pages:8 in
  checkb "miss" false (Page_lru.touch l 1);
  checkb "miss" false (Page_lru.touch l 2);
  checkb "hit" true (Page_lru.touch l 1);
  (* 2 is now the LRU. *)
  ignore (Page_lru.touch l 3);
  checkb "evicted lru" false (Page_lru.mem l 2);
  checkb "kept recent" true (Page_lru.mem l 1);
  checki "size" 2 (Page_lru.size l)

let test_page_lru_clear () =
  let l = Page_lru.create ~capacity:4 ~pages:8 in
  ignore (Page_lru.touch l 1);
  Page_lru.clear l;
  checki "empty" 0 (Page_lru.size l);
  checkb "gone" false (Page_lru.mem l 1)

let test_page_lru_domain () =
  let l = Page_lru.create ~capacity:2 ~pages:8 in
  checkb "last page" false (Page_lru.touch l 7);
  List.iter
    (fun page ->
      Alcotest.check_raises (Printf.sprintf "page %d" page)
        (Invalid_argument
           (Printf.sprintf "Page_lru: page %d outside [0, 8)" page))
        (fun () -> ignore (Page_lru.touch l page)))
    [ -1; 8 ];
  Alcotest.check_raises "create"
    (Invalid_argument "Page_lru.create: pages must be positive") (fun () ->
      ignore (Page_lru.create ~capacity:1 ~pages:0))

(* The naive reference: the set as a plain MRU-first list, evicting its
   last element when a touch overfills it. *)
type lru_op = Touch of int | Mem of int | Clear

let page_lru_differential =
  let open QCheck2 in
  let gen =
    Gen.(
      int_range 1 16 >>= fun cap ->
      int_range 1 40 >>= fun pages ->
      let page = int_bound (pages - 1) in
      list_size (int_range 1 300)
        (frequency
           [
             (12, map (fun p -> Touch p) page);
             (3, map (fun p -> Mem p) page);
             (1, pure Clear);
           ])
      >|= fun ops -> (cap, pages, ops))
  in
  let print (cap, pages, ops) =
    Printf.sprintf "cap=%d pages=%d ops=[%s]" cap pages
      (String.concat "; "
         (List.map
            (function
              | Touch p -> Printf.sprintf "touch %d" p
              | Mem p -> Printf.sprintf "mem %d" p
              | Clear -> "clear")
            ops))
  in
  Test.make ~name:"touch, mem and size equal a list model" ~count:500 ~print
    gen (fun (cap, pages, ops) ->
      let l = Page_lru.create ~capacity:cap ~pages in
      let model = ref [] in
      let fail step what =
        Test.fail_reportf "op %d: %s differs from the model" step what
      in
      List.iteri
        (fun step op ->
          (match op with
          | Touch p ->
            let was_in = List.mem p !model in
            let m = p :: List.filter (fun q -> q <> p) !model in
            model := List.filteri (fun i _ -> i < cap) m;
            if Page_lru.touch l p <> was_in then fail step "touch"
          | Mem p -> if Page_lru.mem l p <> List.mem p !model then fail step "mem"
          | Clear ->
            Page_lru.clear l;
            model := []);
          for p = 0 to pages - 1 do
            if Page_lru.mem l p <> List.mem p !model then
              fail step (Printf.sprintf "mem %d" p)
          done;
          if Page_lru.size l <> List.length !model then fail step "size")
        ops;
      true)

let page_lru_qcheck =
  [
    QCheck2.Test.make ~name:"size never exceeds capacity" ~count:200
      QCheck2.Gen.(pair (int_range 1 16) (list_size (int_range 1 300) (int_range 0 64)))
      (fun (cap, touches) ->
        let l = Page_lru.create ~capacity:cap ~pages:65 in
        List.iter (fun p -> ignore (Page_lru.touch l p)) touches;
        Page_lru.size l <= cap);
    QCheck2.Test.make ~name:"most recent touch is always in" ~count:200
      QCheck2.Gen.(pair (int_range 1 16) (list_size (int_range 1 100) (int_range 0 64)))
      (fun (cap, touches) ->
        let l = Page_lru.create ~capacity:cap ~pages:65 in
        List.iter (fun p -> ignore (Page_lru.touch l p)) touches;
        match List.rev touches with [] -> true | last :: _ -> Page_lru.mem l last);
    page_lru_differential;
  ]

(* ------------------------------------------------------------------ *)
(* SIP profiler                                                        *)
(* ------------------------------------------------------------------ *)

let profile_of_pattern ?(residency = 64) pattern =
  let trace =
    Workload.Trace.make ~name:"t" ~elrange_pages:100_000 ~footprint_pages:1
      ~seed:5 ~sites:[] pattern
  in
  Profiler.profile
    { Profiler.stream_list_length = 8; load_length = 4; residency_pages = residency }
    trace

let test_profiler_sequential_is_class2 () =
  let profile =
    profile_of_pattern
      (Workload.Pattern.sequential ~site:0 ~base:0 ~pages:200 ~events_per_page:1
         ~compute:0 ~jitter:0.0)
  in
  let counts = Option.get (Profiler.site_counts profile 0) in
  (* First touch opens the stream (Class 3); every subsequent page
     extends it (Class 2). *)
  checki "one opener" 1 counts.c3;
  checki "rest extend" 199 counts.c2

let test_profiler_repeated_touches_are_class1 () =
  let profile =
    profile_of_pattern
      (Workload.Pattern.sequential ~site:0 ~base:0 ~pages:50 ~events_per_page:4
         ~compute:0 ~jitter:0.0)
  in
  let counts = Option.get (Profiler.site_counts profile 0) in
  (* 3 of every 4 touches hit the residency set. *)
  checki "class1" 150 counts.c1;
  checki "class2" 49 counts.c2;
  checki "class3" 1 counts.c3

let test_profiler_random_is_class3 () =
  let profile =
    profile_of_pattern ~residency:16
      (Workload.Pattern.uniform_random ~site:0 ~base:0 ~pages:50_000 ~events:400
         ~compute:0 ~jitter:0.0)
  in
  let counts = Option.get (Profiler.site_counts profile 0) in
  checkb "overwhelmingly irregular" true
    (Profiler.irregular_ratio counts > 0.9);
  checki "all classified" 400 (counts.c1 + counts.c2 + counts.c3)

let test_profiler_totals_and_sites () =
  let pattern =
    Workload.Pattern.seq_list
      [
        Workload.Pattern.sequential ~site:1 ~base:0 ~pages:10 ~events_per_page:1
          ~compute:0 ~jitter:0.0;
        Workload.Pattern.sequential ~site:2 ~base:100 ~pages:10 ~events_per_page:1
          ~compute:0 ~jitter:0.0;
      ]
  in
  let profile = profile_of_pattern pattern in
  checki "two sites" 2 (List.length (Profiler.sites profile));
  let totals = Profiler.totals profile in
  checki "accesses" 20 (totals.c1 + totals.c2 + totals.c3);
  checki "total counter" 20 profile.total_accesses

let test_profiler_records_input () =
  let trace =
    Workload.Trace.make ~name:"t" ~elrange_pages:100 ~footprint_pages:1 ~seed:5
      ~sites:[]
      (Workload.Pattern.sequential ~site:0 ~base:0 ~pages:10 ~events_per_page:1
         ~compute:0 ~jitter:0.0)
  in
  let config =
    { Profiler.stream_list_length = 8; load_length = 4; residency_pages = 64 }
  in
  (* The profiled input names the plan's provenance in reports and saved
     plan files; it used to be hardcoded to "". *)
  let profile = Profiler.profile ~input:"train" config trace in
  Alcotest.(check string) "input recorded" "train" profile.Profiler.input;
  Alcotest.(check string) "workload recorded" "t" profile.Profiler.workload;
  let default = Profiler.profile config trace in
  Alcotest.(check string) "default stays empty" "" default.Profiler.input

let test_classify_one_steps () =
  let predictor = predictor ~len:4 () in
  let cache = Page_lru.create ~capacity:8 ~pages:64 in
  let cls = Profiler.classify_one predictor cache in
  checkb "first sight irregular" true (cls 10 = Profiler.Class3);
  checkb "revisit is class1" true (cls 10 = Profiler.Class1);
  checkb "next page is class2" true (cls 11 = Profiler.Class2);
  checkb "within load-length window is class2" true (cls 14 = Profiler.Class2)

(* ------------------------------------------------------------------ *)
(* SIP instrumenter                                                    *)
(* ------------------------------------------------------------------ *)

let mk_profile specs =
  let t =
    {
      Profiler.workload = "synthetic";
      input = "train";
      config = { Profiler.stream_list_length = 8; load_length = 4; residency_pages = 8 };
      per_site = Repro_util.Int_table.create ~dummy:{ Profiler.c1 = 0; c2 = 0; c3 = 0 };
      total_accesses = 0;
    }
  in
  List.iter
    (fun (site, c1, c2, c3) ->
      Repro_util.Int_table.set t.Profiler.per_site site { Profiler.c1; c2; c3 };
      t.total_accesses <- t.total_accesses + c1 + c2 + c3)
    specs;
  t

let test_instrumenter_threshold () =
  let profile = mk_profile [ (0, 96, 0, 4); (1, 50, 0, 50); (2, 100, 0, 0) ] in
  let plan = Instrumenter.plan_of_profile ~threshold:0.05 profile in
  Alcotest.(check (list int)) "only the irregular site" [ 1 ]
    (Instrumenter.instrumented_sites plan);
  checki "points" 1 (Instrumenter.instrumentation_points plan)

let test_instrumenter_threshold_boundary () =
  (* ratio exactly at the threshold counts as instrumented (>=). *)
  let profile = mk_profile [ (0, 95, 0, 5) ] in
  let plan = Instrumenter.plan_of_profile ~threshold:0.05 profile in
  checki "boundary included" 1 (Instrumenter.instrumentation_points plan)

(* Random plans over small, negative and large site ids (either side of
   the site table's dense range), the empty plan among them; every site
   in [min - 2, max + 2] is probed. *)
let instrumenter_predicate_matches_list =
  let open QCheck2 in
  let site =
    Gen.(
      frequency
        [ (6, int_range 0 64); (2, int_range (-70) (-1)); (2, int_range 4000 4200) ])
  in
  let gen = Gen.(list_size (int_range 0 24) (pair site bool)) in
  let print ds =
    String.concat "; "
      (List.map (fun (s, i) -> Printf.sprintf "%d:%b" s i) ds)
  in
  Test.make ~name:"predicate matches list" ~count:300 ~print gen (fun ds ->
      let decisions =
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) ds
        |> List.map (fun (site, instrument) ->
               {
                 Instrumenter.site;
                 counts = { Profiler.c1 = 0; c2 = 0; c3 = 0 };
                 ratio = 0.0;
                 instrument;
               })
      in
      let plan = { Instrumenter.workload = "w"; threshold = 0.05; decisions } in
      let pred = Instrumenter.site_predicate plan in
      let sites = List.map fst ds in
      let lo = List.fold_left min 0 sites - 2
      and hi = List.fold_left max 0 sites + 2 in
      for s = lo to hi do
        if pred s <> Instrumenter.is_instrumented plan s then
          Test.fail_reportf "site %d: predicate %b" s (pred s)
      done;
      true)

let test_instrumenter_empty_plan () =
  let plan = Instrumenter.empty_plan ~workload:"x" in
  checki "no points" 0 (Instrumenter.instrumentation_points plan);
  checkb "nothing instrumented" false (Instrumenter.is_instrumented plan 0)

let test_default_threshold_is_paper () =
  Alcotest.(check (float 1e-9)) "5%" 0.05 Instrumenter.default_threshold

(* ------------------------------------------------------------------ *)
(* Plan IO                                                             *)
(* ------------------------------------------------------------------ *)

let test_plan_io_roundtrip () =
  let profile = mk_profile [ (0, 96, 0, 4); (1, 50, 0, 50); (7, 100, 3, 0) ] in
  let plan = Instrumenter.plan_of_profile ~threshold:0.05 profile in
  let path = Filename.temp_file "sgx_preload_test" ".plan" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Preload.Plan_io.save plan ~path;
      let loaded = Result.get_ok (Preload.Plan_io.load ~path) in
      Alcotest.(check string) "workload" plan.workload loaded.workload;
      Alcotest.(check (float 1e-6)) "threshold" plan.threshold loaded.threshold;
      checki "decisions" (List.length plan.decisions) (List.length loaded.decisions);
      Alcotest.(check (list int)) "instrumented sites survive"
        (Instrumenter.instrumented_sites plan)
        (Instrumenter.instrumented_sites loaded);
      List.iter2
        (fun (a : Instrumenter.decision) (b : Instrumenter.decision) ->
          checki "site" a.site b.site;
          checki "c1" a.counts.c1 b.counts.c1;
          checki "c3" a.counts.c3 b.counts.c3)
        plan.decisions loaded.decisions)

let test_plan_io_rejects_garbage () =
  let path = Filename.temp_file "sgx_preload_test" ".plan" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc "bogus\n";
      close_out oc;
      checkb "load fails" true (Result.is_error (Preload.Plan_io.load ~path)))

let plan_load_error content =
  let path = Filename.temp_file "sgx_preload_test" ".plan" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      match Preload.Plan_io.load ~path with
      | Ok _ -> Alcotest.fail "expected Plan_io.load to fail"
      | Error msg -> msg)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let plan_header = "# sgx-preload plan v1\n"

let test_plan_io_error_messages_not_masked () =
  (* Regression: like Trace_io, the loader's [Failure _] catch-all used
     to swallow its own diagnostics and report everything as "malformed
     field". *)
  checkb "unrecognised line named as such" true
    (contains
       (plan_load_error (plan_header ^ "workload w\nthreshold 0.05\njunk\n"))
       "unrecognised line");
  checkb "bad int names the field" true
    (contains
       (plan_load_error
          (plan_header ^ "workload w\nthreshold 0.05\ns 1 a 0 0 1\n"))
       "malformed c1 field");
  checkb "bad threshold named" true
    (contains
       (plan_load_error (plan_header ^ "workload w\nthreshold high\n"))
       "malformed threshold field")

let test_plan_io_duplicate_and_missing () =
  checkb "duplicate site rejected" true
    (contains
       (plan_load_error
          (plan_header
         ^ "workload w\nthreshold 0.05\ns 3 1 0 0 1\ns 3 2 0 0 0\n"))
       "duplicate site 3");
  checkb "duplicate workload rejected" true
    (contains
       (plan_load_error (plan_header ^ "workload a\nworkload b\nthreshold 0.05\n"))
       "duplicate workload line");
  checkb "duplicate threshold rejected" true
    (contains
       (plan_load_error
          (plan_header ^ "workload w\nthreshold 0.05\nthreshold 0.1\n"))
       "duplicate threshold line");
  checkb "missing workload rejected" true
    (contains (plan_load_error (plan_header ^ "threshold 0.05\n"))
       "missing workload line");
  checkb "missing threshold rejected" true
    (contains (plan_load_error (plan_header ^ "workload w\n"))
       "missing threshold line")

(* ------------------------------------------------------------------ *)
(* DFP attached to an enclave                                          *)
(* ------------------------------------------------------------------ *)

let test_dfp_preloads_on_stream () =
  let e = Enclave.create ~epc_pages:16 ~elrange_pages:64 () in
  let dfp = Dfp.attach e Dfp.default_config in
  let now = ref 0 in
  (* Sequential walk with compute gaps large enough to hide loads. *)
  for p = 0 to 15 do
    now := Enclave.compute e ~now:!now 60_000;
    now := Enclave.access e ~now:!now p
  done;
  Enclave.sync e ~now:!now;
  let m = Enclave.metrics e in
  checkb "preloads eliminated most faults" true (m.faults < 8);
  checkb "completed some preloads" true (m.preloads_completed > 6);
  let acc, total = Dfp.counters dfp in
  checkb "counters move" true (total > 0);
  checkb "hits harvested after scans" true (acc >= 0)

let test_dfp_stop_fires_on_garbage () =
  let e = Enclave.create ~epc_pages:16 ~elrange_pages:4096 () in
  let dfp = Dfp.attach e { (Dfp.with_stop Dfp.default_config) with stop_margin = 5 } in
  let prng = Repro_util.Prng.create 17 in
  let now = ref 0 in
  (* Adjacent fault pairs at random positions: streams open, predictions
     never hit.  The safety valve must fire. *)
  for _ = 1 to 400 do
    let base = Repro_util.Prng.int prng 4000 in
    now := Enclave.compute e ~now:!now 50_000;
    now := Enclave.access e ~now:!now base;
    now := Enclave.compute e ~now:!now 50_000;
    now := Enclave.access e ~now:!now (base + 1)
  done;
  Enclave.sync e ~now:!now;
  checkb "stopped" true (Dfp.stopped dfp)

let test_dfp_stop_stays_off_on_streams () =
  let e = Enclave.create ~epc_pages:16 ~elrange_pages:8192 () in
  let dfp = Dfp.attach e { (Dfp.with_stop Dfp.default_config) with stop_margin = 5 } in
  let now = ref 0 in
  for p = 0 to 2000 do
    now := Enclave.compute e ~now:!now 50_000;
    now := Enclave.access e ~now:!now p
  done;
  Enclave.sync e ~now:!now;
  checkb "accurate preloading keeps running" false (Dfp.stopped dfp)

(* §4.2 semantics locks: the stop decision in isolation, what the
   counters actually count, and the one-way/cumulative behaviour. *)

let test_dfp_should_stop_boundary () =
  let cfg = { (Dfp.with_stop Dfp.default_config) with stop_margin = 10 } in
  (* Strict inequality: acc + margin = completed/2 does not fire. *)
  checkb "at boundary holds" false (Dfp.should_stop cfg ~acc:40 ~completed:100);
  checkb "one below fires" true (Dfp.should_stop cfg ~acc:39 ~completed:100);
  (* completed/2 is integer floor: 101/2 = 50, same threshold as 100. *)
  checkb "odd completed floors" false (Dfp.should_stop cfg ~acc:40 ~completed:101);
  checkb "floor crossed at 102" true (Dfp.should_stop cfg ~acc:40 ~completed:102);
  (* Early in the run the margin alone keeps DFP alive. *)
  checkb "margin covers cold start" false (Dfp.should_stop cfg ~acc:0 ~completed:20);
  (* Disabled config never stops, however bad the accuracy. *)
  checkb "disabled never fires" false
    (Dfp.should_stop Dfp.default_config ~acc:0 ~completed:1_000_000)

let test_dfp_counters_track_completed_not_issued () =
  (* Abort-heavy run: random adjacent fault pairs open streams whose
     windows are mostly aborted when the stream list recycles.  The
     PreloadCounter must equal preloads_completed — NOT preloads_issued —
     and the AccPreloadCounter must equal the harvested preload_hits. *)
  let e = Enclave.create ~epc_pages:16 ~elrange_pages:4096 () in
  let dfp = Dfp.attach e Dfp.default_config in
  let prng = Repro_util.Prng.create 23 in
  let now = ref 0 in
  for _ = 1 to 300 do
    let base = Repro_util.Prng.int prng 4000 in
    now := Enclave.compute e ~now:!now 50_000;
    now := Enclave.access e ~now:!now base;
    now := Enclave.compute e ~now:!now 50_000;
    now := Enclave.access e ~now:!now (base + 1)
  done;
  Enclave.sync e ~now:!now;
  let m = Enclave.metrics e in
  let acc, total = Dfp.counters dfp in
  checkb "run is abort-heavy" true (m.preloads_issued > m.preloads_completed);
  checki "PreloadCounter = completed" m.preloads_completed total;
  checki "AccPreloadCounter = hits" m.preload_hits acc

let test_dfp_stop_is_one_way () =
  (* Once fired, the stop survives a later perfectly accurate phase: the
     counters are cumulative, never reset, and no preloads are issued
     after the valve closes. *)
  let e = Enclave.create ~epc_pages:16 ~elrange_pages:8192 () in
  let dfp = Dfp.attach e { (Dfp.with_stop Dfp.default_config) with stop_margin = 5 } in
  let prng = Repro_util.Prng.create 17 in
  let now = ref 0 in
  for _ = 1 to 400 do
    let base = Repro_util.Prng.int prng 4000 in
    now := Enclave.compute e ~now:!now 50_000;
    now := Enclave.access e ~now:!now base;
    now := Enclave.compute e ~now:!now 50_000;
    now := Enclave.access e ~now:!now (base + 1)
  done;
  Enclave.sync e ~now:!now;
  checkb "valve fired on garbage" true (Dfp.stopped dfp);
  let issued_at_stop = (Enclave.metrics e).preloads_issued in
  (* Long sequential phase that plain DFP would eat with preloads. *)
  for p = 4096 to 6096 do
    now := Enclave.compute e ~now:!now 50_000;
    now := Enclave.access e ~now:!now p
  done;
  Enclave.sync e ~now:!now;
  checkb "still stopped after accurate phase" true (Dfp.stopped dfp);
  checki "no preloads issued after stop" issued_at_stop
    (Enclave.metrics e).preloads_issued

let test_dfp_steady_state_bound () =
  (* With ample compute between pages, DFP's steady state on an endless
     scan is exactly 1 fault per LOADLENGTH+1 pages (§4.1). *)
  let pages = 500 in
  let e = Enclave.create ~epc_pages:64 ~elrange_pages:pages () in
  ignore (Dfp.attach e Dfp.default_config);
  let now = ref 0 in
  for p = 0 to pages - 1 do
    now := Enclave.compute e ~now:!now 100_000;
    now := Enclave.access e ~now:!now p
  done;
  Enclave.sync e ~now:!now;
  let faults = Sgxsim.Metrics.total_faults (Enclave.metrics e) in
  let expected = pages / (Dfp.default_config.load_length + 1) in
  checkb "within 5% of the L/(L+1) bound" true
    (abs (faults - expected) <= (expected / 20) + 2)

let test_window_fault_extends_stream () =
  (* Steady state from the predictor's view: the next fault of a live
     stream lands LOADLENGTH+1 past the tail and must extend, not open a
     new stream. *)
  let p = predictor () in
  ignore (SP.on_fault p 10);
  ignore (SP.on_fault p 11);
  check_verdict "window fault must extend" SP.Extend (SP.on_fault p 16);
  checki "tail jumps to the fault" 16 (SP.head_tail p);
  Alcotest.(check (list int)) "predicts onward" [ 17; 18; 19; 20 ] (predictions p)

let test_beyond_window_opens_new_stream () =
  let p = predictor () in
  ignore (SP.on_fault p 10);
  ignore (SP.on_fault p 11);
  (* LOADLENGTH+2 past the tail is outside the window. *)
  check_verdict "beyond the window is a new stream" SP.New_stream
    (SP.on_fault p 17)

let test_pending_beats_window () =
  (* A fault inside a window whose preloads are still queued is a skip
     (restart), even though the distance alone would say extend. *)
  let p = predictor () in
  ignore (SP.on_fault p 1);
  check_verdict "verdict" SP.Extend (SP.on_fault p 2);
  set_head_pending p (predictions p);
  check_verdict "pending check must run before the window check"
    SP.Restart_within (SP.on_fault p 4)

let test_dfp_per_thread_lists () =
  let e = Enclave.create ~epc_pages:32 ~elrange_pages:4096 () in
  let dfp = Dfp.attach e Dfp.default_config in
  let now = ref 0 in
  (* Two threads, each with its own sequential stream, interleaved. *)
  for i = 0 to 9 do
    now := Enclave.compute e ~now:!now 60_000;
    now := Enclave.access ~thread:1 e ~now:!now (100 + i);
    now := Enclave.compute e ~now:!now 60_000;
    now := Enclave.access ~thread:2 e ~now:!now (2000 + i)
  done;
  checki "one list per thread" 2 (Dfp.thread_count dfp);
  let tails p =
    List.map (fun (s : SP.stream) -> s.stpn) (SP.streams (Dfp.predictor_for dfp p))
  in
  checkb "thread 1's list tracks its own stream" true
    (List.exists (fun t -> t >= 100 && t < 120) (tails 1));
  checkb "thread 2's list tracks its own stream" true
    (List.exists (fun t -> t >= 2000 && t < 2020) (tails 2))

let test_dfp_shared_list_mode () =
  let e = Enclave.create ~epc_pages:32 ~elrange_pages:4096 () in
  let dfp = Dfp.attach e { Dfp.default_config with per_thread = false } in
  let now = ref 0 in
  for i = 0 to 5 do
    now := Enclave.access ~thread:7 e ~now:!now (100 + i);
    now := Enclave.access ~thread:8 e ~now:!now (2000 + i)
  done;
  checki "single shared list" 1 (Dfp.thread_count dfp)

let test_dfp_config_helpers () =
  checkb "default has no stop" false Dfp.default_config.stop_enabled;
  checkb "with_stop enables" true (Dfp.with_stop Dfp.default_config).stop_enabled;
  checki "paper list length" 30 Dfp.default_config.stream_list_length;
  checki "paper load length" 4 Dfp.default_config.load_length

(* ------------------------------------------------------------------ *)
(* Ablation prefetchers                                                *)
(* ------------------------------------------------------------------ *)

let test_next_line_preloads () =
  let e = Enclave.create ~epc_pages:16 ~elrange_pages:64 () in
  let b = Preload.Prefetch_baselines.attach_next_line e ~degree:2 in
  Alcotest.(check string) "name" "next-line(2)" (Preload.Prefetch_baselines.name b);
  let t = Enclave.access e ~now:0 10 in
  Enclave.sync e ~now:(t + 200_000);
  checkb "p+1 preloaded" true (Enclave.page_present e 11);
  checkb "p+2 preloaded" true (Enclave.page_present e 12);
  checkb "p+3 not requested" false (Enclave.page_present e 13)

let test_stride_detects_constant_delta () =
  let e = Enclave.create ~epc_pages:32 ~elrange_pages:256 () in
  ignore (Preload.Prefetch_baselines.attach_stride e ~degree:2);
  let now = ref 0 in
  List.iter
    (fun p ->
      now := Enclave.compute e ~now:!now 200_000;
      now := Enclave.access e ~now:!now p)
    [ 10; 17; 24 ];
  (* Two consecutive deltas of 7: pages 31 and 38 should be queued. *)
  Enclave.sync e ~now:(!now + 400_000);
  checkb "stride+1" true (Enclave.page_present e 31);
  checkb "stride+2" true (Enclave.page_present e 38)

let test_markov_learns_repeated_sequence () =
  let e = Enclave.create ~epc_pages:8 ~elrange_pages:256 () in
  let b = Preload.Prefetch_baselines.attach_markov e ~table_pages:64 ~degree:2 in
  Alcotest.(check string) "name" "markov(64,2)" (Preload.Prefetch_baselines.name b);
  let now = ref 0 in
  let visit pages =
    List.iter
      (fun p ->
        now := Enclave.compute e ~now:!now 200_000;
        now := Enclave.access e ~now:!now p)
      pages
  in
  (* First pass teaches 10 -> 20 -> 30; the pages then get evicted by a
     filler walk; the second pass replays the chain, so after re-faulting
     on 10 the table preloads 20. *)
  visit [ 10; 20; 30 ];
  visit [ 100; 101; 102; 103; 104; 105; 106; 107; 108 ];
  now := Enclave.access e ~now:!now 10;
  Enclave.sync e ~now:(!now + 400_000);
  checkb "successor preloaded" true (Enclave.page_present e 20)

let test_markov_validation () =
  let e = Enclave.create ~epc_pages:8 ~elrange_pages:16 () in
  Alcotest.check_raises "degree" (Invalid_argument "attach_markov: degree must be positive")
    (fun () -> ignore (Preload.Prefetch_baselines.attach_markov e ~table_pages:8 ~degree:0));
  Alcotest.check_raises "table"
    (Invalid_argument "attach_markov: table_pages must be positive") (fun () ->
      ignore (Preload.Prefetch_baselines.attach_markov e ~table_pages:0 ~degree:2))

let test_stride_ignores_irregular () =
  let e = Enclave.create ~epc_pages:32 ~elrange_pages:256 () in
  ignore (Preload.Prefetch_baselines.attach_stride e ~degree:2);
  let now = ref 0 in
  List.iter
    (fun p ->
      now := Enclave.compute e ~now:!now 200_000;
      now := Enclave.access e ~now:!now p)
    [ 10; 30; 90 ];
  Enclave.sync e ~now:(!now + 400_000);
  checki "no speculative loads" 0 (Enclave.metrics e).preloads_issued

(* ------------------------------------------------------------------ *)
(* Scheme                                                              *)
(* ------------------------------------------------------------------ *)

let test_scheme_names () =
  Alcotest.(check string) "baseline" "baseline" (Scheme.name Scheme.Baseline);
  Alcotest.(check string) "dfp" "DFP" (Scheme.name Scheme.dfp_default);
  Alcotest.(check string) "dfp-stop" "DFP-stop" (Scheme.name Scheme.dfp_stop);
  Alcotest.(check string) "sip" "SIP"
    (Scheme.name (Scheme.Sip (Instrumenter.empty_plan ~workload:"x")));
  Alcotest.(check string) "hybrid" "SIP+DFP-stop"
    (Scheme.name
       (Scheme.Hybrid
          (Dfp.with_stop Dfp.default_config, Instrumenter.empty_plan ~workload:"x")))

let test_scheme_sip_plan () =
  let plan = Instrumenter.empty_plan ~workload:"x" in
  checkb "sip has plan" true (Scheme.sip_plan (Scheme.Sip plan) <> None);
  checkb "dfp has none" true (Scheme.sip_plan Scheme.dfp_default = None);
  checkb "uses_sip" true (Scheme.uses_sip (Scheme.Sip plan));
  checkb "baseline does not" false (Scheme.uses_sip Scheme.Baseline)

let test_scheme_name_roundtrip () =
  let plan () = Instrumenter.empty_plan ~workload:"rt" in
  List.iter
    (fun s ->
      match Scheme.of_string ~plan (Scheme.name s) with
      | Ok s' ->
        Alcotest.(check string)
          "of_string (name s) re-derives s" (Scheme.name s) (Scheme.name s')
      | Error msg -> Alcotest.fail msg)
    [
      Scheme.Baseline;
      Scheme.Native;
      Scheme.dfp_default;
      Scheme.dfp_stop;
      Scheme.Sip (plan ());
      Scheme.Hybrid (Dfp.default_config, plan ());
      Scheme.Hybrid (Dfp.with_stop Dfp.default_config, plan ());
      Scheme.next_line ~degree:4;
      Scheme.stride ~degree:2;
      Scheme.markov ~table_pages:512 ~degree:3;
    ]

let test_scheme_of_string_spellings () =
  (* The parameterised variants carry only ints, so structural equality
     is safe here (no plan closures involved). *)
  checkb "colon next-line" true
    (Scheme.of_string "next-line:3" = Ok (Scheme.next_line ~degree:3));
  checkb "colon stride" true
    (Scheme.of_string "stride:2" = Ok (Scheme.stride ~degree:2));
  checkb "colon markov" true
    (Scheme.of_string "markov:64,2"
    = Ok (Scheme.markov ~table_pages:64 ~degree:2));
  checkb "paren markov with spaces" true
    (Scheme.of_string "markov(64, 2)"
    = Ok (Scheme.markov ~table_pages:64 ~degree:2));
  checkb "case-insensitive" true
    (Scheme.of_string "BASELINE" = Ok Scheme.Baseline);
  checkb "hybrid alias" true
    (match
       Scheme.of_string
         ~plan:(fun () -> Instrumenter.empty_plan ~workload:"x")
         "hybrid"
     with
    | Ok s -> Scheme.name s = "SIP+DFP-stop"
    | Error _ -> false)

let test_scheme_of_string_errors () =
  let err s =
    match Scheme.of_string s with
    | Error msg -> msg
    | Ok _ -> Alcotest.fail (Printf.sprintf "parsed %S" s)
  in
  let mentions label needle msg =
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i =
        i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
      in
      go 0
    in
    checkb
      (Printf.sprintf "%s: %S mentions %S" label msg needle)
      true (contains msg needle)
  in
  mentions "unknown" "unknown scheme" (err "frobnicate");
  mentions "plan needed" "needs an instrumentation plan" (err "sip");
  mentions "plan needed (hybrid)" "needs an instrumentation plan"
    (err "sip+dfp-stop");
  mentions "malformed" "malformed parameter" (err "stride:x");
  mentions "range" ">= 1" (err "next-line(0)");
  mentions "arity" "takes 2 parameter" (err "markov:4");
  mentions "arity (paren)" "takes 1 parameter" (err "stride(2,3)");
  Alcotest.check_raises "constructor validates"
    (Invalid_argument "Scheme.next_line: degree must be >= 1") (fun () ->
      ignore (Scheme.next_line ~degree:0));
  Alcotest.check_raises "markov validates"
    (Invalid_argument "Scheme.markov: table_pages must be >= 1") (fun () ->
      ignore (Scheme.markov ~table_pages:0 ~degree:1))

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let props = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "preload-core"
    [
      ( "stream_predictor",
        [
          tc "first fault opens stream" test_first_fault_opens_stream;
          tc "sequential extends" test_sequential_fault_extends;
          tc "descending detected" test_descending_stream_detected;
          tc "backward can be disabled" test_backward_detection_can_be_disabled;
          tc "direction locks" test_direction_locks;
          tc "clamped at zero" test_predictions_clamped_at_zero;
          tc "LRU replacement" test_lru_replacement;
          tc "hit promotes" test_hit_promotes_stream;
          tc "restart within window" test_restart_within_pending_window;
          tc "restart then extend" test_restarted_stream_can_extend_again;
          tc "window fault extends" test_window_fault_extends_stream;
          tc "beyond window is new" test_beyond_window_opens_new_stream;
          tc "pending beats window" test_pending_beats_window;
          tc "interleaved streams" test_interleaved_streams_both_tracked;
          tc "reset" test_reset;
          tc "create validation" test_create_validation;
        ]
        @ props (predictor_qcheck @ [ predictor_differential ]) );
      ( "page_lru",
        [
          tc "eviction" test_page_lru_eviction;
          tc "clear" test_page_lru_clear;
          tc "page domain" test_page_lru_domain;
        ]
        @ props page_lru_qcheck );
      ( "sip_profiler",
        [
          tc "sequential is class2" test_profiler_sequential_is_class2;
          tc "repeats are class1" test_profiler_repeated_touches_are_class1;
          tc "random is class3" test_profiler_random_is_class3;
          tc "totals and sites" test_profiler_totals_and_sites;
          tc "records input" test_profiler_records_input;
          tc "classify_one steps" test_classify_one_steps;
        ] );
      ( "sip_instrumenter",
        [
          tc "threshold" test_instrumenter_threshold;
          tc "threshold boundary" test_instrumenter_threshold_boundary;
          tc "empty plan" test_instrumenter_empty_plan;
          tc "paper threshold" test_default_threshold_is_paper;
        ]
        @ props [ instrumenter_predicate_matches_list ] );
      ( "plan_io",
        [
          tc "round trip" test_plan_io_roundtrip;
          tc "rejects garbage" test_plan_io_rejects_garbage;
          tc "error messages not masked" test_plan_io_error_messages_not_masked;
          tc "duplicate and missing sections" test_plan_io_duplicate_and_missing;
        ] );
      ( "dfp",
        [
          tc "preloads on stream" test_dfp_preloads_on_stream;
          tc "stop fires on garbage" test_dfp_stop_fires_on_garbage;
          tc "stop stays off on streams" test_dfp_stop_stays_off_on_streams;
          tc "stop boundary semantics" test_dfp_should_stop_boundary;
          tc "counters track completed not issued"
            test_dfp_counters_track_completed_not_issued;
          tc "stop is one-way" test_dfp_stop_is_one_way;
          tc "config helpers" test_dfp_config_helpers;
          tc "steady-state bound" test_dfp_steady_state_bound;
          tc "per-thread lists" test_dfp_per_thread_lists;
          tc "shared list mode" test_dfp_shared_list_mode;
        ] );
      ( "prefetch_baselines",
        [
          tc "next-line preloads" test_next_line_preloads;
          tc "stride detects" test_stride_detects_constant_delta;
          tc "stride ignores irregular" test_stride_ignores_irregular;
          tc "markov learns repeats" test_markov_learns_repeated_sequence;
          tc "markov validation" test_markov_validation;
        ] );
      ( "scheme",
        [
          tc "names" test_scheme_names;
          tc "sip plan" test_scheme_sip_plan;
          tc "name round-trip" test_scheme_name_roundtrip;
          tc "of_string spellings" test_scheme_of_string_spellings;
          tc "of_string errors" test_scheme_of_string_errors;
        ] );
    ]
