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

(* An empty strided range emits nothing, like an empty sequential one;
   it used to emit one event at [base], outside the range. *)
let test_strided_empty_range () =
  let p =
    Pattern.strided ~site:0 ~base:7 ~pages:0 ~stride:3 ~events_per_page:2
      ~compute:0 ~jitter:0.0
  in
  checki "no events" 0 (List.length (collect p));
  checki "length" 0 (Pattern.length p)

(* A run longer than the range used to walk past [base + pages] (with 1
   page and runs of 2-3: pages 0 1 0 1 2 0); such runs are rejected when
   the pattern is built.  A run as long as the range stays inside it. *)
let test_bursty_runs_fit_the_range () =
  Alcotest.check_raises "run_max > pages" (Invalid_argument "Pattern.bursty: bad runs")
    (fun () ->
      ignore
        (Pattern.bursty ~site:0 ~base:0 ~pages:1 ~events:6 ~run_min:2 ~run_max:3
           ~events_per_page:1 ~compute:0 ~jitter:0.0));
  let accs =
    collect
      (Pattern.bursty ~site:0 ~base:10 ~pages:3 ~events:60 ~run_min:2 ~run_max:3
         ~events_per_page:1 ~compute:0 ~jitter:0.0)
  in
  checkb "inside [base, base+pages)" true
    (List.for_all (fun p -> p >= 10 && p < 13) (pages_of accs))

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

(* A negative count is rejected when the pattern is built, as [repeat]
   does; it used to raise [Seq.take]'s error at the first replay. *)
let test_take_negative () =
  Alcotest.check_raises "take (-1)" (Invalid_argument "Pattern.take: negative count")
    (fun () -> ignore (Pattern.take (-1) (seq_leaf 0)));
  checki "take beyond the length" 3 (Pattern.length (Pattern.take 10 (seq_leaf 0)));
  checki "take below the length" 2 (Pattern.length (Pattern.take 2 (seq_leaf 0)))

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

(* ------------------------------------------------------------------ *)
(* Differential against the reference generator                        *)
(* ------------------------------------------------------------------ *)

(* A pattern tree that both [Pattern] and [Reference_pattern] (the
   [Seq]-based generator, drawing from [Reference_prng]) can build.  The
   properties below require the same events from both, the same
   exception at the same event, the same next draw once the pattern is
   exhausted, and a [Pattern.length] equal to the number of events, so
   traces, arena fingerprints and digests cannot move. *)
type leaf =
  | Sequential of { base : int; pages : int; epp : int }
  | Sequential_desc of { base : int; pages : int; epp : int }
  | Strided of { base : int; pages : int; stride : int; epp : int }
  | Multi_stream of { streams : (int * int) list; epp : int }
  | Uniform_random of { base : int; pages : int; events : int }
  | Zipf of { base : int; pages : int; events : int; s : float }
  | Pointer_chase of { base : int; pages : int; events : int; locality : float }
  | Bursty of {
      base : int;
      pages : int;
      events : int;
      run_min : int;
      run_max : int;
      epp : int;
    }
  | Mixed_site of { hot_pages : int; cold_pages : int; events : int; ratio : float }

type tree =
  | Leaf of { site : int; compute : int; jitter : float; leaf : leaf }
  | Of_events of int list
  | Empty
  | Seq_list of tree list
  | Interleave of tree list
  | Weighted of (int * tree) list
  | Repeat of int * tree
  | Take of int * tree
  | On_thread of int * tree
  | Parallel of (int * tree) list

let rec show_tree t =
  let list f l = "[" ^ String.concat "; " (List.map f l) ^ "]" in
  let pair (n, t) = Printf.sprintf "%d, %s" n (show_tree t) in
  match t with
  | Leaf { site; compute; jitter; leaf } ->
    let body =
      match leaf with
      | Sequential { base; pages; epp } ->
        Printf.sprintf "sequential base=%d pages=%d epp=%d" base pages epp
      | Sequential_desc { base; pages; epp } ->
        Printf.sprintf "sequential_desc base=%d pages=%d epp=%d" base pages epp
      | Strided { base; pages; stride; epp } ->
        Printf.sprintf "strided base=%d pages=%d stride=%d epp=%d" base pages
          stride epp
      | Multi_stream { streams; epp } ->
        Printf.sprintf "multi_stream %s epp=%d"
          (list (fun (b, p) -> Printf.sprintf "%d,%d" b p) streams)
          epp
      | Uniform_random { base; pages; events } ->
        Printf.sprintf "uniform base=%d pages=%d events=%d" base pages events
      | Zipf { base; pages; events; s } ->
        Printf.sprintf "zipf base=%d pages=%d events=%d s=%g" base pages events s
      | Pointer_chase { base; pages; events; locality } ->
        Printf.sprintf "chase base=%d pages=%d events=%d locality=%g" base
          pages events locality
      | Bursty { base; pages; events; run_min; run_max; epp } ->
        Printf.sprintf "bursty base=%d pages=%d events=%d runs=%d..%d epp=%d"
          base pages events run_min run_max epp
      | Mixed_site { hot_pages; cold_pages; events; ratio } ->
        Printf.sprintf "mixed hot=%d cold=%d events=%d ratio=%g" hot_pages
          cold_pages events ratio
    in
    Printf.sprintf "(%s site=%d compute=%d jitter=%g)" body site compute jitter
  | Of_events pages -> "of_events " ^ list string_of_int pages
  | Empty -> "empty"
  | Seq_list ts -> "seq_list " ^ list show_tree ts
  | Interleave ts -> "interleave " ^ list show_tree ts
  | Weighted wts -> "weighted " ^ list pair wts
  | Repeat (n, t) -> Printf.sprintf "repeat %d %s" n (show_tree t)
  | Take (n, t) -> Printf.sprintf "take %d %s" n (show_tree t)
  | On_thread (n, t) -> Printf.sprintf "on_thread %d %s" n (show_tree t)
  | Parallel wts -> "parallel " ^ list pair wts

module type GENERATOR = sig
  type t

  val sequential :
    site:int -> base:int -> pages:int -> events_per_page:int -> compute:int ->
    jitter:float -> t

  val sequential_desc :
    site:int -> base:int -> pages:int -> events_per_page:int -> compute:int ->
    jitter:float -> t

  val strided :
    site:int -> base:int -> pages:int -> stride:int -> events_per_page:int ->
    compute:int -> jitter:float -> t

  val multi_stream :
    site:int -> streams:(int * int) list -> events_per_page:int -> compute:int ->
    jitter:float -> t

  val uniform_random :
    site:int -> base:int -> pages:int -> events:int -> compute:int ->
    jitter:float -> t

  val zipf :
    site:int -> base:int -> pages:int -> events:int -> s:float -> compute:int ->
    jitter:float -> t

  val pointer_chase :
    site:int -> base:int -> pages:int -> events:int -> locality:float ->
    compute:int -> jitter:float -> t

  val bursty :
    site:int -> base:int -> pages:int -> events:int -> run_min:int ->
    run_max:int -> events_per_page:int -> compute:int -> jitter:float -> t

  val mixed_site :
    site:int -> hot_base:int -> hot_pages:int -> cold_base:int ->
    cold_pages:int -> events:int -> irregular_ratio:float -> compute:int ->
    jitter:float -> t

  val of_events : Access.t list -> t
  val empty : t
  val seq_list : t list -> t
  val interleave : t list -> t
  val weighted_interleave : (int * t) list -> t
  val repeat : int -> t -> t
  val take : int -> t -> t
  val on_thread : int -> t -> t
  val parallel : (int * t) list -> t
end

module Build (P : GENERATOR) = struct
  let rec build = function
    | Leaf { site; compute; jitter; leaf } -> (
      match leaf with
      | Sequential { base; pages; epp } ->
        P.sequential ~site ~base ~pages ~events_per_page:epp ~compute ~jitter
      | Sequential_desc { base; pages; epp } ->
        P.sequential_desc ~site ~base ~pages ~events_per_page:epp ~compute
          ~jitter
      | Strided { base; pages; stride; epp } ->
        P.strided ~site ~base ~pages ~stride ~events_per_page:epp ~compute
          ~jitter
      | Multi_stream { streams; epp } ->
        P.multi_stream ~site ~streams ~events_per_page:epp ~compute ~jitter
      | Uniform_random { base; pages; events } ->
        P.uniform_random ~site ~base ~pages ~events ~compute ~jitter
      | Zipf { base; pages; events; s } ->
        P.zipf ~site ~base ~pages ~events ~s ~compute ~jitter
      | Pointer_chase { base; pages; events; locality } ->
        P.pointer_chase ~site ~base ~pages ~events ~locality ~compute ~jitter
      | Bursty { base; pages; events; run_min; run_max; epp } ->
        P.bursty ~site ~base ~pages ~events ~run_min ~run_max
          ~events_per_page:epp ~compute ~jitter
      | Mixed_site { hot_pages; cold_pages; events; ratio } ->
        P.mixed_site ~site ~hot_base:0 ~hot_pages ~cold_base:hot_pages
          ~cold_pages ~events ~irregular_ratio:ratio ~compute ~jitter)
    | Of_events pages ->
      P.of_events
        (List.map (fun vpage -> Access.make ~site:9 ~vpage ~compute:3 ()) pages)
    | Empty -> P.empty
    | Seq_list ts -> P.seq_list (List.map build ts)
    | Interleave ts -> P.interleave (List.map build ts)
    | Weighted wts -> P.weighted_interleave (List.map (fun (w, t) -> (w, build t)) wts)
    | Repeat (n, t) -> P.repeat n (build t)
    | Take (n, t) -> P.take n (build t)
    | On_thread (n, t) -> P.on_thread n (build t)
    | Parallel wts -> P.parallel (List.map (fun (n, t) -> (n, build t)) wts)
end

module Build_new = Build (Pattern)
module Build_ref = Build (Reference_pattern)

(* Drain a stream, keeping the events before an [Invalid_argument] it
   raises and the message it raised with. *)
let drain seq =
  let events = ref [] in
  let outcome =
    try
      Seq.iter (fun (a : Access.t) -> events := a :: !events) seq;
      None
    with Invalid_argument msg -> Some msg
  in
  (List.rev !events, outcome)

(* [Pattern] and the reference run from the same seed: the same events,
   the same exception (if any) at the same event, the same next draw,
   and a length that counts the events. *)
let same_as_reference ~seed tree =
  let p = Prng.create seed and r = Reference_prng.create seed in
  let pattern = Build_new.build tree in
  let events, raised = drain (Pattern.run pattern p) in
  let ref_events, ref_raised = drain (Build_ref.build tree r) in
  events = ref_events && raised = ref_raised
  && (raised <> None
     || Int64.equal (Prng.bits64 p) (Reference_prng.bits64 r)
        && Pattern.length pattern = List.length events)

let compute_gen = QCheck2.Gen.(pair (oneofl [ 0; 7; 1000 ]) (oneofl [ 0.0; 0.3; 1.0 ]))

let leaf_gen =
  let open QCheck2.Gen in
  let base = frequency [ (12, int_range 0 20); (1, int_range (-3) (-1)) ] in
  let events = int_range 0 25 in
  let leaf =
    oneof
      [
        map3 (fun base pages epp -> Sequential { base; pages; epp }) base
          (int_range 0 12) (int_range 1 3);
        map3 (fun base pages epp -> Sequential_desc { base; pages; epp }) base
          (int_range 0 12) (int_range 1 3);
        map3
          (fun base (pages, stride) epp -> Strided { base; pages; stride; epp })
          base
          (pair (int_range 1 12) (int_range 1 5))
          (int_range 1 3);
        map2
          (fun streams epp -> Multi_stream { streams; epp })
          (list_size (int_range 1 4) (pair (int_range 0 40) (int_range (-2) 6)))
          (int_range 1 3);
        map3 (fun base pages events -> Uniform_random { base; pages; events })
          base (int_range 1 12) events;
        map3
          (fun base (pages, s) events -> Zipf { base; pages; events; s })
          base
          (pair (int_range 1 12) (oneofl [ 0.5; 1.0; 1.1; 1.3; 2.0 ]))
          events;
        map3
          (fun base (pages, locality) events ->
            Pointer_chase { base; pages; events; locality })
          base
          (pair (int_range 1 12) (oneofl [ 0.0; 0.5; 1.0 ]))
          events;
        (let* pages = int_range 1 12 in
         let* run_min = int_range 1 (Int.min 3 pages) in
         let* run_max = int_range run_min (Int.min (run_min + 2) pages) in
         map3
           (fun base events epp ->
             Bursty { base; pages; events; run_min; run_max; epp })
           base events (int_range 1 2));
        map3
          (fun (hot_pages, cold_pages) events ratio ->
            Mixed_site { hot_pages; cold_pages; events; ratio })
          (pair (int_range 1 10) (int_range 1 10))
          events
          (oneofl [ 0.0; 0.3; 1.0 ]);
      ]
  in
  frequency
    [
      ( 10,
        map3
          (fun site (compute, jitter) leaf -> Leaf { site; compute; jitter; leaf })
          (int_range 0 5)
          (frequency [ (20, compute_gen); (1, pure (-3, 0.0)) ])
          leaf );
      (1, map (fun pages -> Of_events pages) (list_size (int_range 0 5) (int_range 0 20)));
      (1, pure Empty);
    ]

(* Trees nested to [depth]: every combinator, weights of 0 and -1,
   empty children, takes below and beyond the length, and [on_thread]
   inside [parallel]. *)
let rec tree_gen depth =
  let open QCheck2.Gen in
  if depth = 0 then leaf_gen
  else begin
    let sub = tree_gen (depth - 1) in
    let children = list_size (int_range 0 3) sub in
    frequency
      [
        (3, leaf_gen);
        (1, map (fun ts -> Seq_list ts) children);
        (1, map (fun ts -> Interleave ts) children);
        ( 2,
          map
            (fun wts -> Weighted wts)
            (list_size (int_range 0 4) (pair (int_range (-1) 5) sub)) );
        (1, map2 (fun n t -> Repeat (n, t)) (int_range 0 2) sub);
        (1, map2 (fun n t -> Take (n, t)) (int_range 0 40) sub);
        (1, map2 (fun n t -> On_thread (n, t)) (int_range 0 7) sub);
        ( 1,
          map
            (fun wts -> Parallel wts)
            (list_size (int_range 0 3) (pair (int_range 0 7) sub)) );
      ]
  end

let differential_qcheck =
  let open QCheck2 in
  let leaf_of (site, (compute, jitter)) leaf = Leaf { site; compute; jitter; leaf } in
  [
    Test.make ~name:"multi_stream draws what its reference model does"
      ~count:300 ~print:Print.(pair int show_tree)
      Gen.(
        pair (int_bound 100_000)
          (map3
             (fun streams epp cj ->
               leaf_of (3, cj) (Multi_stream { streams; epp }))
             (list_size (int_range 1 8) (pair (int_range 0 500) (int_range (-2) 12)))
             (int_range 1 4) compute_gen))
      (fun (seed, tree) -> same_as_reference ~seed tree);
    (* Children of every kind: fixed-length and empty sweeps, random ones
       that draw per event, a pointer chase that draws when started, and
       a multi-stream; weights include the clamped 0 and -1. *)
    Test.make ~name:"weighted_interleave draws what its reference model does"
      ~count:300 ~print:Print.(pair int show_tree)
      Gen.(
        pair (int_bound 100_000)
          (map2
             (fun children cj ->
               let child (kind, n) =
                 match kind with
                 | 0 -> leaf_of (0, cj) (Sequential { base = 0; pages = n; epp = 2 })
                 | 1 ->
                   leaf_of (1, cj)
                     (Uniform_random { base = 100; pages = 9; events = n })
                 | 2 ->
                   leaf_of (2, cj)
                     (Pointer_chase
                        { base = 200; pages = 16; events = n; locality = 0.5 })
                 | 3 ->
                   leaf_of (3, cj)
                     (Multi_stream { streams = [ (300, n); (400, 1) ]; epp = 1 })
                 | _ -> Empty
               in
               Weighted (List.map (fun (w, kind, n) -> (w, child (kind, n))) children))
             (list_size (int_range 0 6)
                (triple (int_range (-1) 5) (int_range 0 4) (int_range 0 6)))
             compute_gen))
      (fun (seed, tree) -> same_as_reference ~seed tree);
    Test.make ~name:"pattern trees draw what the reference generator does"
      ~count:1000 ~print:Print.(pair int show_tree)
      Gen.(pair (int_bound 100_000) (tree_gen 3))
      (fun (seed, tree) -> same_as_reference ~seed tree);
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
      let loaded = Result.get_ok (Workload.Trace_io.load_trace ~path) in
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
      let loaded = Result.get_ok (Workload.Trace_io.load_trace ~path) in
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
      let loaded = Result.get_ok (Workload.Trace_io.load_trace ~path) in
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
        (Result.is_error (Workload.Trace_io.load_trace ~path)))

let load_error path content =
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  match Workload.Trace_io.load_trace ~path with
  | Ok _ -> Alcotest.fail "expected load_trace to fail"
  | Error msg -> msg

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

(* The reference LRU: a list of pages, most recently used first, cut to
   the capacity after every access.  The generated traces stay within
   the arena's 128-event fingerprint, so two different streams never
   share a memoised arena. *)
let naive_miss_ratio pages ~epc_pages =
  let misses, _ =
    List.fold_left
      (fun (misses, lru) page ->
        let lru' =
          List.filteri (fun i _ -> i < epc_pages)
            (page :: List.filter (( <> ) page) lru)
        in
        ((if List.mem page lru then misses else misses + 1), lru'))
      (0, []) pages
  in
  match pages with
  | [] -> 0.0
  | _ -> float_of_int misses /. float_of_int (List.length pages)

let miss_ratio_qcheck =
  [
    QCheck2.Test.make ~name:"miss ratio equals a list LRU's" ~count:300
      QCheck2.Gen.(
        triple (int_range 1 24) (int_range 1 12)
          (list_size (int_range 0 128) (int_range 0 23)))
      (fun (elrange, epc_pages, pages) ->
        let pages = List.map (fun p -> p mod elrange) pages in
        let trace =
          Trace.make ~name:"lru-diff" ~elrange_pages:elrange
            ~footprint_pages:elrange ~seed:0 ~sites:[]
            (Pattern.of_events
               (List.map
                  (fun vpage -> Access.make ~site:0 ~vpage ~compute:1 ())
                  pages))
        in
        Workload.Trace_stats.miss_ratio trace ~epc_pages
        = naive_miss_ratio pages ~epc_pages);
  ]

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
          tc "strided empty range" test_strided_empty_range;
          tc "multi-stream exhausts" test_multi_stream_exhausts_all;
          tc "uniform bounds" test_uniform_random_bounds;
          tc "zipf bounds and skew" test_zipf_bounds_and_skew;
          tc "pointer chase locality" test_pointer_chase_locality;
          tc "bursty adjacency" test_bursty_runs_are_adjacent;
          tc "bursty runs fit the range" test_bursty_runs_fit_the_range;
          tc "mixed site ranges" test_mixed_site_ranges;
          tc "jitter" test_jitter_spreads_compute;
        ] );
      ( "combinators",
        [
          tc "seq_list" test_seq_list_concatenates;
          tc "repeat" test_repeat;
          tc "take" test_take;
          tc "take rejects a negative count" test_take_negative;
          tc "interleave exhausts" test_interleave_exhausts_all;
          tc "weighted interleave" test_weighted_interleave_respects_weights;
          tc "empty" test_empty_pattern;
          tc "on_thread stamps" test_on_thread_stamps;
          tc "parallel merges threads" test_parallel_merges_threads;
          tc "mt_scan model" test_mt_scan_model;
          tc "mt model validation" test_mt_models_validate;
        ]
        @ props (pattern_qcheck @ differential_qcheck) );
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
        ]
        @ props miss_ratio_qcheck );
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
