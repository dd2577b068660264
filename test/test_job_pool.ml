(* Tests of the fork-based job pool: submission-order determinism, the
   serial fast path, crash containment (both a raising job and a dying
   worker), and the tentpole guarantee that experiment tables computed
   at -j N equal the -j 1 tables exactly. *)

module Job_pool = Sim.Job_pool
module Experiments = Sim.Experiments

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* Ordering and fast path                                              *)
(* ------------------------------------------------------------------ *)

let test_order_determinism () =
  (* Job sizes fall steeply with the index, so under any parallel
     schedule late jobs finish before early ones; the merged result must
     still be in submission order at every worker count. *)
  let jobs =
    List.init 24 (fun i ->
        Job_pool.job ~label:(Printf.sprintf "job%d" i) (fun () ->
            let acc = ref 0 in
            for k = 1 to (24 - i) * 5_000 do
              acc := !acc + (k mod 7)
            done;
            ignore !acc;
            i * i))
  in
  let expected = List.init 24 (fun i -> i * i) in
  List.iter
    (fun workers ->
      Alcotest.(check (list int))
        (Printf.sprintf "workers=%d" workers)
        expected
        (Job_pool.run ~jobs:workers jobs))
    [ 1; 2; 3; 4; 7 ]

let test_serial_fast_path_runs_in_process () =
  (* jobs:1 must not fork: the caller sees the job's mutations, which a
     forked worker could never provide. *)
  let cell = ref 0 in
  let r =
    Job_pool.run ~jobs:1
      [
        Job_pool.job ~label:"mutate" (fun () ->
            cell := 41;
            !cell + 1);
      ]
  in
  Alcotest.(check (list int)) "result" [ 42 ] r;
  checki "mutation visible: ran in-process" 41 !cell

let test_serial_fast_path_raw_exceptions () =
  (* The documented List.map equivalence: in-process jobs propagate
     their exceptions unchanged, not wrapped in Job_failed. *)
  Alcotest.check_raises "raw exception" (Failure "as-is") (fun () ->
      ignore
        (Job_pool.run ~jobs:1
           [ Job_pool.job ~label:"raises" (fun () -> failwith "as-is") ]))

let test_forked_workers_are_isolated () =
  let cell = ref 0 in
  let r =
    Job_pool.run ~jobs:2
      (List.init 4 (fun i ->
           Job_pool.job ~label:(Printf.sprintf "j%d" i) (fun () ->
               cell := 99;
               i)))
  in
  Alcotest.(check (list int)) "results" [ 0; 1; 2; 3 ] r;
  checki "parent state untouched by workers" 0 !cell

let test_empty_and_clamped () =
  Alcotest.(check (list int)) "no jobs" [] (Job_pool.run ~jobs:8 []);
  Alcotest.(check (list int))
    "more workers than jobs" [ 7 ]
    (Job_pool.run ~jobs:64 [ Job_pool.job ~label:"only" (fun () -> 7) ]);
  Alcotest.check_raises "absurd worker count rejected"
    (Invalid_argument "Job_pool.run: jobs > 1024") (fun () ->
      ignore (Job_pool.run ~jobs:4096 [ Job_pool.job ~label:"x" (fun () -> 0) ]))

let test_default_jobs_positive () =
  checkb "at least one processor" true (Job_pool.default_jobs () >= 1)

(* ------------------------------------------------------------------ *)
(* Crash containment                                                   *)
(* ------------------------------------------------------------------ *)

let test_raising_job_names_itself () =
  match
    Job_pool.run ~jobs:2
      [
        Job_pool.job ~label:"fine" (fun () -> 1);
        Job_pool.job ~label:"boom" (fun () -> failwith "broken cell");
        Job_pool.job ~label:"also-fine" (fun () -> 3);
      ]
  with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Job_pool.Job_failed { label; reason } ->
    Alcotest.(check string) "failing job's label" "boom" label;
    checkb "reason carries the exception" true (contains reason "broken cell")

let test_first_failure_in_submission_order () =
  (* Two failing jobs: whatever the worker count, the reported one is
     the first in submission order. *)
  let jobs =
    List.init 6 (fun i ->
        Job_pool.job ~label:(Printf.sprintf "cell%d" i) (fun () ->
            if i = 2 || i = 5 then failwith "bad" else i))
  in
  List.iter
    (fun workers ->
      match Job_pool.run ~jobs:workers jobs with
      | _ -> Alcotest.fail "expected Job_failed"
      | exception Job_pool.Job_failed { label; _ } ->
        Alcotest.(check string)
          (Printf.sprintf "workers=%d" workers)
          "cell2" label)
    [ 2; 3; 4 ]

let test_dead_worker_names_lost_job () =
  (* A worker that exits without reporting (as a segfault or kill -9
     would): the pool must name the job that went missing rather than
     hang or return a short list. *)
  match
    Job_pool.run ~jobs:2
      [
        Job_pool.job ~label:"survivor" (fun () -> 0);
        Job_pool.job ~label:"dies-silently" (fun () -> Unix._exit 9);
      ]
  with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Job_pool.Job_failed { label; reason } ->
    Alcotest.(check string) "lost job's label" "dies-silently" label;
    checkb "reason reports the exit status" true (contains reason "9")

let test_unmarshalable_result_contained () =
  (* A job whose result captures a closure cannot cross the pipe; that
     must surface as the job's failure, not kill the worker's share. *)
  match
    Job_pool.run ~jobs:2
      [
        Job_pool.job ~label:"plain" (fun () -> fun x -> x);
        Job_pool.job ~label:"closure" (fun () -> fun x -> x + 1);
      ]
  with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Job_pool.Job_failed { reason; _ } ->
    checkb "reason mentions marshal" true (contains reason "marshal")

(* ------------------------------------------------------------------ *)
(* Hardened pool: timeout, retry, keep-going, journal/resume           *)
(* ------------------------------------------------------------------ *)

let tmp_name prefix =
  Filename.temp_file ~temp_dir:(Filename.get_temp_dir_name ()) prefix ".tmp"

let with_tmp prefix f =
  let path = tmp_name prefix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* Worker-side witness: each execution appends one line, so the parent
   can count how often a cell actually ran across attempts/resumes.
   O_APPEND keeps concurrent single-line writes atomic. *)
let witness path line =
  let fd = Unix.openfile path [ Unix.O_WRONLY; O_APPEND; O_CREAT ] 0o644 in
  let s = line ^ "\n" in
  ignore (Unix.write_substring fd s 0 (String.length s));
  Unix.close fd

let witness_count path line =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = ref 0 in
      (try
         while true do
           if input_line ic = line then incr n
         done
       with End_of_file -> ());
      !n)

let test_timeout_kills_hung_cell () =
  let jobs =
    [
      Job_pool.job ~label:"quick" (fun () -> 1);
      Job_pool.job ~label:"hangs" (fun () ->
          while true do
            Unix.sleepf 3600.0
          done;
          0);
      Job_pool.job ~label:"also-quick" (fun () -> 3);
    ]
  in
  let before = Unix.gettimeofday () in
  let r = Job_pool.run_hardened ~jobs:2 ~timeout:0.4 jobs in
  checkb "finished well before the hung cell would"
    true
    (Unix.gettimeofday () -. before < 30.0);
  match r with
  | [ Ok 1; Error f; Ok 3 ] ->
    Alcotest.(check string) "hung cell named" "hangs" f.Job_pool.label;
    checkb "reason says timed out" true (contains f.reason "timed out")
  | _ -> Alcotest.fail "expected [Ok 1; Error _; Ok 3]"

let test_retry_recovers_flaky_cell () =
  (* First attempt plants a marker and dies; the retry (a fresh fork)
     sees the marker and succeeds.  One retry must be enough. *)
  with_tmp "flaky" @@ fun marker ->
  Sys.remove marker;
  let jobs =
    [
      Job_pool.job ~label:"flaky" (fun () ->
          if Sys.file_exists marker then 7
          else begin
            witness marker "attempt";
            failwith "first attempt dies"
          end);
    ]
  in
  match Job_pool.run_hardened ~jobs:2 ~retries:1 ~backoff:0.01 jobs with
  | [ Ok 7 ] -> ()
  | [ Error f ] -> Alcotest.fail ("expected recovery, got: " ^ f.Job_pool.reason)
  | _ -> Alcotest.fail "expected one result"

let test_retry_exhaustion_counts_attempts () =
  let jobs =
    [ Job_pool.job ~label:"doomed" (fun () -> failwith "always"); ]
  in
  match Job_pool.run_hardened ~jobs:2 ~retries:2 ~backoff:0.01 jobs with
  | [ Error f ] ->
    checki "initial attempt + 2 retries" 3 f.Job_pool.attempts;
    checkb "reason kept" true (contains f.reason "always")
  | _ -> Alcotest.fail "expected Error"

let test_keep_going_shape () =
  (* The hardened pool never discards neighbours: every cell gets a slot
     in submission order, failures in place. *)
  let jobs =
    List.init 6 (fun i ->
        Job_pool.job ~label:(Printf.sprintf "c%d" i) (fun () ->
            if i mod 2 = 1 then failwith "odd cell dies" else i * 10))
  in
  let r = Job_pool.run_hardened ~jobs:3 jobs in
  checki "all six reported" 6 (List.length r);
  List.iteri
    (fun i res ->
      match res with
      | Ok v -> checki (Printf.sprintf "c%d value" i) (i * 10) v
      | Error f ->
        checkb (Printf.sprintf "c%d is odd" i) true (i mod 2 = 1);
        Alcotest.(check string)
          "failure names its cell"
          (Printf.sprintf "c%d" i)
          f.Job_pool.label)
    r

let test_interrupt_and_resume () =
  (* Run 1: cell c2 fails (its marker is absent), the rest journal.
     Run 2 with [resume]: only c2 re-executes — the witness counts prove
     the journaled cells were reused, and the merged results are
     complete and in order. *)
  with_tmp "journal" @@ fun journal ->
  with_tmp "wit" @@ fun wit ->
  with_tmp "fix" @@ fun fix ->
  Sys.remove journal;
  Sys.remove fix;
  let jobs () =
    List.init 5 (fun i ->
        Job_pool.job ~label:(Printf.sprintf "c%d" i) (fun () ->
            witness wit (Printf.sprintf "c%d" i);
            if i = 2 && not (Sys.file_exists fix) then failwith "not yet";
            i + 100))
  in
  (match
     Job_pool.run_hardened ~jobs:2 ~journal ~journal_key:"resume-test"
       (jobs ())
   with
  | [ Ok 100; Ok 101; Error f; Ok 103; Ok 104 ] ->
    Alcotest.(check string) "failed cell" "c2" f.Job_pool.label
  | _ -> Alcotest.fail "run 1: expected c2 to fail, others to pass");
  witness fix "fixed";
  (match
     Job_pool.run_hardened ~jobs:2 ~journal ~journal_key:"resume-test"
       ~resume:true (jobs ())
   with
  | [ Ok 100; Ok 101; Ok 102; Ok 103; Ok 104 ] -> ()
  | _ -> Alcotest.fail "run 2: expected full recovery");
  List.iter
    (fun i ->
      checki
        (Printf.sprintf "c%d executions" i)
        (if i = 2 then 2 else 1)
        (witness_count wit (Printf.sprintf "c%d" i)))
    [ 0; 1; 2; 3; 4 ]

let test_stale_journal_key_ignored () =
  with_tmp "journal" @@ fun journal ->
  with_tmp "wit" @@ fun wit ->
  Sys.remove journal;
  let jobs key =
    [
      Job_pool.job ~label:"only" (fun () ->
          witness wit key;
          42);
    ]
  in
  ignore
    (Job_pool.run_hardened ~jobs:2 ~journal ~journal_key:"config-A"
       (jobs "A"));
  (* Same labels, different configuration key: the journal must not be
     trusted, the cell runs again. *)
  (match
     Job_pool.run_hardened ~jobs:2 ~journal ~journal_key:"config-B"
       ~resume:true (jobs "B")
   with
  | [ Ok 42 ] -> ()
  | _ -> Alcotest.fail "expected Ok 42");
  checki "cell re-ran under the new key" 1 (witness_count wit "B")

let test_sigkill_containment_property () =
  (* Property: for any subset of cells SIGKILLed mid-run, the pool
     terminates, reports exactly the killed cells as failures naming the
     signal, and returns every other cell's value in order. *)
  let cells = 8 in
  let prop mask =
    let jobs =
      List.init cells (fun i ->
          Job_pool.job ~label:(Printf.sprintf "k%d" i) (fun () ->
              if mask land (1 lsl i) <> 0 then
                Unix.kill (Unix.getpid ()) Sys.sigkill;
              i))
    in
    let r = Job_pool.run_hardened ~jobs:3 jobs in
    List.length r = cells
    && List.for_all2
         (fun i res ->
           match res with
           | Ok v -> mask land (1 lsl i) = 0 && v = i
           | Error (f : Job_pool.failure) ->
             mask land (1 lsl i) <> 0
             && f.label = Printf.sprintf "k%d" i
             && contains f.reason "SIGKILL")
         (List.init cells Fun.id)
         r
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:12 ~name:"sigkill containment"
       QCheck.(int_bound ((1 lsl cells) - 1))
       prop)

(* ------------------------------------------------------------------ *)
(* Experiment tables are -j invariant                                  *)
(* ------------------------------------------------------------------ *)

let quick1 = Experiments.quick
let quick4 = { Experiments.quick with jobs = 4 }

let test_fig6_sweep_j_invariant () =
  checkb "fig6 identical at -j4" true
    (Experiments.fig6_sweep quick1 = Experiments.fig6_sweep quick4)

let test_fig8_rows_j_invariant () =
  checkb "fig8 identical at -j4" true
    (Experiments.fig8_rows quick1 = Experiments.fig8_rows quick4)

let test_fig12_rows_j_invariant () =
  checkb "fig12 identical at -j4" true
    (Experiments.fig12_rows quick1 = Experiments.fig12_rows quick4)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "job_pool"
    [
      ( "pool",
        [
          tc "submission-order determinism" test_order_determinism;
          tc "serial fast path in-process" test_serial_fast_path_runs_in_process;
          tc "serial fast path raw exceptions" test_serial_fast_path_raw_exceptions;
          tc "forked workers isolated" test_forked_workers_are_isolated;
          tc "empty and clamped" test_empty_and_clamped;
          tc "default jobs" test_default_jobs_positive;
        ] );
      ( "crash containment",
        [
          tc "raising job names itself" test_raising_job_names_itself;
          tc "first failure in submission order" test_first_failure_in_submission_order;
          tc "dead worker names lost job" test_dead_worker_names_lost_job;
          tc "unmarshalable result contained" test_unmarshalable_result_contained;
        ] );
      ( "hardening",
        [
          tc "timeout kills hung cell" test_timeout_kills_hung_cell;
          tc "retry recovers flaky cell" test_retry_recovers_flaky_cell;
          tc "retry exhaustion counts attempts" test_retry_exhaustion_counts_attempts;
          tc "keep-going reports every cell" test_keep_going_shape;
          tc "interrupt and resume" test_interrupt_and_resume;
          tc "stale journal key ignored" test_stale_journal_key_ignored;
          slow "sigkill containment property" test_sigkill_containment_property;
        ] );
      ( "experiments",
        [
          slow "fig6 -j invariant" test_fig6_sweep_j_invariant;
          slow "fig8 -j invariant" test_fig8_rows_j_invariant;
          slow "fig12 -j invariant" test_fig12_rows_j_invariant;
        ] );
    ]
