(* End-to-end exit-code contract of the CLI, exercised through the real
   executable: validate/chaos/experiment must exit nonzero exactly when
   a check fails or a cell is lost, fleet/service must reject a bad
   scheme with exit 1, and the chaos matrix must emit byte-identical
   stdout at every -j and across an interrupt-and-resume.

   Cell failures are injected with SGX_PRELOAD_FAIL_CELL (a substring of
   a cell label, honoured by Job_pool workers), so the failure paths run
   through the production pool, not a test double. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* The test binary lives in _build/default/test/; the CLI is its sibling
   under bin/ regardless of the directory dune runs us from. *)
let exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "sgx_preload.exe")

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Run the CLI via /bin/sh; returns (exit code, stdout, stderr).  [env]
   entries are prepended as VAR=value assignments; [limit] runs the CLI
   under coreutils' timeout, so a hang fails the test (exit 124) instead
   of stalling the suite. *)
let run_cli ?(env = []) ?limit args =
  let out = Filename.temp_file "sgx_preload_cli" ".out" in
  let err = Filename.temp_file "sgx_preload_cli" ".err" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ out; err ])
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s%s %s > %s 2> %s"
          (String.concat " "
             (List.map (fun (k, v) -> k ^ "=" ^ Filename.quote v) env))
          (match limit with
          | None -> ""
          | Some seconds -> Printf.sprintf "timeout %d " seconds)
          (Filename.quote exe)
          (String.concat " " (List.map Filename.quote args))
          (Filename.quote out) (Filename.quote err)
      in
      let code = Sys.command cmd in
      (code, read_file out, read_file err))

(* A chaos matrix small enough for a test: one synthetic workload, one
   plan, still 8 cells (4 schemes x {fault-free, garbled-trace}). *)
let tiny_chaos extra =
  [ "chaos"; "--quick"; "--workloads"; "best-case"; "--plans"; "garbled-trace" ]
  @ extra

let test_chaos_ok_exit_zero () =
  let code, out, _ = run_cli (tiny_chaos [ "-j"; "2" ]) in
  checki "exit 0" 0 code;
  checkb "summary reports clean matrix" true
    (contains out "8 cells, 0 invariant violation(s), 0 failed cell(s)")

let test_chaos_j_byte_identical () =
  let _, out1, _ = run_cli (tiny_chaos [ "-j"; "1" ]) in
  let _, out4, _ = run_cli (tiny_chaos [ "-j"; "4" ]) in
  checkb "-j1 and -j4 stdout byte-identical" true (out1 = out4)

let test_chaos_unknown_plan_rejected () =
  let code, _, err = run_cli [ "chaos"; "--plans"; "no-such-plan" ] in
  checkb "exit nonzero" true (code <> 0);
  checkb "stderr names the plan and lists the bank" true
    (contains err "no-such-plan" && contains err "jittery-channel")

let test_chaos_failed_cells_exit_nonzero () =
  let env = [ ("SGX_PRELOAD_FAIL_CELL", "/SIP/") ] in
  (* Without --keep-going the failures abort the matrix... *)
  let code, _, err = run_cli ~env (tiny_chaos [ "-j"; "2" ]) in
  checkb "abort: exit nonzero" true (code <> 0);
  checkb "abort: stderr names a lost cell" true (contains err "/SIP/");
  (* ...with it, the rest of the matrix still prints, but the exit code
     must stay nonzero. *)
  let code, out, _ =
    run_cli ~env (tiny_chaos [ "-j"; "2"; "--keep-going" ])
  in
  checkb "keep-going: exit nonzero" true (code <> 0);
  checkb "keep-going: survivors reported" true
    (contains out "8 cells, 0 invariant violation(s), 2 failed cell(s)")

let test_chaos_interrupt_and_resume () =
  (* An injected failure stands in for the interrupt: run 1 journals the
     cells that completed and exits nonzero; run 2 resumes with the
     fault gone and must produce stdout byte-identical to a never-failed
     run. *)
  let dir = Filename.temp_file "sgx_preload_cli" ".journal" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let _, clean, _ = run_cli (tiny_chaos []) in
      let code, _, _ =
        run_cli
          ~env:[ ("SGX_PRELOAD_FAIL_CELL", "/SIP/") ]
          (tiny_chaos [ "--keep-going"; "--journal"; dir ])
      in
      checkb "interrupted run exits nonzero" true (code <> 0);
      let code, resumed, _ =
        run_cli (tiny_chaos [ "--journal"; dir; "--resume" ])
      in
      checki "resumed run exits 0" 0 code;
      checkb "resumed stdout identical to a clean run" true (clean = resumed))

let test_validate_exit_zero_on_clean_run () =
  let code, out, _ =
    run_cli [ "validate"; "best-case"; "dfp-stop"; "--epc"; "512" ]
  in
  checki "exit 0" 0 code;
  checkb "reports all invariants hold" true (contains out "all invariants hold")

(* [validate] is the one command that replays with a complete event log,
   which the scan alignment of the online checks needs. *)
let test_validate_online () =
  let code, out, _ =
    run_cli [ "validate"; "mixed-blood"; "baseline"; "--online"; "--epc"; "1024" ]
  in
  checki "exit 0" 0 code;
  checkb "online label and all invariants hold" true
    (contains out "baseline+online: all invariants hold");
  let code, _, err =
    run_cli
      [ "validate"; "mixed-blood"; "baseline"; "--online=online:window=0" ]
  in
  checki "bad spec: exit 1" 1 code;
  checkb "bad spec: stderr gives the error" true
    (contains err "window must be positive")

let test_experiment_keep_going_exit_codes () =
  let args = [ "experiment"; "fig2"; "--quick"; "--keep-going" ] in
  let code, _, _ = run_cli args in
  checki "clean experiment exits 0" 0 code;
  (* Every matrix behind [experiment] honours the hardening flags: a
     lost cell fails its experiment, which is reported on stderr and
     makes the run exit 1 — never an uncaught exception, never 0, never
     a hang past --timeout. *)
  List.iter
    (fun (what, env, extra, names) ->
      let code, _, err =
        run_cli ~env ~limit:60 ([ "experiment" ] @ extra @ [ "--quick"; "--keep-going" ])
      in
      checki (what ^ ": exit 1") 1 code;
      checkb (what ^ ": stderr names the experiment") true (contains err names);
      checkb (what ^ ": no internal error") false (contains err "internal error"))
    [
      ("fig2", [ ("SGX_PRELOAD_FAIL_CELL", "fig2/") ], [ "fig2" ], "fig2");
      ( "one service cell",
        [ ("SGX_PRELOAD_FAIL_CELL", "service-load/gap=1875000/dfp-stop") ],
        [ "service" ], "service" );
      ( "every resilience cell",
        [ ("SGX_PRELOAD_FAIL_CELL", "dfp-stop") ],
        [ "resilience" ], "resilience" );
      ( "one fleet cell",
        [ ("SGX_PRELOAD_FAIL_CELL", "fleet/SIP/shared") ],
        [ "fleet" ], "fleet" );
      ( "one hung fleet cell",
        [ ("SGX_PRELOAD_HANG_CELL", "fleet/SIP/shared") ],
        [ "fleet"; "--timeout"; "2" ], "fleet" );
    ]

(* [service] keeps going cell by cell: the surviving schemes print, the
   lost one is named on stderr, and the exit code still says a cell was
   lost. *)
let test_service_keep_going_exit_1 () =
  let code, out, err =
    run_cli
      ~env:[ ("SGX_PRELOAD_FAIL_CELL", "service/dfp-stop") ]
      [
        "service"; "lbm"; "--schemes"; "baseline,dfp-stop"; "--requests"; "30";
        "--epc"; "512"; "--keep-going";
      ]
  in
  checki "exit 1" 1 code;
  checkb "surviving row printed" true (contains out "baseline ");
  checkb "lost row absent" false (contains out "dfp-stop");
  checkb "stderr names the lost cell" true (contains err "service/dfp-stop")

let with_temp_dir f =
  let dir = Filename.temp_file "sgx_preload_cli" ".journal" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* Every pool call behind [experiment] journals under its own file, so a
   resumed run reuses every journal whole and prints the same bytes. *)
let test_experiment_journal_resume () =
  with_temp_dir (fun dir ->
      let args = [ "experiment"; "fleet"; "service"; "--quick"; "--journal"; dir ] in
      let code, first, _ = run_cli args in
      checki "journaled run exits 0" 0 code;
      let journals = List.sort compare (Array.to_list (Sys.readdir dir)) in
      checkb "fleet journal written" true (List.mem "fleet.journal" journals);
      checkb "service journals written" true
        (List.exists (fun f -> String.starts_with ~prefix:"service" f) journals);
      let code, resumed, err = run_cli (args @ [ "--resume" ]) in
      checki "resumed run exits 0" 0 code;
      List.iter
        (fun f ->
          checkb (f ^ " reused") true
            (contains err
               (Printf.sprintf "journal %s: reused" (Filename.concat dir f))))
        journals;
      checkb "resumed stdout byte-identical" true (first = resumed))

(* A bad scheme string in a forked matrix must be rejected in the
   parent, before any cell forks: a worker that exits only kills itself,
   and the pool then reports an internal error (exit 125). *)
let check_unknown_scheme_rejected args =
  List.iter
    (fun jobs ->
      let code, _, err = run_cli (args @ [ "-j"; jobs ]) in
      checki ("-j " ^ jobs ^ ": exit 1") 1 code;
      checkb
        ("-j " ^ jobs ^ ": stderr names the scheme")
        true
        (contains err "unknown scheme \"bogus\"");
      checkb
        ("-j " ^ jobs ^ ": no internal error")
        false (contains err "internal error"))
    [ "1"; "2" ]

let test_service_unknown_scheme_exits_1 () =
  check_unknown_scheme_rejected
    [ "service"; "lbm"; "--schemes"; "baseline,bogus" ]

let test_fleet_unknown_scheme_exits_1 () =
  check_unknown_scheme_rejected
    [ "fleet"; "lbm"; "xz"; "--schemes"; "bogus"; "--mode"; "both" ]

(* Trace and plan files are user input: every broken one is reported on
   stderr with exit 1, whichever command reads it and at any -j. *)
let test_bad_input_files_exit_1 () =
  with_temp_dir (fun dir ->
      let file name content =
        let path = Filename.concat dir name in
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        path
      in
      let trace body =
        "# sgx-preload trace v1\nname t\nelrange 4\nfootprint 2\nsite 0 s\n"
        ^ body
      in
      let malformed = file "malformed.trace" (trace "a 0 x 10 0\n") in
      let neg_page = file "neg-page.trace" (trace "a 0 -1 10 0\n") in
      let neg_thread = file "neg-thread.trace" (trace "a 0 1 10 -2\n") in
      let outside = file "outside.trace" (trace "a 0 1 10 0\na 0 9 10 0\n") in
      let unnamed = file "unnamed.trace" (trace "a 0 1 10 0\n") in
      let missing = Filename.concat dir "missing.trace" in
      let bad_plan =
        file "bad.plan" "# sgx-preload plan v1\nworkload lbm\nthreshold x\n"
      in
      let no_plan = Filename.concat dir "missing.plan" in
      List.iter
        (fun (what, args, message) ->
          let code, _, err = run_cli args in
          checki (what ^ ": exit 1") 1 code;
          checkb (what ^ ": stderr explains") true (contains err message);
          checkb (what ^ ": no internal error") false
            (contains err "internal error"))
        [
          ("malformed field", [ "replay"; malformed ], "line 6: malformed vpage");
          ("negative page", [ "replay"; neg_page ], "line 6: negative vpage");
          ("negative thread", [ "replay"; neg_thread ], "line 6: negative thread");
          ("page past elrange", [ "replay"; outside ], "line 7: page 9 outside");
          ("missing trace", [ "replay"; missing ], "missing.trace");
          ( "sip on an unknown model",
            [ "replay"; unnamed; "--scheme"; "sip" ],
            "no shipped workload named \"t\"" );
          ( "hybrid on an unknown model",
            [ "replay"; unnamed; "--scheme"; "hybrid" ],
            "no shipped workload named \"t\"" );
          ( "malformed plan",
            [ "run"; "lbm"; "--scheme"; "sip"; "--plan"; bad_plan; "--epc"; "512" ],
            "malformed threshold" );
          ( "missing plan",
            [ "run"; "lbm"; "--scheme"; "sip"; "--plan"; no_plan; "--epc"; "512" ],
            "missing.plan" );
          ( "fleet plan",
            [
              "fleet"; "lbm"; "xz"; "--schemes"; "sip"; "--plan"; bad_plan;
              "--epc"; "512"; "-j"; "2";
            ],
            "malformed threshold" );
          ( "service plan",
            [
              "service"; "lbm"; "--schemes"; "sip,baseline"; "--plan"; bad_plan;
              "--epc"; "512"; "--requests"; "20"; "-j"; "2";
            ],
            "malformed threshold" );
        ])

let () =
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "cli"
    [
      ( "exit codes",
        [
          slow "chaos clean exits 0" test_chaos_ok_exit_zero;
          slow "chaos -j byte-identical" test_chaos_j_byte_identical;
          slow "chaos unknown plan rejected" test_chaos_unknown_plan_rejected;
          slow "chaos failed cells exit nonzero" test_chaos_failed_cells_exit_nonzero;
          slow "chaos interrupt and resume" test_chaos_interrupt_and_resume;
          slow "validate clean exits 0" test_validate_exit_zero_on_clean_run;
          slow "validate --online" test_validate_online;
          slow "experiment keep-going exit codes" test_experiment_keep_going_exit_codes;
          slow "service keep-going exits 1" test_service_keep_going_exit_1;
          slow "experiment journal resume" test_experiment_journal_resume;
          slow "bad trace and plan files exit 1" test_bad_input_files_exit_1;
          slow "service unknown scheme exits 1" test_service_unknown_scheme_exits_1;
          slow "fleet unknown scheme exits 1" test_fleet_unknown_scheme_exits_1;
        ] );
    ]
