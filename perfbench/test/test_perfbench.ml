(* Runs the benchmark executable at [--size tiny] and checks its exit
   code and the JSON result line.  Runs from the build's workspace root,
   which holds perfbench/perfbench.exe, perfbench/recorded.txt and
   BENCHMARK.json, as the benchmark runs from a checkout's root. *)

let exe = Filename.concat (Sys.getcwd ()) "perfbench/perfbench.exe"
let failures = ref 0

let expect name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Run the benchmark; returns its exit code and the last stdout line. *)
let run args =
  let out = Filename.temp_file ~temp_dir:"." "perfbench" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let argv = Array.of_list (exe :: args) in
  let pid = Unix.create_process exe argv Unix.stdin fd Unix.stderr in
  Unix.close fd;
  let _, status = Unix.waitpid [] pid in
  let code = match status with Unix.WEXITED c -> c | _ -> 255 in
  let ic = open_in out in
  let last = ref "" in
  (try
     while true do
       last := input_line ic
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove out;
  (code, !last)

let tiny ?(seed = 1) ~trace workload =
  run
    [ "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; "0.05";
      "--trace"; string_of_int trace; "--size"; "tiny" ]

(* The names of one section of BENCHMARK.json: every ["name": "..."]
   after [from] and before [upto] (default: the end of the file). *)
let section_names ?upto from =
  let ic = open_in "BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let find sub start =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then String.length text
      else if String.sub text i n = sub then i
      else go (i + 1)
    in
    go start
  in
  let hi =
    match upto with Some u -> find u (find from 0) | None -> String.length text
  in
  let rec names i acc =
    let j = find "\"name\": \"" i + 9 in
    if j >= hi then List.rev acc
    else
      let k = String.index_from text j '"' in
      names k (String.sub text j (k - j) :: acc)
  in
  names (find from 0) []

let workloads = section_names ~upto:"\"end_to_end\"" "\"workloads\""
let end_to_end = section_names ~upto:"\"per_layer\"" "\"end_to_end\""
let per_layer = section_names "\"per_layer\""

let count_sub s sub =
  let n = String.length sub in
  let c = ref 0 in
  for i = 0 to String.length s - n do
    if String.sub s i n = sub then incr c
  done;
  !c

(* Exit 0, every run correct, and exactly the BENCHMARK.json metrics. *)
let passes name (code, last) metrics =
  expect (name ^ ": exit 0") (code = 0);
  expect (name ^ ": correct, no failed run")
    (contains last "{\"correct\": true," && contains last "\"failed\": 0,");
  List.iter
    (fun m ->
      expect (name ^ ": reports " ^ m) (contains last (Printf.sprintf "%S: {\"value\": " m)))
    metrics;
  expect (name ^ ": reports nothing else")
    (count_sub last "{\"value\": " = List.length metrics)

(* A fresh directory holding perfbench/recorded.txt with one hex digit
   of its first queue-stress digest changed. *)
let tampered () =
  let dir = Filename.temp_dir ~temp_dir:(Sys.getcwd ()) "tampered" "" in
  Unix.mkdir (Filename.concat dir "perfbench") 0o755;
  let path = Filename.concat dir "perfbench/recorded.txt" in
  let ic = open_in "perfbench/recorded.txt" and oc = open_out path in
  let done_ = ref false in
  (try
     while true do
       let line = input_line ic in
       let line =
         if
           !done_ || line = "" || line.[0] = '#'
           || not (contains line "tiny/queue-stress/")
         then line
         else begin
           done_ := true;
           let b = Bytes.of_string line in
           let i = Bytes.length b - 1 in
           Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
           Bytes.to_string b
         end
       in
       output_string oc (line ^ "\n")
     done
   with End_of_file -> ());
  close_in ic;
  close_out oc;
  dir

let () =
  expect "BENCHMARK.json lists workloads and metrics"
    (workloads <> [] && end_to_end <> [] && per_layer <> []);
  List.iter
    (fun w ->
      passes (w ^ " untraced") (tiny ~trace:0 w) end_to_end;
      passes (w ^ " traced") (tiny ~trace:1 w) per_layer)
    workloads;
  (* Off the default seed only Validate and repeat agreement apply. *)
  passes "tenancy seed 7" (tiny ~seed:7 ~trace:0 "tenancy") end_to_end;
  let dir = tampered () in
  let home = Sys.getcwd () in
  Sys.chdir dir;
  let code, last = tiny ~trace:0 "queue-stress" in
  Sys.chdir home;
  Sys.remove (Filename.concat dir "perfbench/recorded.txt");
  Sys.rmdir (Filename.concat dir "perfbench");
  Sys.rmdir dir;
  expect "tampered digest: non-zero exit" (code <> 0);
  expect "tampered digest: runs_failed > 0"
    (contains last "{\"correct\": false," && not (contains last "\"failed\": 0,"));
  let code, last = run [ "--workload"; "no-such-workload" ] in
  expect "unknown workload: non-zero exit, no result"
    (code <> 0 && not (contains last "correct"));
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
