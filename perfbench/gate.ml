(* The correctness gate.  Every run the benchmark makes — timed, traced
   or reference — passes through [check]: an exception, an invariant
   violation ([Validate]/[Fleet.check]/[Service.check]), or a digest
   that differs from the recorded one (default seed) or from the same
   run's earlier repetitions (any seed) counts it in [failed]. *)

type t = {
  recorded : (string, string) Hashtbl.t option;
      (** Expected digest per run key; [None] off the default seed. *)
  seen : (string, string) Hashtbl.t;  (** First digest of each run key. *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** Newest first; the first few are printed. *)
}

let create recorded =
  { recorded; seen = Hashtbl.create 64; attempted = 0; failed = 0; problems = [] }

let fail t msg =
  t.failed <- t.failed + 1;
  t.problems <- msg :: t.problems

(* A run key is "<size>/<workload>/<run label>", the line key of
   [recorded.txt]. *)
let check t ~key output =
  t.attempted <- t.attempted + 1;
  let digest = Outputs.digest output in
  let vs = Outputs.violations output in
  let mismatch what expected =
    fail t (Printf.sprintf "%s: digest %s differs from %s %s" key digest what expected)
  in
  if vs <> [] then
    fail t (Printf.sprintf "%s: %s" key (Sim.Validate.report vs))
  else begin
    match Hashtbl.find_opt t.seen key with
    | Some first when first <> digest -> mismatch "an earlier repetition" first
    | Some _ -> ()
    | None -> (
      Hashtbl.add t.seen key digest;
      match t.recorded with
      | None -> ()
      | Some tbl -> (
        match Hashtbl.find_opt tbl key with
        | Some expected when expected = digest -> ()
        | Some expected -> mismatch "the recorded" expected
        | None -> mismatch "the recorded" "(none recorded)"))
  end

(* A run that raised never produced outputs: one attempted, one failed. *)
let crashed t ~key exn =
  t.attempted <- t.attempted + 1;
  fail t (Printf.sprintf "%s: raised %s" key (Printexc.to_string exn))

(* [recorded.txt]: one "<key> <md5 hex>" per line; '#' starts a comment. *)
let load_recorded path =
  let tbl = Hashtbl.create 64 in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = String.trim (input_line ic) in
          if line <> "" && line.[0] <> '#' then
            match String.split_on_char ' ' line with
            | [ key; digest ] -> Hashtbl.replace tbl key digest
            | _ -> failwith ("malformed line in " ^ path ^ ": " ^ line)
        done
      with End_of_file -> ());
  tbl

(* The digests of this invocation, in [recorded.txt] form. *)
let recorded_lines t =
  Hashtbl.fold (fun k d acc -> Printf.sprintf "%s %s" k d :: acc) t.seen []
  |> List.sort compare
