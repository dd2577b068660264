type 'a job = { label : string; run : unit -> 'a }

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else
    let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
    at 0

(* Test plumbing for the driver-level failure-path tests: with
   SGX_PRELOAD_FAIL_CELL (resp. SGX_PRELOAD_HANG_CELL) set to a substring
   of a cell label, that cell raises (resp. sleeps forever) instead of
   running.  The check happens at execution time, in the worker, so
   shelled-out tests can exercise crash containment, timeouts, retry and
   keep-going through the real CLI. *)
let injected label =
  let matches var = function
    | Some pat when pat <> "" && contains_sub label pat -> Some var
    | _ -> None
  in
  match matches `Fail (Sys.getenv_opt "SGX_PRELOAD_FAIL_CELL") with
  | Some v -> Some v
  | None -> matches `Hang (Sys.getenv_opt "SGX_PRELOAD_HANG_CELL")

let job ~label run =
  {
    label;
    run =
      (fun () ->
        (match injected label with
        | Some `Fail -> failwith ("injected failure in cell " ^ label)
        | Some `Hang ->
          while true do
            Unix.sleepf 3600.0
          done
        | None -> ());
        run ());
  }

exception Job_failed of { label : string; reason : string }

type failure = { label : string; reason : string; attempts : int }

let describe (f : failure) =
  Printf.sprintf "%s: %s (%d attempt(s))" f.label f.reason f.attempts

let () =
  Printexc.register_printer (function
    | Job_failed { label; reason } ->
      Some (Printf.sprintf "Job_pool.Job_failed(%s): %s" label reason)
    | _ -> None)

let default_jobs () =
  (* getconf is POSIX; on the odd machine without it, serial is the only
     safe answer. *)
  try
    let ic = Unix.open_process_in "getconf _NPROCESSORS_ONLN 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match (Unix.close_process_in ic, int_of_string_opt (String.trim line)) with
    | Unix.WEXITED 0, Some n when n >= 1 -> n
    | _ -> 1
  with Unix.Unix_error _ | Sys_error _ -> 1

(* What a cell process sends back: the payload on success, the printed
   exception otherwise.  Travels through [Marshal], so [Done] payloads
   must be closure-free — enforced at the send site, where a marshal
   failure is downgraded to [Failed]. *)
type 'a outcome = Done of 'a | Failed of string

let run_serial js = List.map (fun j -> j.run ()) js

let note fmt = Printf.ksprintf (fun s -> Printf.eprintf "job-pool: %s\n%!" s) fmt

let signal_name n =
  if n = Sys.sigkill then "SIGKILL"
  else if n = Sys.sigsegv then "SIGSEGV"
  else if n = Sys.sigterm then "SIGTERM"
  else if n = Sys.sigint then "SIGINT"
  else if n = Sys.sigabrt then "SIGABRT"
  else Printf.sprintf "signal %d" n

let status_reason = function
  | Unix.WEXITED 0 -> "cell process exited without reporting a result"
  | Unix.WEXITED n -> Printf.sprintf "cell process exited with status %d" n
  | Unix.WSIGNALED n ->
    Printf.sprintf "cell process killed by %s" (signal_name n)
  | Unix.WSTOPPED n ->
    Printf.sprintf "cell process stopped by %s" (signal_name n)

(* ------------------------------------------------------------------ *)
(* Cell journal                                                        *)
(* ------------------------------------------------------------------ *)

(* On-disk checkpoint of completed cells so an interrupted matrix can be
   resumed.  Binary format: one marshaled [string] key record (matrix
   identity), then marshaled [(label, value)] pairs appended as cells
   complete.  A torn final record (the run died mid-write) is tolerated:
   reading stops at the first undecodable record. *)

let journal_magic = "sgx-preload cell-journal v1\x00"

let effective_key ~journal_key labels =
  (* The caller's key names the matrix configuration; the digest of the
     label list pins the exact cell set, so a journal can never be
     replayed against a different matrix (whose cell values would not
     even have the right type). *)
  Printf.sprintf "%s%s|%s" journal_magic journal_key
    (Digest.to_hex (Digest.string (String.concat "\n" labels)))

let read_journal (type a) path ~key : (string, a) Hashtbl.t option =
  if not (Sys.file_exists path) then None
  else
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match (try Some (Marshal.from_channel ic : string) with _ -> None) with
        | Some k when k = key ->
          let tbl : (string, a) Hashtbl.t = Hashtbl.create 64 in
          (try
             while true do
               let label, v = (Marshal.from_channel ic : string * a) in
               Hashtbl.replace tbl label v
             done
           with _ -> ());
          Some tbl
        | Some _ ->
          note "journal %s is for a different matrix; starting fresh" path;
          None
        | None -> None)

(* ------------------------------------------------------------------ *)
(* Hardened pool: one forked process per cell                          *)
(* ------------------------------------------------------------------ *)

type running = {
  pid : int;
  fd : Unix.file_descr;
  buf : Buffer.t;
  started : float;
  attempts : int; (* 1-based attempt number of this execution *)
}

type 'a state =
  | Pending of { attempts : int; not_before : float }
      (* [attempts] = executions already made (0 before the first). *)
  | Running of running
  | Finished of ('a, failure) result

let spawn (j : _ job) ~attempts =
  (* Anything buffered before the fork would be flushed once per cell. *)
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let outcome = try Done (j.run ()) with e -> Failed (Printexc.to_string e) in
    let payload =
      (* Serialize before writing so a non-marshalable result produces a
         clean [Failed] record instead of torn bytes on the pipe. *)
      try Marshal.to_bytes outcome []
      with e ->
        Marshal.to_bytes
          (Failed
             (Printf.sprintf "result not marshalable: %s" (Printexc.to_string e)))
          []
    in
    let rec write_all pos =
      if pos < Bytes.length payload then
        let n = Unix.write w payload pos (Bytes.length payload - pos) in
        write_all (pos + n)
    in
    (try write_all 0 with _ -> ());
    (* [_exit]: the child must not run the parent's [at_exit] handlers or
       flush its copies of the parent's buffers. *)
    Unix._exit 0
  | pid ->
    Unix.close w;
    Running { pid; fd = r; buf = Buffer.create 4096; started = Unix.gettimeofday (); attempts }

let reap_kill (r : running) =
  (try Unix.kill r.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] r.pid) with Unix.Unix_error _ -> ());
  try Unix.close r.fd with Unix.Unix_error _ -> ()

let run_hardened (type a) ?(jobs = 1) ?timeout ?(retries = 0) ?(backoff = 0.5)
    ?journal ?(resume = false) ?(journal_key = "") (js : a job list) :
    (a, failure) result list =
  if jobs > 1024 then invalid_arg "Job_pool.run_hardened: jobs > 1024";
  if retries < 0 then invalid_arg "Job_pool.run_hardened: retries < 0";
  let arr = Array.of_list js in
  let total = Array.length arr in
  let key =
    effective_key ~journal_key (List.map (fun (j : a job) -> j.label) js)
  in
  (* Resume: completed cells recorded by a previous (interrupted) run are
     final before anything forks. *)
  let resumed : (string, a) Hashtbl.t =
    match journal with
    | Some path when resume -> (
      match read_journal path ~key with
      | Some tbl ->
        if Hashtbl.length tbl > 0 then
          note "journal %s: reused %d of %d cells" path (Hashtbl.length tbl) total;
        tbl
      | None -> Hashtbl.create 1)
    | Some _ | None -> Hashtbl.create 1
  in
  let states : a state array =
    Array.map
      (fun (j : a job) ->
        match Hashtbl.find_opt resumed j.label with
        | Some v ->
          (* A label can repeat; each journal entry satisfies every
             occurrence (cells are pure, so equal labels mean equal
             values). *)
          Finished (Ok v)
        | None -> Pending { attempts = 0; not_before = 0.0 })
      arr
  in
  let jc =
    match journal with
    | None -> None
    | Some path -> (
      match (resume, Hashtbl.length resumed > 0) with
      | true, true ->
        (* Append to the journal we resumed from. *)
        Some (open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path)
      | _ ->
        let oc = open_out_bin path in
        Marshal.to_channel oc key [];
        flush oc;
        Some oc)
  in
  let journal_append label (v : a) =
    match jc with
    | None -> ()
    | Some oc ->
      Marshal.to_channel oc (label, v) [];
      flush oc
  in
  let slots = max 1 (min jobs (max 1 total)) in
  let finished = ref 0 in
  Array.iter (function Finished _ -> incr finished | _ -> ()) states;
  let running_count () =
    Array.fold_left
      (fun n -> function Running _ -> n + 1 | _ -> n)
      0 states
  in
  let finish i (r : (a, failure) result) =
    states.(i) <- Finished r;
    incr finished
  in
  let retry_or_fail i ~attempts reason =
    let label = arr.(i).label in
    if attempts <= retries then begin
      let delay = backoff *. (2.0 ** float_of_int (attempts - 1)) in
      note "cell %s failed (attempt %d of %d): %s; retrying in %.1fs" label
        attempts (retries + 1) reason delay;
      states.(i) <- Pending { attempts; not_before = Unix.gettimeofday () +. delay }
    end
    else finish i (Error { label; reason; attempts })
  in
  let finalize_eof i (r : running) =
    let _, status = Unix.waitpid [] r.pid in
    (try Unix.close r.fd with Unix.Unix_error _ -> ());
    let bytes = Buffer.to_bytes r.buf in
    let parsed : a outcome option =
      if
        Bytes.length bytes >= Marshal.header_size
        && Bytes.length bytes >= Marshal.total_size bytes 0
      then try Some (Marshal.from_bytes bytes 0) with _ -> None
      else None
    in
    match parsed with
    | Some (Done v) ->
      journal_append arr.(i).label v;
      finish i (Ok v)
    | Some (Failed reason) -> retry_or_fail i ~attempts:r.attempts reason
    | None -> retry_or_fail i ~attempts:r.attempts (status_reason status)
  in
  let chunk = Bytes.create 65536 in
  let step () =
    let now = Unix.gettimeofday () in
    (* Kill cells past their wall-clock budget before launching more. *)
    (match timeout with
    | None -> ()
    | Some t ->
      Array.iteri
        (fun i st ->
          match st with
          | Running r when now -. r.started > t ->
            reap_kill r;
            retry_or_fail i ~attempts:r.attempts
              (Printf.sprintf "timed out after %.1fs (worker SIGKILLed)" t)
          | _ -> ())
        states);
    (* Launch pending cells, submission order first, into free slots. *)
    let free = ref (slots - running_count ()) in
    Array.iteri
      (fun i st ->
        match st with
        | Pending { attempts; not_before } when !free > 0 && not_before <= now ->
          states.(i) <- spawn arr.(i) ~attempts:(attempts + 1);
          decr free
        | _ -> ())
      states;
    (* Wait for output, a timeout deadline, or a backoff expiry. *)
    let fds =
      Array.fold_left
        (fun acc -> function Running r -> r.fd :: acc | _ -> acc)
        [] states
    in
    let deadline =
      Array.fold_left
        (fun acc st ->
          let candidate =
            match st with
            | Running r -> Option.map (fun t -> r.started +. t) timeout
            | Pending { not_before; _ } when not_before > now -> Some not_before
            | _ -> None
          in
          match (acc, candidate) with
          | None, c -> c
          | Some a, Some c -> Some (Float.min a c)
          | Some _, None -> acc)
        None states
    in
    let wait =
      match deadline with
      | None -> -1.0 (* block until a cell writes or EOFs *)
      | Some d -> Float.max 0.0 (d -. now)
    in
    let readable =
      if fds = [] then begin
        if wait > 0.0 then ignore (Unix.select [] [] [] wait);
        []
      end
      else
        match Unix.select fds [] [] wait with
        | readable, _, _ -> readable
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun fd ->
        (* Find the cell owning this fd; it is necessarily Running. *)
        Array.iteri
          (fun i st ->
            match st with
            | Running r when r.fd == fd -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> finalize_eof i r
              | n -> Buffer.add_subbytes r.buf chunk 0 n
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
            | _ -> ())
          states)
      readable
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (function Running r -> reap_kill r | _ -> ()) states;
      match jc with Some oc -> close_out_noerr oc | None -> ())
    (fun () ->
      while !finished < total do
        step ()
      done);
  Array.to_list
    (Array.map
       (function
         | Finished r -> r
         | Pending _ | Running _ -> assert false (* loop ran to completion *))
       states)

let run ?(jobs = 1) js =
  if jobs > 1024 then invalid_arg "Job_pool.run: jobs > 1024";
  let n = min jobs (List.length js) in
  if n <= 1 then run_serial js
  else
    List.map2
      (fun (j : _ job) r ->
        match r with
        | Ok v -> v
        | Error (f : failure) ->
          (* List.map2 evaluates left to right, so the first failing cell
             in submission order raises — whatever the slot count. *)
          raise (Job_failed { label = j.label; reason = f.reason }))
      js
      (run_hardened ~jobs:n js)
