type t = {
  events : int;
  distinct_pages : int;
  sites : int;
  threads : int;
  total_compute : int;
  sequential_pairs : int;
  same_page_pairs : int;
  run_length_mean : float;
  hot_persistence : float;
}

(* Hot-page persistence: split the stream into equal windows, take each
   window's most-accessed pages, and measure how much of one window's
   hot set survives into the next.  1.0 = one stable hot set for the
   whole run (residency-friendly; an online classifier can trust old
   labels), ~0 = the hot set turns over every window (stream- or
   scan-like; labels go stale as fast as they are learned). *)
let hot_windows = 16
let hot_top = 64

let hot_persistence_of arena ~events =
  if events = 0 then 0.0
  else begin
    let window_len = max 1 ((events + hot_windows - 1) / hot_windows) in
    let counts = Array.init hot_windows (fun _ -> Hashtbl.create 64) in
    let idx = ref 0 in
    Trace_arena.iter arena ~f:(fun ~site:_ ~vpage ~compute:_ ~thread:_ ->
        let w = min (hot_windows - 1) (!idx / window_len) in
        incr idx;
        let h = counts.(w) in
        Hashtbl.replace h vpage
          (1 + Option.value (Hashtbl.find_opt h vpage) ~default:0));
    let top h =
      (* Total order (count desc, then page asc), so hash-fold order
         cannot leak into the result. *)
      let sorted =
        List.sort
          (fun (p1, n1) (p2, n2) ->
            if n1 <> n2 then compare n2 n1 else compare p1 p2)
          (Hashtbl.fold (fun page n acc -> (page, n) :: acc) h [])
      in
      List.filteri (fun i _ -> i < hot_top) sorted |> List.map fst
    in
    let tops = Array.map top counts in
    let overlaps = ref [] in
    Array.iteri
      (fun i t ->
        if i + 1 < hot_windows then
          match (t, tops.(i + 1)) with
          | [], _ | _, [] -> ()
          | t, t' ->
            let set = Hashtbl.create hot_top in
            List.iter (fun p -> Hashtbl.replace set p ()) t';
            let inter = List.length (List.filter (Hashtbl.mem set) t) in
            overlaps :=
              (float_of_int inter /. float_of_int (List.length t))
              :: !overlaps)
      tops;
    match !overlaps with
    | [] -> 0.0
    | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  end

let analyse trace =
  let arena = Trace_arena.compile trace in
  let pages = Hashtbl.create 1024 in
  let sites = Hashtbl.create 64 in
  let threads = Hashtbl.create 8 in
  let events = ref 0 in
  let total_compute = ref 0 in
  let sequential_pairs = ref 0 in
  let same_page_pairs = ref 0 in
  let prev = ref None in
  let runs = ref 0 in
  let run_pages = ref 0 in
  let current_run = ref 0 in
  let close_run () =
    if !current_run > 0 then begin
      incr runs;
      run_pages := !run_pages + !current_run;
      current_run := 0
    end
  in
  Trace_arena.iter arena ~f:(fun ~site ~vpage ~compute ~thread ->
      incr events;
      total_compute := !total_compute + compute;
      Hashtbl.replace pages vpage ();
      Hashtbl.replace sites site ();
      Hashtbl.replace threads thread ();
      (match !prev with
      | Some p when abs (vpage - p) = 1 ->
        incr sequential_pairs;
        incr current_run
      | Some p when vpage = p ->
        incr same_page_pairs;
        (* A repeat terminates the run in progress — it must not let
           [A, A, A+1] silently bridge two ±1-step runs — and the
           repeated page seeds a fresh one-page candidate run. *)
        close_run ();
        current_run := 1
      | Some _ ->
        close_run ();
        current_run := 1
      | None -> current_run := 1);
      prev := Some vpage);
  close_run ();
  {
    events = !events;
    distinct_pages = Hashtbl.length pages;
    sites = Hashtbl.length sites;
    threads = Hashtbl.length threads;
    total_compute = !total_compute;
    sequential_pairs = !sequential_pairs;
    same_page_pairs = !same_page_pairs;
    run_length_mean =
      (if !runs = 0 then 0.0 else float_of_int !run_pages /. float_of_int !runs);
    hot_persistence = hot_persistence_of arena ~events:!events;
  }

let miss_ratio trace ~epc_pages =
  if epc_pages <= 0 then invalid_arg "Trace_stats.miss_ratio: epc_pages must be positive";
  let arena = Trace_arena.compile trace in
  let lru =
    Repro_util.Page_lru.create ~capacity:epc_pages
      ~pages:trace.Trace.elrange_pages
  in
  let misses = ref 0 in
  Trace_arena.iter arena ~f:(fun ~site:_ ~vpage ~compute:_ ~thread:_ ->
      if not (Repro_util.Page_lru.touch lru vpage) then incr misses);
  let events = Trace_arena.length arena in
  if events = 0 then 0.0 else float_of_int !misses /. float_of_int events

let miss_ratio_curve trace ~epc_pages =
  List.map (fun epc -> (epc, miss_ratio trace ~epc_pages:epc)) epc_pages

let pp fmt t =
  Format.fprintf fmt
    "@[<v>events=%d distinct-pages=%d sites=%d threads=%d compute=%d@ \
     sequential-pairs=%d same-page-pairs=%d mean-run=%.2f \
     hot-persistence=%.2f@]"
    t.events t.distinct_pages t.sites t.threads t.total_compute
    t.sequential_pairs t.same_page_pairs t.run_length_mean t.hot_persistence
