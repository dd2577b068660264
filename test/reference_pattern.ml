(* The pattern generators as they were before they became cursors: each
   pattern a function from a PRNG to a lazy [Seq] of [Access.t]
   records, combinators layered as [Seq.append], [Seq.map], [Seq.take]
   and [Seq.to_dispenser], drawing from [Reference_prng].  Kept only as
   the reference [Workload.Pattern] must agree with, event for event
   and draw for draw (test_workload's differential).  [multi_stream]
   and [weighted_interleave] are the earlier list-based models, whose
   agreement with the int-state versions this file otherwise carries
   was checked before; the rest is the generator verbatim, edge cases
   included ([strided ~pages:0] emits one event, [bursty] accepts
   [run_max > pages], [take] checks its count only when run). *)

module Prng = Reference_prng
module Access = Workload.Access

type t = Prng.t -> Access.t Seq.t

let run t prng = t prng

let draw_compute prng ~compute ~jitter =
  if jitter <= 0.0 || compute = 0 then compute
  else begin
    let spread = int_of_float (float_of_int compute *. jitter) in
    if spread = 0 then compute
    else max 0 (Prng.int_in prng (compute - spread) (compute + spread))
  end

let event prng ~site ~vpage ~compute ~jitter =
  Access.make ~site ~vpage ~compute:(draw_compute prng ~compute ~jitter) ()

let sequential ~site ~base ~pages ~events_per_page ~compute ~jitter =
  if pages < 0 || events_per_page <= 0 then
    invalid_arg "Pattern.sequential: bad sizes";
  fun prng ->
    Seq.unfold
      (fun (p, k) ->
        if p >= pages then None
        else begin
          let acc = event prng ~site ~vpage:(base + p) ~compute ~jitter in
          let next = if k + 1 >= events_per_page then (p + 1, 0) else (p, k + 1) in
          Some (acc, next)
        end)
      (0, 0)

let sequential_desc ~site ~base ~pages ~events_per_page ~compute ~jitter =
  if pages < 0 || events_per_page <= 0 then
    invalid_arg "Pattern.sequential_desc: bad sizes";
  fun prng ->
    Seq.unfold
      (fun (p, k) ->
        if p < 0 then None
        else begin
          let acc = event prng ~site ~vpage:(base + p) ~compute ~jitter in
          let next = if k + 1 >= events_per_page then (p - 1, 0) else (p, k + 1) in
          Some (acc, next)
        end)
      (pages - 1, 0)

let strided ~site ~base ~pages ~stride ~events_per_page ~compute ~jitter =
  if pages < 0 || stride <= 0 || events_per_page <= 0 then
    invalid_arg "Pattern.strided: bad sizes";
  fun prng ->
    (* Visit base+start, base+start+stride, ... for start = 0..stride-1:
       every page exactly once, consecutive accesses [stride] apart. *)
    Seq.unfold
      (fun (start, p, k) ->
        if start >= stride then None
        else begin
          let acc = event prng ~site ~vpage:(base + p) ~compute ~jitter in
          let next =
            if k + 1 < events_per_page then (start, p, k + 1)
            else if p + stride < pages then (start, p + stride, 0)
            else (start + 1, start + 1, 0)
          in
          (* Skip empty sub-sweeps at the tail. *)
          let rec settle (start, p, k) =
            if start < stride && p >= pages then settle (start + 1, start + 1, 0)
            else (start, p, k)
          in
          Some (acc, settle next)
        end)
      (0, 0, 0)

let multi_stream ~site ~streams ~events_per_page ~compute ~jitter =
  if streams = [] then invalid_arg "Pattern.multi_stream: no streams";
  if events_per_page <= 0 then invalid_arg "Pattern.multi_stream: bad events_per_page";
  fun prng ->
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

let uniform_random ~site ~base ~pages ~events ~compute ~jitter =
  if pages <= 0 || events < 0 then invalid_arg "Pattern.uniform_random: bad sizes";
  fun prng ->
    Seq.unfold
      (fun n ->
        if n >= events then None
        else begin
          let vpage = base + Prng.int prng pages in
          Some (event prng ~site ~vpage ~compute ~jitter, n + 1)
        end)
      0

let zipf ~site ~base ~pages ~events ~s ~compute ~jitter =
  if pages <= 0 || events < 0 then invalid_arg "Pattern.zipf: bad sizes";
  fun prng ->
    Seq.unfold
      (fun n ->
        if n >= events then None
        else begin
          let vpage = base + Prng.zipf prng ~n:pages ~s in
          Some (event prng ~site ~vpage ~compute ~jitter, n + 1)
        end)
      0

let pointer_chase ~site ~base ~pages ~events ~locality ~compute ~jitter =
  if pages <= 0 || events < 0 then invalid_arg "Pattern.pointer_chase: bad sizes";
  fun prng ->
    Seq.unfold
      (fun (current, n) ->
        if n >= events then None
        else begin
          let vpage =
            if Prng.chance prng locality then begin
              let step = Prng.int_in prng (-2) 2 in
              let p = current + step in
              if p < 0 then 0 else if p >= pages then pages - 1 else p
            end
            else Prng.int prng pages
          in
          Some (event prng ~site ~vpage:(base + vpage) ~compute ~jitter, (vpage, n + 1))
        end)
      (Prng.int prng pages, 0)

let bursty ~site ~base ~pages ~events ~run_min ~run_max ~events_per_page ~compute
    ~jitter =
  if pages <= 0 || events < 0 then invalid_arg "Pattern.bursty: bad sizes";
  if run_min <= 0 || run_max < run_min then invalid_arg "Pattern.bursty: bad runs";
  if events_per_page <= 0 then invalid_arg "Pattern.bursty: bad events_per_page";
  fun prng ->
    (* State: (start, run_len, offset_in_run, touches_on_page, emitted). *)
    let fresh_run () =
      let run = Prng.int_in prng run_min run_max in
      let start = Prng.int prng (max 1 (pages - run)) in
      (start, run)
    in
    Seq.unfold
      (fun (start, run, off, k, n) ->
        if n >= events then None
        else begin
          let acc = event prng ~site ~vpage:(base + start + off) ~compute ~jitter in
          let state =
            if k + 1 < events_per_page then (start, run, off, k + 1, n + 1)
            else if off + 1 < run then (start, run, off + 1, 0, n + 1)
            else begin
              let start', run' = fresh_run () in
              (start', run', 0, 0, n + 1)
            end
          in
          Some (acc, state)
        end)
      (let start, run = fresh_run () in
       (start, run, 0, 0, 0))

let mixed_site ~site ~hot_base ~hot_pages ~cold_base ~cold_pages ~events
    ~irregular_ratio ~compute ~jitter =
  if hot_pages <= 0 || cold_pages <= 0 || events < 0 then
    invalid_arg "Pattern.mixed_site: bad sizes";
  fun prng ->
    Seq.unfold
      (fun n ->
        if n >= events then None
        else begin
          let vpage =
            if Prng.chance prng irregular_ratio then cold_base + Prng.int prng cold_pages
            else hot_base + Prng.zipf prng ~n:hot_pages ~s:1.1
          in
          Some (event prng ~site ~vpage ~compute ~jitter, n + 1)
        end)
      0

let of_events events : t = fun _prng -> List.to_seq events

let empty : t = fun _ -> Seq.empty

let seq_list ts : t =
 fun prng ->
  let rec chain = function
    | [] -> Seq.empty
    | t :: rest -> Seq.append (t prng) (fun () -> chain rest ())
  in
  chain ts

let weighted_interleave weighted : t =
 fun prng ->
  if weighted = [] then Seq.empty
  else begin
    (* Every child is started, in list order, before the first draw. *)
    let dispensers =
      Array.of_list
        (List.map (fun (w, t) -> (max 1 w, Seq.to_dispenser (t prng))) weighted)
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

let interleave ts = weighted_interleave (List.map (fun t -> (1, t)) ts)

let repeat n t : t =
  if n < 0 then invalid_arg "Pattern.repeat: negative count";
  seq_list (List.init n (fun _ -> t))

let take n t : t =
 fun prng -> Seq.take n (t prng)

let on_thread thread t : t =
  if thread < 0 then invalid_arg "Pattern.on_thread: negative thread";
  fun prng -> Seq.map (fun (a : Access.t) -> { a with thread }) (t prng)

let parallel threads =
  interleave (List.map (fun (thread, t) -> on_thread thread t) threads)
