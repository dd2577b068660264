module Prng = Repro_util.Prng

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
    (* Int cursors per stream: the next page, the end, and the touches
       already made on the page; [alive] counts the streams with pages
       left.  Mutable, so the stream is single-consumption by contract.
       A draw that lands on an exhausted stream is redrawn. *)
    let n = List.length streams in
    let pos = Array.of_list (List.map fst streams) in
    let limit = Array.of_list (List.map (fun (base, pages) -> base + pages) streams) in
    let touches = Array.make n 0 in
    let alive = ref 0 in
    Array.iteri (fun i p -> if p < limit.(i) then incr alive) pos;
    let rec next () =
      if !alive = 0 then Seq.Nil
      else begin
        let i = Prng.int prng n in
        let p = pos.(i) in
        if p >= limit.(i) then next ()
        else begin
          let acc = event prng ~site ~vpage:p ~compute ~jitter in
          if touches.(i) + 1 >= events_per_page then begin
            touches.(i) <- 0;
            pos.(i) <- p + 1;
            if p + 1 >= limit.(i) then decr alive
          end
          else touches.(i) <- touches.(i) + 1;
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
  if weighted = [] then empty
  else fun prng ->
    (* Every child is started, in list order, before the first draw. *)
    let dispensers =
      Array.of_list (List.map (fun (_, t) -> Seq.to_dispenser (t prng)) weighted)
    in
    let weights = Array.of_list (List.map (fun (w, _) -> max 1 w) weighted) in
    let alive = Array.make (Array.length weights) true in
    (* The live children's total weight, kept as children run dry. *)
    let total = ref (Array.fold_left ( + ) 0 weights) in
    let rec next () =
      if !total = 0 then Seq.Nil
      else begin
        (* The first live child whose cumulative weight exceeds the
           draw. *)
        let target = Prng.int prng !total in
        let i = ref 0 in
        let acc = ref (if alive.(0) then weights.(0) else 0) in
        while target >= !acc do
          incr i;
          if alive.(!i) then acc := !acc + weights.(!i)
        done;
        let i = !i in
        match dispensers.(i) () with
        | Some acc -> Seq.Cons (acc, next)
        | None ->
          alive.(i) <- false;
          total := !total - weights.(i);
          next ()
      end
    in
    next

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
