module Prng = Repro_util.Prng

type slot = {
  mutable site : int;
  mutable vpage : int;
  mutable compute : int;
  mutable thread : int;
}

type cursor = unit -> bool

(* A blueprint: its exact event count, and how to start it.  Starting
   makes the draws the pattern makes before its first event (none for
   most leaves) and returns a cursor over mutable int state that writes
   each event into the slot it was started with.  Combinators start
   their children on their own slot and call the children's cursors
   directly, so one event costs a chain of direct calls and no
   allocation. *)
type t = { length : int; start : Prng.t -> slot -> cursor }

let length t = t.length
let slot () = { site = 0; vpage = 0; compute = 0; thread = 0 }
let cursor t prng slot = t.start prng slot

let exhausted : cursor = fun () -> false

let run t prng =
  let s = slot () in
  let next = t.start prng s in
  let rec view () =
    if next () then
      Seq.Cons
        ( { Access.site = s.site; vpage = s.vpage; compute = s.compute; thread = s.thread },
          view )
    else Seq.Nil
  in
  view

(* ------------------------------------------------------------------ *)
(* Leaves                                                              *)
(* ------------------------------------------------------------------ *)

(* A leaf's compute jitter: the half-width of the uniform band around
   [compute], 0 for a constant compute.  Fixed by the parameters, so
   computed once per leaf. *)
let spread ~compute ~jitter =
  if jitter <= 0.0 || compute = 0 then 0
  else int_of_float (float_of_int compute *. jitter)

let[@inline] draw_compute prng ~compute ~spread =
  if spread = 0 then compute
  else Int.max 0 (Prng.int_in prng (compute - spread) (compute + spread))

(* One leaf event, with [Access.make]'s checks and messages.  The caller
   draws [compute] before the checks run: draw order is part of the
   stream. *)
let[@inline] emit slot ~site ~vpage ~compute =
  if vpage < 0 then invalid_arg "Access.make: negative page";
  if compute < 0 then invalid_arg "Access.make: negative compute";
  slot.site <- site;
  slot.vpage <- vpage;
  slot.compute <- compute;
  slot.thread <- 0

(* Pages [first], [first + step], ... for [pages] pages, each touched
   [events_per_page] times before the next. *)
let sweep ~site ~first ~step ~pages ~events_per_page ~compute ~jitter =
  let spread = spread ~compute ~jitter in
  let start prng slot =
    let p = ref 0 and k = ref 0 in
    fun () ->
      !p < pages
      && begin
           emit slot ~site ~vpage:(first + (step * !p))
             ~compute:(draw_compute prng ~compute ~spread);
           if !k + 1 >= events_per_page then begin
             incr p;
             k := 0
           end
           else incr k;
           true
         end
  in
  { length = pages * events_per_page; start }

let sequential ~site ~base ~pages ~events_per_page ~compute ~jitter =
  if pages < 0 || events_per_page <= 0 then
    invalid_arg "Pattern.sequential: bad sizes";
  sweep ~site ~first:base ~step:1 ~pages ~events_per_page ~compute ~jitter

let sequential_desc ~site ~base ~pages ~events_per_page ~compute ~jitter =
  if pages < 0 || events_per_page <= 0 then
    invalid_arg "Pattern.sequential_desc: bad sizes";
  sweep ~site ~first:(base + pages - 1) ~step:(-1) ~pages ~events_per_page ~compute
    ~jitter

let strided ~site ~base ~pages ~stride ~events_per_page ~compute ~jitter =
  if pages < 0 || stride <= 0 || events_per_page <= 0 then
    invalid_arg "Pattern.strided: bad sizes";
  let spread = spread ~compute ~jitter in
  let start prng slot =
    (* Visit base+start, base+start+stride, ... for start = 0..stride-1:
       every page exactly once, consecutive accesses [stride] apart.
       [settle] skips the sub-sweeps that start past the end, the first
       one included, so an empty range emits nothing. *)
    let first = ref 0 and p = ref 0 and k = ref 0 in
    let settle () =
      while !first < stride && !p >= pages do
        incr first;
        p := !first
      done
    in
    settle ();
    fun () ->
      !first < stride
      && begin
           emit slot ~site ~vpage:(base + !p)
             ~compute:(draw_compute prng ~compute ~spread);
           if !k + 1 < events_per_page then incr k
           else begin
             k := 0;
             if !p + stride < pages then p := !p + stride
             else begin
               incr first;
               p := !first
             end;
             settle ()
           end;
           true
         end
  in
  { length = pages * events_per_page; start }

let multi_stream ~site ~streams ~events_per_page ~compute ~jitter =
  if streams = [] then invalid_arg "Pattern.multi_stream: no streams";
  if events_per_page <= 0 then invalid_arg "Pattern.multi_stream: bad events_per_page";
  let spread = spread ~compute ~jitter in
  let n = List.length streams in
  let bases = Array.of_list (List.map fst streams) in
  let limits = Array.of_list (List.map (fun (base, pages) -> base + pages) streams) in
  let length =
    List.fold_left (fun acc (_, pages) -> acc + (Int.max 0 pages * events_per_page)) 0 streams
  in
  let start prng slot =
    (* Per stream: the next page and the touches already made on it;
       [alive] counts the streams with pages left.  A draw that lands on
       an exhausted stream is redrawn. *)
    let pos = Array.copy bases in
    let touches = Array.make n 0 in
    let alive = ref 0 in
    Array.iteri (fun i p -> if p < limits.(i) then incr alive) pos;
    fun () ->
      !alive > 0
      && begin
           let i = ref (Prng.int prng n) in
           while pos.(!i) >= limits.(!i) do
             i := Prng.int prng n
           done;
           let i = !i in
           let p = pos.(i) in
           emit slot ~site ~vpage:p ~compute:(draw_compute prng ~compute ~spread);
           if touches.(i) + 1 >= events_per_page then begin
             touches.(i) <- 0;
             pos.(i) <- p + 1;
             if p + 1 >= limits.(i) then decr alive
           end
           else touches.(i) <- touches.(i) + 1;
           true
         end
  in
  { length; start }

(* A leaf of [events] events, each page drawn before the event's
   compute.  [source prng] starts the page source: it makes the draws
   the leaf makes before its first event and returns the per-event page
   draw. *)
let drawn_pages ~site ~events ~compute ~jitter source =
  let spread = spread ~compute ~jitter in
  let start prng slot =
    let page = source prng in
    let emitted = ref 0 in
    fun () ->
      !emitted < events
      && begin
           let vpage = page prng in
           emit slot ~site ~vpage ~compute:(draw_compute prng ~compute ~spread);
           incr emitted;
           true
         end
  in
  { length = events; start }

let uniform_random ~site ~base ~pages ~events ~compute ~jitter =
  if pages <= 0 || events < 0 then invalid_arg "Pattern.uniform_random: bad sizes";
  let page prng = base + Prng.int prng pages in
  drawn_pages ~site ~events ~compute ~jitter (fun _ -> page)

let zipf ~site ~base ~pages ~events ~s ~compute ~jitter =
  if pages <= 0 || events < 0 then invalid_arg "Pattern.zipf: bad sizes";
  let z = Prng.zipf_sampler ~n:pages ~s in
  let page prng = base + Prng.zipf_draw prng z in
  drawn_pages ~site ~events ~compute ~jitter (fun _ -> page)

let mixed_site ~site ~hot_base ~hot_pages ~cold_base ~cold_pages ~events
    ~irregular_ratio ~compute ~jitter =
  if hot_pages <= 0 || cold_pages <= 0 || events < 0 then
    invalid_arg "Pattern.mixed_site: bad sizes";
  let hot = Prng.zipf_sampler ~n:hot_pages ~s:1.1 in
  let page prng =
    if Prng.chance prng irregular_ratio then cold_base + Prng.int prng cold_pages
    else hot_base + Prng.zipf_draw prng hot
  in
  drawn_pages ~site ~events ~compute ~jitter (fun _ -> page)

let pointer_chase ~site ~base ~pages ~events ~locality ~compute ~jitter =
  if pages <= 0 || events < 0 then invalid_arg "Pattern.pointer_chase: bad sizes";
  drawn_pages ~site ~events ~compute ~jitter (fun prng ->
      let current = ref (Prng.int prng pages) in
      fun prng ->
        (if Prng.chance prng locality then begin
           let p = !current + Prng.int_in prng (-2) 2 in
           current := if p < 0 then 0 else if p >= pages then pages - 1 else p
         end
         else current := Prng.int prng pages);
        base + !current)

let bursty ~site ~base ~pages ~events ~run_min ~run_max ~events_per_page ~compute
    ~jitter =
  if pages <= 0 || events < 0 then invalid_arg "Pattern.bursty: bad sizes";
  if run_min <= 0 || run_max < run_min || run_max > pages then
    invalid_arg "Pattern.bursty: bad runs";
  if events_per_page <= 0 then invalid_arg "Pattern.bursty: bad events_per_page";
  let spread = spread ~compute ~jitter in
  let start prng slot =
    (* The current run's first page and length, the offset into it, the
       touches made on the current page, the events emitted.  A run is
       drawn at the start and as soon as the one before it ends. *)
    let first = ref 0 and run = ref 0 in
    let fresh_run () =
      run := Prng.int_in prng run_min run_max;
      first := Prng.int prng (Int.max 1 (pages - !run))
    in
    fresh_run ();
    let off = ref 0 and k = ref 0 and emitted = ref 0 in
    fun () ->
      !emitted < events
      && begin
           emit slot ~site ~vpage:(base + !first + !off)
             ~compute:(draw_compute prng ~compute ~spread);
           if !k + 1 < events_per_page then incr k
           else begin
             k := 0;
             if !off + 1 < !run then incr off
             else begin
               off := 0;
               fresh_run ()
             end
           end;
           incr emitted;
           true
         end
  in
  { length = events; start }

let of_events events =
  let start _prng slot =
    let rest = ref events in
    fun () ->
      match !rest with
      | [] -> false
      | (a : Access.t) :: tl ->
        slot.site <- a.site;
        slot.vpage <- a.vpage;
        slot.compute <- a.compute;
        slot.thread <- a.thread;
        rest := tl;
        true
  in
  { length = List.length events; start }

let empty = { length = 0; start = (fun _ _ -> exhausted) }

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)
(* ------------------------------------------------------------------ *)

let total_length ts = List.fold_left (fun acc t -> acc + t.length) 0 ts

let seq_list ts =
  let children = Array.of_list ts in
  let n = Array.length children in
  let start prng slot =
    if n = 0 then exhausted
    else begin
      (* The first child starts with the list, each later one when the
         child before it runs dry. *)
      let i = ref 0 in
      let current = ref (children.(0).start prng slot) in
      let rec next () =
        !current ()
        || (!i + 1 < n
           && begin
                incr i;
                current := children.(!i).start prng slot;
                next ()
              end)
      in
      next
    end
  in
  { length = total_length ts; start }

(* The pick is the first live child whose cumulative weight exceeds a
   uniform draw below the live total.  A Fenwick tree over the weights
   (a child's weight drops to 0 once it runs dry) finds it in
   O(log children): the largest prefix whose sum is at most the draw
   ends just before it. *)
let weighted_interleave weighted =
  if weighted = [] then empty
  else begin
    let children = Array.of_list (List.map snd weighted) in
    let weights = Array.of_list (List.map (fun (w, _) -> Int.max 1 w) weighted) in
    let n = Array.length children in
    let top = ref 1 in
    while 2 * !top <= n do
      top := 2 * !top
    done;
    let top = !top in
    let start prng slot =
      (* Every child is started, in list order, before the first draw. *)
      let cursors = Array.map (fun c -> c.start prng slot) children in
      let tree = Array.make (n + 1) 0 in
      for i = 1 to n do
        tree.(i) <- tree.(i) + weights.(i - 1);
        let j = i + (i land -i) in
        if j <= n then tree.(j) <- tree.(j) + tree.(i)
      done;
      let total = ref (Array.fold_left ( + ) 0 weights) in
      let pick target =
        let pos = ref 0 and rest = ref target and step = ref top in
        while !step > 0 do
          let j = !pos + !step in
          if j <= n && tree.(j) <= !rest then begin
            pos := j;
            rest := !rest - tree.(j)
          end;
          step := !step lsr 1
        done;
        !pos
      in
      let rec next () =
        if !total = 0 then false
        else begin
          let i = pick (Prng.int prng !total) in
          cursors.(i) ()
          || begin
               (* Dry: drop its weight from the tree and draw again. *)
               let w = weights.(i) in
               total := !total - w;
               let j = ref (i + 1) in
               while !j <= n do
                 tree.(!j) <- tree.(!j) - w;
                 j := !j + (!j land - !j)
               done;
               next ()
             end
        end
      in
      next
    in
    { length = total_length (List.map snd weighted); start }
  end

let interleave ts = weighted_interleave (List.map (fun t -> (1, t)) ts)

let repeat n t =
  if n < 0 then invalid_arg "Pattern.repeat: negative count";
  seq_list (List.init n (fun _ -> t))

let take n t =
  if n < 0 then invalid_arg "Pattern.take: negative count";
  let start prng slot =
    let next = t.start prng slot in
    let left = ref n in
    fun () ->
      !left > 0
      && begin
           decr left;
           next () || begin
             left := 0;
             false
           end
         end
  in
  { length = Int.min n t.length; start }

let on_thread thread t =
  if thread < 0 then invalid_arg "Pattern.on_thread: negative thread";
  let start prng slot =
    let next = t.start prng slot in
    fun () ->
      next ()
      && begin
           slot.thread <- thread;
           true
         end
  in
  { t with start }

let parallel threads =
  interleave (List.map (fun (thread, t) -> on_thread thread t) threads)
