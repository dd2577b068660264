type stream = {
  mutable stpn : int;
  mutable dir : int;
  mutable pending : int list;
  mutable pending_lo : int;
  mutable pending_hi : int;
}

type reaction =
  | Extend of { stream : stream; predict : int list }
  | Restart_within of { stream : stream; abort : int list }
  | New_stream of { stream : stream; replaced : stream option }

(* The stream list is a fixed-capacity MRU order over stream records that
   never move: [on_fault] runs on every simulated page fault, and
   promoting a stream to the head only shifts the ints of [order] — a
   plain store per position, where moving pointers in a major-heap array
   would take a write barrier each.  Order semantics are those of a
   linked LRU list: position 0 is the MRU head, and an insert into a full
   list replaces the record at the last position. *)
type t = {
  pool : stream array; (* records by slot; slots [0, count) are live *)
  order : int array; (* [0, count): pool slots, MRU first *)
  dummy : stream; (* shared filler for dead slots; never mutated *)
  mutable count : int;
  load_length : int;
  list_length : int;
  detect_backward : bool;
}

let fresh_stream stpn =
  { stpn; dir = 0; pending = []; pending_lo = max_int; pending_hi = min_int }

let create ?(detect_backward = true) ~stream_list_length ~load_length () =
  if stream_list_length <= 0 then
    invalid_arg "Stream_predictor.create: stream_list_length must be positive";
  if load_length <= 0 then
    invalid_arg "Stream_predictor.create: load_length must be positive";
  let dummy = fresh_stream min_int in
  {
    pool = Array.make stream_list_length dummy;
    order = Array.make stream_list_length 0;
    dummy;
    count = 0;
    load_length;
    list_length = stream_list_length;
    detect_backward;
  }

let load_length t = t.load_length
let stream_list_length t = t.list_length

let rec widen_bounds s = function
  | [] -> ()
  | p :: rest ->
    if p < s.pending_lo then s.pending_lo <- p;
    if p > s.pending_hi then s.pending_hi <- p;
    widen_bounds s rest

let set_pending s pages =
  s.pending <- pages;
  s.pending_lo <- max_int;
  s.pending_hi <- min_int;
  widen_bounds s pages

(* Could [npn] be one of [s]'s pending pages?  The bounds rule most
   streams out with two compares, so the list walk runs only for a
   stream whose window spans the fault. *)
let pending_mem s npn =
  s.pending_lo <= npn && npn <= s.pending_hi
  (* [memq], not [mem]: page numbers are immediate ints, so physical
     equality is exact and skips the polymorphic-compare call. *)
  && List.memq npn s.pending

let fits s npn ~dir ~window =
  let delta = (npn - s.stpn) * dir in
  delta >= 1 && delta <= window

(* Is [npn] a continuation of [s]?  In steady state the pages
   [stpn+1 .. stpn+LOADLENGTH] are preloaded and never fault, so the next
   fault of a live stream lands at [stpn + LOADLENGTH + 1]: anything in
   that window continues the stream.  (A fault {e inside} a window whose
   preloads are still pending is a skip, handled separately — the paper's
   page(5)-while-loading-page(3) abort example.)  Returns the direction
   that makes [npn] a continuation, 0 if none. *)
let sequential_dir t s npn =
  let window = t.load_length + 1 in
  if s.dir <> 0 then if fits s npn ~dir:s.dir ~window then s.dir else 0
  else if fits s npn ~dir:1 ~window then 1
  else if t.detect_backward && fits s npn ~dir:(-1) ~window then -1
  else 0

(* Move the stream at MRU position [k] to the head. *)
let promote t k =
  let slot = t.order.(k) in
  for j = k downto 1 do
    t.order.(j) <- t.order.(j - 1)
  done;
  t.order.(0) <- slot

(* [npn + dir * 1 .. npn + dir * n] in order, dropping negative pages:
   built back to front with one cons per kept page. *)
let rec predictions ~npn ~dir i acc =
  if i = 0 then acc
  else
    let p = npn + (dir * i) in
    predictions ~npn ~dir (i - 1) (if p >= 0 then p :: acc else acc)

let on_fault t npn =
  (* One MRU-order pass.  The pending check has absolute priority over
     the sequential check — a pending match anywhere in the list beats a
     sequential match anywhere — so the pass can stop at the first
     pending match but must remember only the {e first} sequential match
     in case no pending match exists.  This reproduces exactly the
     two-traversal (pending find, then sequential find) semantics. *)
  let pending_k = ref (-1) in
  let seq_k = ref (-1) in
  let seq_dir = ref 0 in
  let k = ref 0 in
  while !pending_k < 0 && !k < t.count do
    let s = t.pool.(t.order.(!k)) in
    if pending_mem s npn then pending_k := !k
    else if !seq_k < 0 then begin
      let dir = sequential_dir t s npn in
      if dir <> 0 then begin
        seq_k := !k;
        seq_dir := dir
      end
    end;
    incr k
  done;
  if !pending_k >= 0 then begin
    (* The fault landed on a page whose preload is still queued: the
       application skipped ahead of the loader. *)
    let s = t.pool.(t.order.(!pending_k)) in
    let abort = s.pending in
    set_pending s [];
    s.stpn <- npn;
    s.dir <- 0;
    promote t !pending_k;
    Restart_within { stream = s; abort }
  end
  else if !seq_k >= 0 then begin
    let s = t.pool.(t.order.(!seq_k)) in
    let dir = !seq_dir in
    s.dir <- dir;
    s.stpn <- npn;
    promote t !seq_k;
    Extend { stream = s; predict = predictions ~npn ~dir t.load_length [] }
  end
  else begin
    let fresh = fresh_stream npn in
    if t.count < t.list_length then begin
      (* A free slot: the new record takes it, at the head. *)
      let slot = t.count in
      t.pool.(slot) <- fresh;
      t.order.(slot) <- slot;
      t.count <- t.count + 1;
      promote t slot;
      New_stream { stream = fresh; replaced = None }
    end
    else begin
      (* Full: the LRU record's slot is reused for the new one. *)
      let last = t.list_length - 1 in
      let slot = t.order.(last) in
      let dropped = t.pool.(slot) in
      t.pool.(slot) <- fresh;
      promote t last;
      New_stream { stream = fresh; replaced = Some dropped }
    end
  end

(* Existence needs no MRU order: the live records are pool slots
   [0, count). *)
let rec covers_from t page k =
  k < t.count
  && (let s = t.pool.(k) in
      let window = t.load_length in
      (if s.dir <> 0 then fits s page ~dir:s.dir ~window
       else fits s page ~dir:1 ~window || fits s page ~dir:(-1) ~window)
      || covers_from t page (k + 1))

let covers t page = covers_from t page 0

let streams t = List.init t.count (fun k -> t.pool.(t.order.(k)))

let reset t =
  t.count <- 0;
  Array.fill t.pool 0 t.list_length t.dummy
