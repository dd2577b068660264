type verdict = Extend | Restart_within | New_stream
type stream = { stpn : int; dir : int; pending : int list }

(* The stream list is a fixed-capacity MRU order kept flat: MRU position
   [k] owns the [width] ints of [state] from [k * width], holding its
   tail, direction, pending bounds and the slot of its pending row.
   [on_fault] runs on every simulated page fault, and promoting a stream
   to the head shifts those ints — plain stores into an int array, where
   moving pointers in a major-heap array would take a write barrier
   each.  Order semantics are those of a linked LRU list: position 0 is
   the MRU head, and an insert into a full list replaces the entry at
   the last position.  The pending pages of slot [s] are the row
   [pend.(s * row_cap) ..], its count in [npend.(s)]: rows never move
   between slots, and all of them grow together, by doubling [row_cap],
   when one outgrows it — rarely, and never once the deepest window a
   run reaches fits. *)
let width = 5
let f_tail = 0
let f_dir = 1
let f_lo = 2 (* least pending page; [max_int] when none *)
let f_hi = 3 (* greatest pending page; [min_int] when none *)
let f_slot = 4

type t = {
  state : int array; (* positions [0, count), MRU first *)
  mutable pend : int array; (* [list_length] rows of [row_cap] pages *)
  mutable row_cap : int;
  npend : int array; (* pending count by slot *)
  mutable dropped : int array; (* [row_cap] pages: one row fits *)
  mutable ndropped : int;
  mutable count : int;
  load_length : int;
  list_length : int;
  no_backward : int;
      (* 0 when descending streams are detected, -1 otherwise: or-ed
         into the descending test, it makes that test fail. *)
}

let create ?(detect_backward = true) ~stream_list_length ~load_length () =
  if stream_list_length <= 0 then
    invalid_arg "Stream_predictor.create: stream_list_length must be positive";
  if load_length <= 0 then
    invalid_arg "Stream_predictor.create: load_length must be positive";
  let row_cap = 2 * load_length in
  {
    state = Array.make (stream_list_length * width) 0;
    pend = Array.make (stream_list_length * row_cap) 0;
    row_cap;
    npend = Array.make stream_list_length 0;
    dropped = Array.make row_cap 0;
    ndropped = 0;
    count = 0;
    load_length;
    list_length = stream_list_length;
    no_backward = (if detect_backward then 0 else -1);
  }

let load_length t = t.load_length
let stream_list_length t = t.list_length

(* Is [npn] one of the pending pages of [slot]?  The caller has checked
   the bounds, which rule most streams out with two compares. *)
let row_mem t slot npn =
  let base = slot * t.row_cap in
  let stop = base + t.npend.(slot) in
  let i = ref base in
  while !i < stop && t.pend.(!i) <> npn do
    incr i
  done;
  !i < stop

(* Move the entry at MRU position [k] to the head. *)
let promote t k =
  if k > 0 then begin
    let st = t.state in
    let b = k * width in
    let tail = st.(b + f_tail) in
    let dir = st.(b + f_dir) in
    let lo = st.(b + f_lo) in
    let hi = st.(b + f_hi) in
    let slot = st.(b + f_slot) in
    for i = b - 1 downto 0 do
      st.(i + width) <- st.(i)
    done;
    st.(f_tail) <- tail;
    st.(f_dir) <- dir;
    st.(f_lo) <- lo;
    st.(f_hi) <- hi;
    st.(f_slot) <- slot
  end

(* Move [slot]'s pending pages to the dropped buffer, emptying the row.
   The buffer is one row long, so they always fit. *)
let drop_row t slot =
  let n = t.npend.(slot) in
  let base = slot * t.row_cap in
  for i = 0 to n - 1 do
    t.dropped.(i) <- t.pend.(base + i)
  done;
  t.ndropped <- n;
  t.npend.(slot) <- 0

(* Double every row, and the dropped buffer with them, keeping their
   contents. *)
let grow_rows t =
  let cap = 2 * t.row_cap in
  let pend = Array.make (t.list_length * cap) 0 in
  for slot = 0 to t.list_length - 1 do
    Array.blit t.pend (slot * t.row_cap) pend (slot * cap) t.npend.(slot)
  done;
  let dropped = Array.make cap 0 in
  Array.blit t.dropped 0 dropped 0 t.ndropped;
  t.pend <- pend;
  t.dropped <- dropped;
  t.row_cap <- cap

(* Start the stream at position [k] afresh at [npn]: no direction, no
   pending pages.  The caller has emptied or dropped its row. *)
let restart t k npn =
  let b = k * width in
  let st = t.state in
  st.(b + f_tail) <- npn;
  st.(b + f_dir) <- 0;
  st.(b + f_lo) <- max_int;
  st.(b + f_hi) <- min_int

let on_fault t npn =
  (* One MRU-order pass.  The pending check has absolute priority over
     the sequential check — a pending match anywhere in the list beats a
     sequential match anywhere — so the pass can stop at the first
     pending match but must remember only the {e first} sequential match
     in case no pending match exists.  This reproduces exactly the
     two-traversal (pending find, then sequential find) semantics.

     Both tests are sign tests on or-ed differences: [a lor b >= 0]
     holds exactly when [a >= 0] and [b >= 0].  The sequential test
     folds the stream's direction in the same way — ascending needs
     [dir >= 0], descending [dir <= 0] — instead of branching on it,
     which mispredicts as streams of every kind interleave.  In steady
     state the sequential match is the stream the last faults came from
     and MRU-first order finds it early; the pending test still has to
     visit every position. *)
  let st = t.state in
  let window = t.load_length + 1 in
  let no_backward = t.no_backward in
  let stop = t.count * width in
  let pending_b = ref (-1) in
  let seq_b = ref (-1) in
  let seq_dir = ref 0 in
  let b = ref 0 in
  while !pending_b < 0 && !b < stop do
    let base = !b in
    if
      (npn - st.(base + f_lo)) lor (st.(base + f_hi) - npn) >= 0
      && row_mem t st.(base + f_slot) npn
    then pending_b := base
    else if !seq_b < 0 then begin
      let delta = npn - st.(base + f_tail) in
      let dir = st.(base + f_dir) in
      if (delta - 1) lor (window - delta) lor dir >= 0 then begin
        seq_b := base;
        seq_dir := 1
      end
      else if
        (-delta - 1) lor (window + delta) lor -dir lor no_backward >= 0
      then begin
        seq_b := base;
        seq_dir := -1
      end
    end;
    b := base + width
  done;
  if !pending_b >= 0 then begin
    (* The fault landed on a page whose preload is still queued: the
       application skipped ahead of the loader. *)
    let k = !pending_b / width in
    drop_row t st.(!pending_b + f_slot);
    restart t k npn;
    promote t k;
    Restart_within
  end
  else if !seq_b >= 0 then begin
    st.(!seq_b + f_dir) <- !seq_dir;
    st.(!seq_b + f_tail) <- npn;
    t.ndropped <- 0;
    promote t (!seq_b / width);
    Extend
  end
  else begin
    let k =
      if t.count < t.list_length then begin
        (* A free entry: it takes the next unused row. *)
        let k = t.count in
        t.count <- k + 1;
        st.((k * width) + f_slot) <- k;
        t.npend.(k) <- 0;
        t.ndropped <- 0;
        k
      end
      else begin
        (* Full: the LRU entry's row is reused for the new stream. *)
        let k = t.list_length - 1 in
        drop_row t st.((k * width) + f_slot);
        k
      end
    in
    restart t k npn;
    promote t k;
    New_stream
  end

let head_slot t =
  if t.count = 0 then invalid_arg "Stream_predictor: empty stream list";
  t.state.(f_slot)

let head_tail t =
  ignore (head_slot t);
  t.state.(f_tail)

let head_dir t =
  ignore (head_slot t);
  t.state.(f_dir)

let head_pending_count t = t.npend.(head_slot t)

let check_index t slot i =
  if i < 0 || i >= t.npend.(slot) then
    invalid_arg "Stream_predictor: pending index out of range"

let head_pending t i =
  let slot = head_slot t in
  check_index t slot i;
  t.pend.((slot * t.row_cap) + i)

(* Bounds may only widen here: a loose bound costs a row walk, never a
   wrong answer, and [truncate_head_pending] tightens them again. *)
let widen t page =
  let st = t.state in
  if page < st.(f_lo) then st.(f_lo) <- page;
  if page > st.(f_hi) then st.(f_hi) <- page

let set_head_pending t i page =
  let slot = head_slot t in
  check_index t slot i;
  t.pend.((slot * t.row_cap) + i) <- page;
  widen t page

let truncate_head_pending t n =
  let slot = head_slot t in
  if n < 0 || n > t.npend.(slot) then
    invalid_arg "Stream_predictor.truncate_head_pending: bad length";
  t.npend.(slot) <- n;
  let st = t.state in
  st.(f_lo) <- max_int;
  st.(f_hi) <- min_int;
  let base = slot * t.row_cap in
  for i = 0 to n - 1 do
    widen t t.pend.(base + i)
  done

let push_head_pending t page =
  let slot = head_slot t in
  let n = t.npend.(slot) in
  if n = t.row_cap then grow_rows t;
  t.pend.((slot * t.row_cap) + n) <- page;
  t.npend.(slot) <- n + 1;
  widen t page

let dropped_count t = t.ndropped
let dropped t = t.dropped

(* Existence needs no MRU order, and unlike [on_fault] the §4.4 test
   ignores [detect_backward]: an undetermined stream covers both
   sides. *)
let covers t page =
  let st = t.state in
  let window = t.load_length in
  let stop = t.count * width in
  let b = ref 0 in
  let found = ref false in
  while (not !found) && !b < stop do
    let delta = page - st.(!b + f_tail) in
    let dir = st.(!b + f_dir) in
    if
      (delta - 1) lor (window - delta) lor dir >= 0
      || (-delta - 1) lor (window + delta) lor -dir >= 0
    then found := true;
    b := !b + width
  done;
  !found

let streams t =
  List.init t.count (fun k ->
      let b = k * width in
      let slot = t.state.(b + f_slot) in
      {
        stpn = t.state.(b + f_tail);
        dir = t.state.(b + f_dir);
        pending =
          Array.to_list (Array.sub t.pend (slot * t.row_cap) t.npend.(slot));
      })

let reset t =
  t.count <- 0;
  t.ndropped <- 0
