module Bitset = Repro_util.Bitset

type kind = Demand | Preload_dfp | Preload_sip

type seqs = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  (* The load occupying the channel, as plain fields rather than a record
     per load: [cur_vpage] is -1 when the channel is idle, and the other
     two are then stale. *)
  mutable cur_vpage : int;
  mutable cur_kind : kind;
  mutable cur_finishes : int;
  (* The pending FIFO: a ring of [Array.length q_vpage] slots, a power of
     two, kept as three int columns (page, enqueue time, sequence
     number), so a push is three plain stores and nothing is boxed or
     promoted.  The [q_len] slots from [q_head] on (mod capacity) are
     held, front first.  [seq] makes lazy deletion sound: a removal only
     clears the per-page live sequence number, leaving the slot in place;
     a slot whose seq no longer matches [live_seq.(vpage)] is stale and is
     discarded the next time the head is inspected.  Re-queueing a removed
     page allocates a fresh seq, so the stale older slot can never shadow
     the new tail position — FIFO order is exactly the list semantics. *)
  mutable q_vpage : int array;
  mutable q_at : int array;
  mutable q_seq : int array;
  mutable q_head : int;
  mutable q_len : int;
  live_seq : seqs;
      (* per vpage: seq of its live slot, -1 if none.  Off-heap so an
         ELRANGE-sized table adds nothing to GC marking (the fused replay
         keeps one per live enclave). *)
  queued : Bitset.t; (* membership mirror of live_seq >= 0: O(1) queued_mem *)
  mutable live : int;
  mutable next_seq : int;
  mutable free_at : int;
}

let initial_ring = 8

let create ~pages =
  if pages <= 0 then invalid_arg "Load_channel.create: pages must be positive";
  let live_seq = Bigarray.Array1.create Bigarray.int Bigarray.c_layout pages in
  Bigarray.Array1.fill live_seq (-1);
  {
    cur_vpage = -1;
    cur_kind = Demand;
    cur_finishes = 0;
    q_vpage = Array.make initial_ring 0;
    q_at = Array.make initial_ring 0;
    q_seq = Array.make initial_ring 0;
    q_head = 0;
    q_len = 0;
    live_seq;
    queued = Bitset.create pages;
    live = 0;
    next_seq = 0;
    free_at = 0;
  }

let in_flight_vpage t = t.cur_vpage
let in_flight_kind t = t.cur_kind
let in_flight_finishes t = t.cur_finishes

let is_busy t ~now = t.cur_vpage >= 0 && t.cur_finishes > now

let busy_until t ~now =
  if t.cur_vpage < 0 then now else Int.max now t.cur_finishes

let free_at t = t.free_at

let begin_load t ~vpage ~kind ~now ~duration =
  if is_busy t ~now then invalid_arg "Load_channel.begin_load: channel busy";
  if t.cur_vpage >= 0 then
    invalid_arg
      (Printf.sprintf
         "Load_channel.begin_load: completed load of page %d not collected"
         t.cur_vpage);
  if vpage < 0 then invalid_arg "Load_channel.begin_load: negative page";
  t.cur_vpage <- vpage;
  t.cur_kind <- kind;
  t.cur_finishes <- now + duration;
  t.free_at <- t.cur_finishes;
  t.cur_finishes

let take_completed t ~now =
  if t.cur_vpage >= 0 && t.cur_finishes <= now then begin
    t.cur_vpage <- -1;
    true
  end
  else false

(* Crash path only: hardware cannot preempt an ELDU, but a dead enclave
   has no channel — the load that was in progress simply never lands.
   The channel frees immediately so the restarted instance can load. *)
let cancel_in_flight t ~now =
  if t.cur_vpage < 0 then t.free_at <- Int.max t.free_at now
  else begin
    t.cur_vpage <- -1;
    t.free_at <- now
  end

(* Physical index of the [i]-th held slot, front first. *)
let slot t i = (t.q_head + i) land (Array.length t.q_vpage - 1)

let is_live t s = Bigarray.Array1.get t.live_seq t.q_vpage.(s) = t.q_seq.(s)

(* Discard stale (lazily-deleted) slots at the head.  Each slot is dropped
   at most once, so the scan is O(1) amortized over the queue's life. *)
let drop_stale t =
  while t.q_len > 0 && not (is_live t t.q_head) do
    t.q_head <- slot t 1;
    t.q_len <- t.q_len - 1
  done

(* Double the ring, unrolling the held slots to the front of the new
   columns in FIFO order. *)
let grow t =
  let cap = 2 * Array.length t.q_vpage in
  let vpage = Array.make cap 0 in
  let at = Array.make cap 0 in
  let seq = Array.make cap 0 in
  for i = 0 to t.q_len - 1 do
    let s = slot t i in
    vpage.(i) <- t.q_vpage.(s);
    at.(i) <- t.q_at.(s);
    seq.(i) <- t.q_seq.(s)
  done;
  t.q_vpage <- vpage;
  t.q_at <- at;
  t.q_seq <- seq;
  t.q_head <- 0

let queued_mem t vpage =
  vpage >= 0 && vpage < Bigarray.Array1.dim t.live_seq && Bitset.mem t.queued vpage

let queue_preload t ~vpage ~at =
  if vpage < 0 || vpage >= Bigarray.Array1.dim t.live_seq then
    invalid_arg
      (Printf.sprintf "Load_channel.queue_preload: page %d out of range" vpage);
  if queued_mem t vpage then
    invalid_arg
      (Printf.sprintf "Load_channel.queue_preload: page %d already queued" vpage);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.q_len = Array.length t.q_vpage then grow t;
  let s = slot t t.q_len in
  t.q_vpage.(s) <- vpage;
  t.q_at.(s) <- at;
  t.q_seq.(s) <- seq;
  t.q_len <- t.q_len + 1;
  Bigarray.Array1.set t.live_seq vpage seq;
  Bitset.set t.queued vpage;
  t.live <- t.live + 1

(* Allocation-free head peeks for the background-event scheduler, which
   probes the FIFO on every pump step.  An empty queue reads as page -1
   at time 0. *)
let next_queued_vpage t =
  drop_stale t;
  if t.q_len = 0 then -1 else t.q_vpage.(t.q_head)

let next_queued_at t =
  drop_stale t;
  if t.q_len = 0 then 0 else t.q_at.(t.q_head)

let physical_length t = t.q_len

(* Lazy deletion leaves the removed slot in the ring until it reaches
   the head; a run with heavy aborts and no re-queues (so [drop_stale]
   never fires) would grow the ring without bound.  Compact once the
   stale slots exceed both a floor (small queues are not worth
   compacting) and the live count (amortizes the O(n) pass against the
   removals that created the garbage).  The pass runs in place: live
   slots slide towards the head, keeping their relative order, so FIFO
   order is preserved. *)
let compaction_floor = 64

let maybe_compact t =
  let stale = t.q_len - t.live in
  if stale > compaction_floor && stale > t.live then begin
    let kept = ref 0 in
    for i = 0 to t.q_len - 1 do
      let src = slot t i in
      if is_live t src then begin
        let dst = slot t !kept in
        t.q_vpage.(dst) <- t.q_vpage.(src);
        t.q_at.(dst) <- t.q_at.(src);
        t.q_seq.(dst) <- t.q_seq.(src);
        incr kept
      end
    done;
    t.q_len <- !kept
  end

let unlink t vpage =
  Bigarray.Array1.set t.live_seq vpage (-1);
  Bitset.clear t.queued vpage;
  t.live <- t.live - 1

let pop_queued t =
  drop_stale t;
  if t.q_len = 0 then -1
  else begin
    let vpage = t.q_vpage.(t.q_head) in
    t.q_head <- slot t 1;
    t.q_len <- t.q_len - 1;
    unlink t vpage;
    vpage
  end

let queued t =
  let acc = ref [] in
  for i = t.q_len - 1 downto 0 do
    let s = slot t i in
    if is_live t s then acc := t.q_vpage.(s) :: !acc
  done;
  !acc

let queue_length t = t.live

let abort_queued t =
  let n = t.live in
  for i = 0 to t.q_len - 1 do
    let s = slot t i in
    if is_live t s then unlink t t.q_vpage.(s)
  done;
  t.q_head <- 0;
  t.q_len <- 0;
  n

let remove_queued t vpage =
  if queued_mem t vpage then begin
    (* Lazy deletion: the slot stays in the ring and is skipped once it
       reaches the head (or the next compaction, whichever comes first). *)
    unlink t vpage;
    maybe_compact t;
    true
  end
  else false

let abort_queued_pages t pages n =
  let dropped = ref 0 in
  for i = 0 to n - 1 do
    if remove_queued t pages.(i) then incr dropped
  done;
  !dropped

(* ------------------------------------------------------------------ *)
(* Fleet arbiter: contention across co-tenant channels                  *)
(* ------------------------------------------------------------------ *)

module Arbiter = struct
  type policy = Fifo | Fair_share | Priority

  let policy_name = function
    | Fifo -> "fifo"
    | Fair_share -> "fair-share"
    | Priority -> "priority"

  let policy_of_string = function
    | "fifo" -> Some Fifo
    | "fair-share" | "fair" -> Some Fair_share
    | "priority" -> Some Priority
    | _ -> None

  let policies = [ Fifo; Fair_share; Priority ]

  type t = {
    policy : policy;
    priorities : int array;
    busy : int array;
    waits : int array;
    mutable free_at : int;
    mutable contentions : int;
  }

  let create ?priorities ~policy n =
    if n <= 0 then invalid_arg "Load_channel.Arbiter.create: no tenants";
    let priorities =
      match priorities with
      | None -> Array.make n 0
      | Some p ->
        if Array.length p <> n then
          invalid_arg "Load_channel.Arbiter.create: priorities length mismatch";
        Array.iter
          (fun x ->
            if x < 0 then
              invalid_arg "Load_channel.Arbiter.create: negative priority")
          p;
        Array.copy p
    in
    {
      policy;
      priorities;
      busy = Array.make n 0;
      waits = Array.make n 0;
      free_at = 0;
      contentions = 0;
    }

  let tenants t = Array.length t.busy

  (* One load of clean duration [d] requested by [owner] at [at]: the
     returned duration (>= d) folds in the wait for the shared physical
     channel.  All arithmetic is integer and state-deterministic, so a
     fleet replay is reproducible at any worker count.

     The base wait is FIFO (the channel frees at [free_at]); the other
     policies scale the *contended* portion only, so an uncontended
     channel behaves identically under every policy — which is also what
     makes a fleet of one collapse to the solo runner byte-for-byte:
     a single tenant's own exclusive channel already serializes its
     loads, so [at >= free_at] always and the wait is zero.

     Fair-share penalizes a tenant in proportion to how far its
     cumulative channel occupancy exceeds the fleet average; Priority
     multiplies the contended wait by the tenant's priority level
     (0 = highest, plain FIFO). *)
  let request t ~owner ~at d =
    if d < 0 then invalid_arg "Load_channel.Arbiter.request: negative duration";
    if owner < 0 || owner >= Array.length t.busy then
      invalid_arg "Load_channel.Arbiter.request: owner out of range";
    let wait0 = Int.max 0 (t.free_at - at) in
    let extra =
      if wait0 = 0 then 0
      else
        match t.policy with
        | Fifo -> 0
        | Priority -> t.priorities.(owner) * wait0
        | Fair_share ->
          let total = Array.fold_left ( + ) 0 t.busy in
          if total = 0 then 0
          else
            let n = Array.length t.busy in
            Int.max 0 ((t.busy.(owner) * n) - total) * wait0 / total
    in
    let wait = wait0 + extra in
    if wait > 0 then t.contentions <- t.contentions + 1;
    t.waits.(owner) <- t.waits.(owner) + wait;
    t.busy.(owner) <- t.busy.(owner) + d;
    (* The physical channel is occupied by this load alone, so it frees
       [d] after the FIFO backlog drains.  [extra] delays only the
       requester — it models being overtaken, and the overtakers' own
       service occupies the channel during that window.  Folding [extra]
       into [free_at] would double-charge the channel and compound
       penalized waits geometrically (each inflated [free_at] raising
       the next tenant's [wait0], which gets penalized again). *)
    t.free_at <- at + wait0 + d;
    wait + d

  let wait_of t owner = t.waits.(owner)
  let contentions t = t.contentions
end
