module Bitset = Repro_util.Bitset

type fault_resolution = Already_present | Waited_in_flight | Demand_load

type fault_ctx = {
  mutable fault_vpage : int;
  mutable fault_thread : int;
  mutable raised_at : int;
  mutable handled_at : int;
  mutable resolution : fault_resolution;
}

type t = {
  costs : Cost_model.t;
  pt : Page_table.t;
  epc : Clock_evictor.t;
  owner : int;
      (* This enclave's frame tag in [epc].  0 unless a fleet assigned
         one; meaningful only when the evictor is shared. *)
  channel : Load_channel.t;
  metrics : Metrics.t;
  bitmap : Bitset.t;
  log : Event.log;
  mutable next_scan : int;
  mutable peers : t array option;
      (* Co-tenants sharing [epc], indexed by owner tag; [None] outside a
         fleet.  Set once by {!link_fleet}; lets the CLOCK sweep consult
         the right page table for each frame it passes. *)
  mutable protected_vpage : int;
      (* Page being returned to the faulting thread: the handler pins it
         (mirrored in the page-table pinned bit) so an eviction sweep —
         this enclave's or a co-tenant's — cannot snatch it back before
         the application's access completes.  -1 when no fault is in
         progress. *)
  mutable on_evict : aggressor:int -> victim:int -> vpage:int -> unit;
      (* Observation hook for every eviction this enclave's sweeps
         perform, with the owner tags of both sides — the fleet's
         interference table.  No-op by default. *)
  mutable on_fault : t -> fault_ctx -> unit;
  mutable on_preload_complete : t -> int -> unit;
  mutable on_preload_hit : t -> int -> unit;
  mutable on_scan : t -> int -> unit;
  mutable preload_gate : now:int -> int -> bool;
      (* Scheme-level circuit breaker: consulted before a speculative
         preload request is queued.  [false] rejects the request (counted
         in [preloads_rejected_breaker]).  Always [true] by default.
         Gates only the speculative path ([request_preload]); SIP's
         synchronous notification loads never pass through it. *)
  mutable load_perturb : at:int -> int -> int;
      (* Fault-injection point: maps a load's clean duration to its
         faulted duration (contended paging channel).  Identity by
         default; must never shorten a load — [start_load] clamps. *)
  mutable epc_budget : (at:int -> int -> int) option;
      (* Fault-injection point: frames available to this enclave at a
         given cycle once a co-tenant has taken its slice.  [None] (the
         default) means the full capacity, which residency can never
         exceed, so budget reconciliation is skipped outright. *)
  probe : owner:int -> vpage:int -> Clock_evictor.verdict;
      (* This enclave's CLOCK probe ({!sweep_probe}), built once here so
         that an eviction allocates no closure. *)
  harvest_page : int -> unit;
      (* [harvest t], built once for the same reason: the periodic scan
         feeds it every page touched since the last scan. *)
  ctx : fault_ctx;
      (* The one context every fault fills in before calling [on_fault];
         hooks must not keep it past the call. *)
}

(* Credit a preloaded page's first observed use to the scheme (the paper's
   AccPreloadCounter).  Called wherever the driver inspects access bits:
   the service scan, the CLOCK sweep, and eviction. *)
let harvest t vpage =
  if
    Page_table.preloaded t.pt vpage
    && (not (Page_table.counted t.pt vpage))
    && Page_table.accessed t.pt vpage
  then begin
    Page_table.set_counted t.pt vpage;
    t.metrics.preload_hits <- t.metrics.preload_hits + 1;
    t.on_preload_hit t vpage
  end

(* Resolve a frame's owner tag to its enclave.  Outside a fleet only our
   own tag can appear in the (private) pool. *)
let enc_of t o =
  if o = t.owner then t
  else
    match t.peers with
    | Some peers when o >= 0 && o < Array.length peers -> peers.(o)
    | Some _ | None ->
      invalid_arg "Enclave: EPC frame owned by an unlinked tenant"

(* The CLOCK sweep's view of one frame, run by [t]'s evictions.  In a
   shared pool the frame may belong to a co-tenant: its page table is
   consulted and its preload hit harvested before the second-chance
   clear. *)
let sweep_probe t ~owner ~vpage =
  let e = enc_of t owner in
  if Page_table.pinned e.pt vpage then Clock_evictor.Pass
  else if Page_table.accessed e.pt vpage then begin
    harvest e vpage;
    Page_table.clear_accessed e.pt vpage;
    Clock_evictor.Spare
  end
  else Clock_evictor.Take

let create ?(costs = Cost_model.paper) ?(log = Event.null_log) ?epc
    ?(owner = 0) ~epc_pages ~elrange_pages () =
  let epc =
    (* A fleet passes the shared pool in; solo enclaves get a private one
       of [epc_pages] frames. *)
    match epc with
    | Some e -> e
    | None -> Clock_evictor.create ~capacity:epc_pages
  in
  let pt = Page_table.create ~pages:elrange_pages in
  let channel = Load_channel.create ~pages:elrange_pages in
  let bitmap = Bitset.create elrange_pages in
  let rec t =
    {
      costs;
      pt;
      epc;
      owner;
      channel;
      metrics = Metrics.create ();
      bitmap;
      log;
      next_scan = costs.Cost_model.clock_scan_period;
      peers = None;
      protected_vpage = -1;
      on_evict = (fun ~aggressor:_ ~victim:_ ~vpage:_ -> ());
      on_fault = (fun _ _ -> ());
      on_preload_complete = (fun _ _ -> ());
      on_preload_hit = (fun _ _ -> ());
      on_scan = (fun _ _ -> ());
      preload_gate = (fun ~now _ -> ignore now; true);
      load_perturb = (fun ~at d -> ignore at; d);
      epc_budget = None;
      probe = (fun ~owner ~vpage -> sweep_probe t ~owner ~vpage);
      harvest_page = (fun vpage -> harvest t vpage);
      ctx =
        {
          fault_vpage = -1;
          fault_thread = 0;
          raised_at = 0;
          handled_at = 0;
          resolution = Demand_load;
        };
    }
  in
  t

let set_on_fault t f = t.on_fault <- f

let add_on_fault t f =
  let prev = t.on_fault in
  t.on_fault <-
    (fun enc ctx ->
      prev enc ctx;
      f enc ctx)
let set_on_preload_complete t f = t.on_preload_complete <- f
let set_on_preload_hit t f = t.on_preload_hit <- f
let set_on_scan t f = t.on_scan <- f

let add_on_preload_complete t f =
  let prev = t.on_preload_complete in
  t.on_preload_complete <-
    (fun enc v ->
      prev enc v;
      f enc v)

let add_on_preload_hit t f =
  let prev = t.on_preload_hit in
  t.on_preload_hit <-
    (fun enc v ->
      prev enc v;
      f enc v)

let add_on_scan t f =
  let prev = t.on_scan in
  t.on_scan <-
    (fun enc at ->
      prev enc at;
      f enc at)

let set_preload_gate t f = t.preload_gate <- f
let set_load_perturb t f = t.load_perturb <- f
let set_epc_budget t f = t.epc_budget <- Some f
let set_on_evict t f = t.on_evict <- f
let owner t = t.owner

let link_fleet peers =
  Array.iteri
    (fun i e ->
      if e.owner <> i then
        invalid_arg "Enclave.link_fleet: owner tag must equal array index";
      e.peers <- Some peers)
    peers

(* Every [record] call site is guarded by [logging]: an event is built
   only when the log keeps it, so a run with the null log (every matrix,
   fleet and service run) allocates no events at all. *)
let logging t = Event.recording t.log
let record t e = Event.record t.log e

(* Free one EPC frame via the CLOCK sweep.  The victim's state transition
   is applied at [at]; the EWB write-back time is charged to the load that
   needed the frame (part of the channel busy span).  In a shared pool the
   victim may belong to a co-tenant: its page table, bitmap, metrics and
   event log take the eviction, while the cycles stay charged to this
   enclave (the aggressor) — exactly the cross-tenant interference the
   fleet's table reports via [on_evict]. *)
let evict_one t ~at =
  let slot = Clock_evictor.choose_victim t.epc t.probe in
  let vowner = Clock_evictor.slot_owner t.epc slot in
  let victim = Clock_evictor.slot_vpage t.epc slot in
  let ve = enc_of t vowner in
  if Page_table.preloaded ve.pt victim && not (Page_table.counted ve.pt victim)
  then
    ve.metrics.preload_evicted_unused <- ve.metrics.preload_evicted_unused + 1;
  Clock_evictor.remove t.epc ~slot;
  Page_table.mark_evicted ve.pt victim;
  Bitset.clear ve.bitmap victim;
  ve.metrics.evictions <- ve.metrics.evictions + 1;
  if logging ve then record ve (Event.Evict { at; vpage = victim });
  t.on_evict ~aggressor:t.owner ~victim:vowner ~vpage:victim

(* The CLOCK sweep passes pinned pages over, so they can never be
   victims — and with only pinned pages resident there is no victim at
   all.  Pins last for the tail of one access call, so at any instant at
   most one page is pinned per tenant (and in an interleaved fleet
   replay, at most one globally). *)
let pinned_resident e =
  e.protected_vpage >= 0 && Page_table.present e.pt e.protected_vpage

let evictable t =
  let pinned =
    match t.peers with
    | None -> if pinned_resident t then 1 else 0
    | Some peers ->
      (* Only tenants sharing this pool can pin frames in it. *)
      let n = ref 0 in
      for i = 0 to Array.length peers - 1 do
        let e = peers.(i) in
        if e.epc == t.epc && pinned_resident e then incr n
      done;
      !n
  in
  Clock_evictor.used t.epc > pinned

(* Frames this enclave may occupy at [at]: full capacity unless a fault
   plan installed a co-tenant.  Never below one frame. *)
let budget_at t ~at =
  let cap = Clock_evictor.capacity t.epc in
  match t.epc_budget with
  | None -> cap
  | Some f -> Int.max 1 (Int.min cap (f ~at cap))

(* Evict until residency fits the (possibly co-tenant-shrunk) frame
   budget.  Like the scan's reclaim — and unlike the evictions a load
   triggers in [start_load] — the write-backs ride the co-tenant's own
   channel, so no cycles are charged here.  Called from [run_scan] and
   from every [sync]: a budget shrink used to go unreconciled until the
   next fault or scan, leaving resident > budget for whole access bursts. *)
let reconcile_budget t ~at =
  match t.epc_budget with
  | None -> ()
  | Some _ ->
    let budget = budget_at t ~at in
    while Clock_evictor.used t.epc > budget && evictable t do
      evict_one t ~at
    done

(* Begin a load on the (idle) channel at [at] and return its completion
   cycle; evicts first if the EPC — or the co-tenant-shrunk budget —
   leaves no free frame for the incoming page, extending the busy span by
   one write-back cost per eviction. *)
let start_load t ~at ~vpage ~kind =
  let budget = budget_at t ~at in
  let evictions = ref 0 in
  while
    (Clock_evictor.is_full t.epc || Clock_evictor.used t.epc >= budget)
    && evictable t
  do
    evict_one t ~at;
    incr evictions
  done;
  let base =
    (!evictions * t.costs.Cost_model.t_evict) + t.costs.Cost_model.t_load
  in
  (* Clamped: a contended channel can only slow a load down. *)
  let duration = Int.max base (t.load_perturb ~at base) in
  if logging t then record t (Event.Load_start { at; vpage; kind });
  Load_channel.begin_load t.channel ~vpage ~kind ~now:at ~duration

(* Land the channel's finished load (the caller has checked that it is
   done by now) and free the channel. *)
let complete_load t =
  let ch = t.channel in
  let vpage = Load_channel.in_flight_vpage ch in
  let kind = Load_channel.in_flight_kind ch in
  let finishes = Load_channel.in_flight_finishes ch in
  ignore (Load_channel.take_completed ch ~now:finishes);
  if logging t then record t (Event.Load_done { at = finishes; vpage; kind });
  if not (Page_table.present t.pt vpage) then begin
    let prov =
      match kind with
      | Demand | Preload_sip -> Page_table.Demand
      | Preload_dfp -> Page_table.Preloaded
    in
    (* In a shared pool a co-tenant may have claimed the frame this load
       was started against; make room again at completion time.  Dead
       code for a private pool: the exclusive channel means nothing can
       fill the EPC between [start_load] and here. *)
    while Clock_evictor.is_full t.epc && evictable t do
      evict_one t ~at:finishes
    done;
    let slot = Clock_evictor.insert t.epc ~owner:t.owner vpage in
    Page_table.mark_loaded t.pt vpage ~prov ~slot;
    Bitset.set t.bitmap vpage;
    match kind with
    | Preload_dfp ->
      t.metrics.preloads_completed <- t.metrics.preloads_completed + 1;
      t.on_preload_complete t vpage
    | Demand | Preload_sip -> ()
  end

let run_scan t ~at =
  t.metrics.scans <- t.metrics.scans + 1;
  if logging t then record t (Event.Scan { at });
  (* The harvest-and-clear sweep only does work on frames whose access
     bit is set (harvesting or clearing a clear bit is a no-op), so the
     scan drains the page table's touched list instead of walking every
     resident frame: O(pages touched since the last scan) rather than
     O(EPC capacity).  The hit counters it feeds are order-independent,
     so visiting in touch order instead of frame order changes nothing
     observable. *)
  Page_table.drain_touched t.pt ~f:t.harvest_page;
  (* A co-tenant that grew its slice reclaims frames here: its own
     channel does the write-backs, so — unlike the evictions a load
     triggers in [start_load] — no cycles are charged to this enclave;
     it just finds itself with fewer resident pages. *)
  reconcile_budget t ~at;
  t.next_scan <- at + t.costs.Cost_model.clock_scan_period;
  t.on_scan t at

(* Replay background events (load completions, scans, preload starts) in
   timestamp order up to [now].  [preload_bound] freezes the preload
   queue: no {e new} speculative load may begin at or after that time —
   used while a fault handler owns the channel, since demand has
   priority. *)
(* Allocation-free event selection: candidate times are plain ints with
   [max_int] as "absent", and the <=/< comparisons below reproduce the
   tie-break priority of the option-list fold this replaces — on equal
   timestamps a completion beats a scan beats a preload start.  This
   runs on every [sync], i.e. on every simulated access, so it must not
   box. *)
let rec pump t ~now ~preload_bound =
  let ch = t.channel in
  let busy = Load_channel.in_flight_vpage ch >= 0 in
  let completion_at =
    if busy && Load_channel.in_flight_finishes ch <= now then
      Load_channel.in_flight_finishes ch
    else max_int
  in
  let scan_at = if t.next_scan <= now then t.next_scan else max_int in
  let start_vpage = if busy then -1 else Load_channel.next_queued_vpage ch in
  let start_at =
    if start_vpage < 0 then max_int
    else begin
      let st =
        Int.max (Load_channel.free_at ch) (Load_channel.next_queued_at ch)
      in
      if st <= now && st < preload_bound then st else max_int
    end
  in
  if completion_at <= scan_at && completion_at <= start_at
     && completion_at < max_int
  then begin
    complete_load t;
    pump t ~now ~preload_bound
  end
  else if scan_at <= start_at && scan_at < max_int then begin
    run_scan t ~at:scan_at;
    pump t ~now ~preload_bound
  end
  else if start_at < max_int then begin
    ignore (Load_channel.pop_queued ch);
    (* The page may have been demand-loaded while it waited in the queue;
       the kernel thread re-checks presence cheaply and skips it.  An EPC
       full of nothing but pinned pages has no victim, so the preload is
       dropped rather than started.  (Outside a fleet that means a
       single-frame EPC whose only frame is pinned.) *)
    let no_victim = Clock_evictor.is_full t.epc && not (evictable t) in
    if (not (Page_table.present t.pt start_vpage)) && not no_victim then
      ignore (start_load t ~at:start_at ~vpage:start_vpage ~kind:Load_channel.Preload_dfp)
    else t.metrics.preloads_skipped <- t.metrics.preloads_skipped + 1;
    pump t ~now ~preload_bound
  end

let sync t ~now =
  pump t ~now ~preload_bound:max_int;
  (* Satellite fix: a budget shrink between background events must be
     reconciled now, not at the next fault — otherwise resident > budget
     holds for every fault-free access until a scan happens by. *)
  reconcile_budget t ~at:now

(* Complete the access itself once the page is resident. *)
let finish_access t ~now vpage =
  Page_table.touch t.pt vpage;
  t.metrics.cyc_access <- t.metrics.cyc_access + t.costs.Cost_model.t_access;
  now + t.costs.Cost_model.t_access

(* The full demand-fault path: AEX, handler (three possible resolutions),
   ERESUME. *)
let fault_path t ~now ~thread vpage =
  let c = t.costs in
  let ch = t.channel in
  if logging t then record t (Event.Fault { at = now; vpage });
  let t_handler_start = now + c.Cost_model.t_aex in
  t.metrics.cyc_aex <- t.metrics.cyc_aex + c.Cost_model.t_aex;
  (* The channel keeps working during the AEX transition, but the fault
     freezes the speculative queue: the handler owns the channel next. *)
  pump t ~now:t_handler_start ~preload_bound:now;
  if logging t then record t (Event.Aex_done { at = t_handler_start; vpage });
  let resolution =
    if Page_table.present t.pt vpage then Already_present
    else if Load_channel.in_flight_vpage ch = vpage then Waited_in_flight
    else Demand_load
  in
  let handled_at =
    match resolution with
    | Already_present ->
      (* A preload for this very page finished during the AEX window: the
         handler just fixes the PTE and returns. *)
      t.metrics.faults_already_present <- t.metrics.faults_already_present + 1;
      t.metrics.cyc_os_handler <-
        t.metrics.cyc_os_handler + c.Cost_model.t_fault_native;
      t_handler_start + c.Cost_model.t_fault_native
    | Waited_in_flight ->
      (* The faulted page is mid-preload; the load is non-preemptible, so
         the handler waits out the remainder. *)
      t.metrics.faults_in_flight <- t.metrics.faults_in_flight + 1;
      let finishes = Load_channel.in_flight_finishes ch in
      let wait = Int.max 0 (finishes - t_handler_start) in
      t.metrics.cyc_load_wait <- t.metrics.cyc_load_wait + wait;
      pump t ~now:finishes ~preload_bound:now;
      finishes
    | Demand_load ->
      t.metrics.faults <- t.metrics.faults + 1;
      (* Drain whatever other load occupies the channel... *)
      let free_at = Load_channel.busy_until ch ~now:t_handler_start in
      t.metrics.cyc_load_wait <-
        t.metrics.cyc_load_wait + (free_at - t_handler_start);
      pump t ~now:free_at ~preload_bound:now;
      (* ...take over any queued preload of the same page... *)
      if Load_channel.remove_queued ch vpage then
        t.metrics.preloads_taken_over <- t.metrics.preloads_taken_over + 1;
      (* ...and perform the demand load. *)
      let finishes = start_load t ~at:free_at ~vpage ~kind:Load_channel.Demand in
      t.metrics.cyc_load_wait <- t.metrics.cyc_load_wait + (finishes - free_at);
      pump t ~now:finishes ~preload_bound:now;
      finishes
  in
  t.protected_vpage <- vpage;
  (* Mirror the pin into the page-table word so a co-tenant's sweep —
     which consults our table, not our [protected_vpage] — passes the
     frame over too.  (Guarded: a shrunk-budget scan racing the load
     completion can have re-evicted the page already.) *)
  if Page_table.present t.pt vpage then Page_table.pin t.pt vpage;
  let ctx = t.ctx in
  ctx.fault_vpage <- vpage;
  ctx.fault_thread <- thread;
  ctx.raised_at <- now;
  ctx.handled_at <- handled_at;
  ctx.resolution <- resolution;
  t.on_fault t ctx;
  t.metrics.cyc_eresume <- t.metrics.cyc_eresume + c.Cost_model.t_eresume;
  let resumed = handled_at + c.Cost_model.t_eresume in
  if logging t then record t (Event.Eresume { at = resumed; vpage });
  let finished = finish_access t ~now:resumed vpage in
  Page_table.unpin t.pt vpage;
  t.protected_vpage <- -1;
  finished

let access ?(thread = 0) t ~now vpage =
  sync t ~now;
  t.metrics.accesses <- t.metrics.accesses + 1;
  if Page_table.present t.pt vpage then finish_access t ~now vpage
  else fault_path t ~now ~thread vpage

(* SIP's checked access: bitmap check, then either a plain access or a
   notification + synchronous in-enclave wait.  No AEX/ERESUME on the
   miss path — that is the whole point of the scheme (Fig. 4). *)
let sip_access ?(thread = 0) t ~now vpage =
  ignore thread;
  let c = t.costs in
  sync t ~now;
  t.metrics.accesses <- t.metrics.accesses + 1;
  t.metrics.sip_checks <- t.metrics.sip_checks + 1;
  t.metrics.cyc_bitmap_check <-
    t.metrics.cyc_bitmap_check + c.Cost_model.t_bitmap_check;
  let t_checked = now + c.Cost_model.t_bitmap_check in
  let present = Bitset.mem t.bitmap vpage in
  if logging t then record t (Event.Sip_check { at = t_checked; vpage; present });
  if present then finish_access t ~now:t_checked vpage
  else begin
    t.metrics.sip_notifies <- t.metrics.sip_notifies + 1;
    t.metrics.cyc_notify <- t.metrics.cyc_notify + c.Cost_model.t_notify;
    let t_notified = t_checked + c.Cost_model.t_notify in
    (* Stamped at the end of the notify span: the event marks the kernel
       thread *receiving* the notification, which is also when it may
       start acting on the channel.  Stamping it at [t_checked] (the old
       behaviour) let the log interleave against the loads the kernel
       thread starts only after pickup. *)
    if logging t then record t (Event.Sip_notify { at = t_notified; vpage });
    (* The kernel thread owns the channel next; freeze speculation. *)
    pump t ~now:t_notified ~preload_bound:t_checked;
    let loaded_at =
      if Page_table.present t.pt vpage then
        (* Completed in the notification window. *)
        t_notified
      else if Load_channel.in_flight_vpage t.channel = vpage then begin
        let finishes = Load_channel.in_flight_finishes t.channel in
        let wait = Int.max 0 (finishes - t_notified) in
        t.metrics.cyc_sip_wait <- t.metrics.cyc_sip_wait + wait;
        pump t ~now:finishes ~preload_bound:t_checked;
        finishes
      end
      else begin
        let free_at = Load_channel.busy_until t.channel ~now:t_notified in
        t.metrics.cyc_sip_wait <- t.metrics.cyc_sip_wait + (free_at - t_notified);
        pump t ~now:free_at ~preload_bound:t_checked;
        if Load_channel.remove_queued t.channel vpage then
          t.metrics.preloads_taken_over <- t.metrics.preloads_taken_over + 1;
        let finishes =
          start_load t ~at:free_at ~vpage ~kind:Load_channel.Preload_sip
        in
        t.metrics.cyc_sip_wait <- t.metrics.cyc_sip_wait + (finishes - free_at);
        pump t ~now:finishes ~preload_bound:t_checked;
        finishes
      end
    in
    finish_access t ~now:loaded_at vpage
  end

let compute t ~now cycles =
  if cycles < 0 then invalid_arg "Enclave.compute: negative cycles";
  t.metrics.cyc_compute <- t.metrics.cyc_compute + cycles;
  now + cycles

let request_preload t ~now vpage =
  sync t ~now;
  t.metrics.preloads_requested <- t.metrics.preloads_requested + 1;
  if vpage < 0 || vpage >= Page_table.pages t.pt then begin
    (* Predictors may run past the end of ELRANGE; the driver range-checks
       and skips such requests.  Counted so predictor over-runs are
       distinguishable from never-predicted pages. *)
    t.metrics.preloads_rejected_range <- t.metrics.preloads_rejected_range + 1;
    false
  end
  else if not (t.preload_gate ~now vpage) then begin
    (* An open circuit breaker refuses speculation wholesale; counted
       apart from range/dup rejects so the breaker's bite is visible. *)
    t.metrics.preloads_rejected_breaker <-
      t.metrics.preloads_rejected_breaker + 1;
    false
  end
  else if
    Page_table.present t.pt vpage
    || Load_channel.in_flight_vpage t.channel = vpage
    || Load_channel.queued_mem t.channel vpage
  then begin
    t.metrics.preloads_rejected_dup <- t.metrics.preloads_rejected_dup + 1;
    false
  end
  else begin
    Load_channel.queue_preload t.channel ~vpage ~at:now;
    t.metrics.preloads_issued <- t.metrics.preloads_issued + 1;
    if logging t then record t (Event.Preload_queued { at = now; vpage });
    true
  end

let abort_pending_preloads t ~now =
  sync t ~now;
  let n = Load_channel.abort_queued t.channel in
  if n > 0 then begin
    t.metrics.preloads_aborted <- t.metrics.preloads_aborted + n;
    if logging t then record t (Event.Preload_aborted { at = now; count = n })
  end;
  n

let abort_pending_preloads_pages t ~now pages n =
  sync t ~now;
  let n = Load_channel.abort_queued_pages t.channel pages n in
  if n > 0 then begin
    t.metrics.preloads_aborted <- t.metrics.preloads_aborted + n;
    if logging t then record t (Event.Preload_aborted { at = now; count = n })
  end;
  n

(* Instance crash at [now]: the enclave's EPC contents, pending preload
   queue and in-flight load are all lost.  Losses are not evictions —
   there is no write-back, no [Evict] event and no waste counter; the
   crash is its own event and its own pair of counters.  Returns the
   pages that were resident, oldest frame first, so a rewarm restart can
   re-request exactly the working set that died. *)
let crash t ~now =
  sync t ~now;
  (* Pending speculative loads die with the enclave; the in-flight load
     (always speculative between accesses — demand and SIP loads complete
     inside their access call) never lands.  Both count as aborted so the
     preload-disposition identity survives the crash. *)
  let queued = Load_channel.abort_queued t.channel in
  let cancelled =
    if Load_channel.in_flight_vpage t.channel < 0 then 0
    else
      match Load_channel.in_flight_kind t.channel with
      | Preload_dfp -> 1
      | Demand | Preload_sip -> 0
  in
  Load_channel.cancel_in_flight t.channel ~now;
  let aborted = queued + cancelled in
  if aborted > 0 then begin
    t.metrics.preloads_aborted <- t.metrics.preloads_aborted + aborted;
    if logging t then
      record t (Event.Preload_aborted { at = now; count = aborted })
  end;
  let lost = ref [] in
  Clock_evictor.scan_owned t.epc (fun ~owner ~vpage ->
      if owner = t.owner then lost := vpage :: !lost);
  let lost = List.rev !lost in
  List.iter
    (fun vpage ->
      (* Credit a used preload before the page disappears, exactly as an
         eviction's sweep would — hit accounting must not depend on how
         the residency ended. *)
      harvest t vpage;
      Page_table.unpin t.pt vpage;
      Clock_evictor.remove t.epc ~slot:(Page_table.slot t.pt vpage);
      Page_table.mark_evicted t.pt vpage;
      Bitset.clear t.bitmap vpage)
    lost;
  let n = List.length lost in
  t.metrics.crashes <- t.metrics.crashes + 1;
  t.metrics.crash_pages_lost <- t.metrics.crash_pages_lost + n;
  t.protected_vpage <- -1;
  if logging t then record t (Event.Crash { at = now; pages_lost = n });
  lost

let costs t = t.costs
let metrics t = t.metrics
let elrange_pages t = Page_table.pages t.pt
let epc_capacity t = Clock_evictor.capacity t.epc
let frame_budget t ~at = budget_at t ~at
let resident_count t = Page_table.resident_count t.pt
let page_present t vpage = Page_table.present t.pt vpage
let bitmap_present t vpage = Bitset.mem t.bitmap vpage
let pending_preloads t = Load_channel.queued t.channel
let pending_preload_count t = Load_channel.queue_length t.channel
let preload_queued t vpage = Load_channel.queued_mem t.channel vpage
let in_flight_kind t =
  if Load_channel.in_flight_vpage t.channel < 0 then None
  else Some (Load_channel.in_flight_kind t.channel)
let events t = Event.events t.log
