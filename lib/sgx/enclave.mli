(** The simulated enclave: ELRANGE + EPC + paging + preloading machinery.

    This facade ties the page table, the CLOCK evictor, the exclusive load
    channel and the metrics together, and exposes exactly the interface
    the paper's components see:

    - the {e application} performs page-granular accesses
      ({!access}) and, when instrumented by SIP, checked accesses
      ({!sip_access});
    - the {e OS / DFP} observes faults through the [on_fault] hook (page
      number only — SGX clears the low 12 bits) and reacts by queueing
      asynchronous preloads ({!request_preload}) or aborting pending ones;
    - the {e SGX-driver service thread} periodically scans and clears
      access bits; the scan harvests which preloaded pages were actually
      used, feeding DFP's abort counters (§4.2).

    Time is an absolute cycle counter owned by the caller.  Each
    application-side operation takes the current time and returns the
    advanced time; background work (in-flight loads, queued preloads, the
    periodic scan) is replayed lazily and in timestamp order whenever the
    simulation reaches a new point in time.

    The per-access path allocates nothing with the null log: not on a
    resident access, not on a fault, not on a periodic scan.  Each
    enclave owns one {!fault_ctx}, filled in per fault; events are built
    only when the log records them (see {!Event.recording}), integer
    comparisons are monomorphic, and the CLOCK probe and the scan's
    harvest are closures made once at {!create}. *)

type fault_resolution =
  | Already_present
      (** The handler found the page in EPC: a preload completed during
          the AEX window.  Only the short handler path is paid. *)
  | Waited_in_flight
      (** The faulted page was being preloaded; the handler waited out the
          remainder of the non-preemptible load. *)
  | Demand_load  (** The ordinary path: the handler loaded the page. *)

type fault_ctx = {
  mutable fault_vpage : int;
  mutable fault_thread : int;
      (** Faulting thread id — the [ID] input of Algorithm 1; the OS sees
          which thread trapped. *)
  mutable raised_at : int;  (** Cycle at which the fault trapped (AEX begins). *)
  mutable handled_at : int;  (** Cycle at which the OS handler finished. *)
  mutable resolution : fault_resolution;
}
(** What the OS handler sees of one fault.  The enclave owns a single
    record and fills it in before each [on_fault] call, so a fault
    allocates nothing: a hook reads the fields during the call and must
    not keep the record (or expect it unchanged) after it returns. *)

type t

val create :
  ?costs:Cost_model.t ->
  ?log:Event.log ->
  ?epc:Clock_evictor.t ->
  ?owner:int ->
  epc_pages:int ->
  elrange_pages:int ->
  unit ->
  t
(** Fresh enclave with an EPC of [epc_pages] frames and an ELRANGE of
    [elrange_pages] virtual pages.  [costs] defaults to
    {!Cost_model.paper}.  A fleet passes a shared [epc] pool and a
    distinct [owner] frame tag per tenant (and must then {!link_fleet});
    by default the enclave gets a private pool and tag 0, in which case
    [epc_pages] is its capacity ([epc_pages] is ignored when [epc] is
    supplied). *)

val link_fleet : t array -> unit
(** Wire co-tenants together: each enclave learns the full fleet so the
    shared pool's CLOCK sweep can consult the right page table for each
    frame's owner tag.  @raise Invalid_argument unless every enclave's
    [owner] equals its array index. *)

val owner : t -> int
(** This enclave's frame tag in its EPC pool. *)

(** {1 Hooks (scheme attachment points)} *)

val set_on_fault : t -> (t -> fault_ctx -> unit) -> unit
(** Called once per fault, while the OS handler is logically running
    (timestamp [handled_at]).  The callback may queue preloads and abort
    pending ones; this is where DFP lives.  The context is valid only
    during the call (see {!fault_ctx}). *)

val add_on_fault : t -> (t -> fault_ctx -> unit) -> unit
(** Chain an additional fault observer after the currently installed one
    without displacing it — used by measurement plumbing (e.g. latency
    histograms) that must coexist with a scheme's [set_on_fault]. *)

val set_on_preload_complete : t -> (t -> int -> unit) -> unit
(** Called when a DFP preload finishes loading (the paper's
    [PreloadCounter] increment point). *)

val set_on_preload_hit : t -> (t -> int -> unit) -> unit
(** Called when the service scan first observes that a preloaded page has
    been accessed (the paper's [AccPreloadCounter] increment point). *)

val set_on_scan : t -> (t -> int -> unit) -> unit
(** Called after each service-thread scan with the scan time; DFP-stop
    runs its periodic counter comparison here. *)

val add_on_preload_complete : t -> (t -> int -> unit) -> unit
(** Chain an additional preload-completion observer after the installed
    one (a scheme typically owns [set_on_preload_complete]; the circuit
    breaker observes alongside it). *)

val add_on_preload_hit : t -> (t -> int -> unit) -> unit
(** Chain an additional preload-hit observer after the installed one. *)

val add_on_scan : t -> (t -> int -> unit) -> unit
(** Chain an additional scan observer after the installed one. *)

val set_preload_gate : t -> (now:int -> int -> bool) -> unit
(** Install the circuit breaker's admission gate: consulted by
    {!request_preload} (after the range check, before dup detection) for
    every speculative request; [false] rejects it, counted in
    [preloads_rejected_breaker].  SIP's synchronous notification loads
    never pass through the gate.  Always-[true] by default. *)

val set_load_perturb : t -> (at:int -> int -> int) -> unit
(** Fault-injection point (see [Sim.Fault_plan]): maps a load's clean
    duration to its faulted duration, modelling a contended paging
    channel.  The result is clamped to never shorten a load.  Identity
    by default. *)

val set_epc_budget : t -> (at:int -> int -> int) -> unit
(** Fault-injection point: frames available to this enclave at a given
    cycle once a co-tenant has taken its slice.  The result is clamped
    to [[1, capacity]].  Loads evict down to the budget (charging one
    write-back each); every {!sync} and periodic scan squeezes residency
    to the budget for free (the co-tenant's own channel pays those
    write-backs), so a shrink is reconciled at the next simulated
    instant, not at the next fault.  Without this hook the budget is the
    full capacity, which residency never exceeds, and that
    reconciliation is skipped. *)

val set_on_evict : t -> (aggressor:int -> victim:int -> vpage:int -> unit) -> unit
(** Observe every eviction this enclave's sweeps perform, with the owner
    tags of both sides — in a shared pool the victim may be a co-tenant.
    Feeds the fleet's interference table.  No-op by default. *)

(** {1 Application-side operations} *)

val access : ?thread:int -> t -> now:int -> int -> int
(** [access t ~now vpage] performs one un-instrumented enclave access;
    returns the advanced cycle counter.  Faults are fully serviced inside
    (AEX, channel wait, load, ERESUME) with [on_fault] invoked at handler
    time.  [thread] (default 0) is reported in the fault context. *)

val sip_access : ?thread:int -> t -> now:int -> int -> int
(** [sip_access t ~now vpage] performs one SIP-instrumented access:
    BIT_MAP_CHECK first, then, on absence, notification plus a synchronous
    in-enclave wait for the OS to load the page — no AEX, no ERESUME
    (§3.2, Fig. 4). *)

val compute : t -> now:int -> int -> int
(** [compute t ~now cycles] accounts application compute time between
    accesses; returns [now + cycles]. *)

val sync : t -> now:int -> unit
(** Replay background work up to [now] (in-flight load completion, queued
    preload starts, periodic scans).  Application-side operations sync
    implicitly; call this at end of run to drain. *)

(** {1 OS-side operations} *)

val request_preload : t -> now:int -> int -> bool
(** Queue an asynchronous preload.  Returns [false] (no-op) if the page is
    already present, in flight, queued, outside ELRANGE (the driver
    range-checks speculative requests), or refused by the installed
    preload gate; [true] if it was queued. *)

val crash : t -> now:int -> int list
(** Kill the instance at [now]: every resident page is dropped (no
    write-back, no [Evict] event — the loss is counted in
    [Metrics.crashes] / [crash_pages_lost] and logged as one
    [Event.Crash]), the pending preload queue is aborted, and the
    in-flight load is cancelled (the one case where a load does not
    complete; it counts as aborted).  Returns the pages that were
    resident, oldest frame first — the working set a rewarm restart
    re-requests.  The enclave object itself survives and may be driven
    again after the caller charges the restart delay. *)

val abort_pending_preloads : t -> now:int -> int
(** Drop all queued (not yet started) preloads; returns the count. *)

val abort_pending_preloads_pages : t -> now:int -> int array -> int -> int
(** [abort_pending_preloads_pages t ~now pages n] drops the first [n]
    entries of [pages] from the preload queue, in order (pages not queued
    are ignored); returns the number dropped.  Syncs to [now] first, even
    when nothing is dropped.  O(n) — the per-stream abort path. *)

(** {1 Inspection} *)

val costs : t -> Cost_model.t
val metrics : t -> Metrics.t
val elrange_pages : t -> int
val epc_capacity : t -> int

val frame_budget : t -> at:int -> int
(** Frames this enclave may occupy at [at] under the installed
    [epc_budget] hook, clamped to [[1, capacity]] — what residency is
    reconciled against (regression hook for the budget-shrink fix). *)

val resident_count : t -> int
val page_present : t -> int -> bool
val bitmap_present : t -> int -> bool
(** What SIP's shared bitmap says (kept in sync by load/evict). *)

val pending_preloads : t -> int list
(** Materializes the queue; O(queue) — inspection/testing only.  Hot paths
    use {!preload_queued} / {!pending_preload_count}. *)

val pending_preload_count : t -> int
(** Number of queued (not yet started) preloads; O(1). *)

val preload_queued : t -> int -> bool
(** Whether a page is waiting in the preload queue; O(1). *)

val in_flight_kind : t -> Load_channel.kind option
(** Kind of the load occupying the channel, [None] when it is idle. *)

val events : t -> Event.t list
