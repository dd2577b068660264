(** Seeded, fully deterministic fault injection.

    The paper evaluates SIP/DFP under clean single-tenant conditions;
    production SGX faces contended paging channels (Stress-SGX builds
    purpose-made stressors for exactly this), co-resident enclaves
    fighting over EPC, damaged profiling input, and profiles that no
    longer match the running binary.  A fault plan is a reproducible
    schedule of such perturbations, applied at four well-defined
    simulator points:

    - {b channel}: ELDU latency multipliers in seeded jitter windows —
      a load (and the write-back it triggered) takes up to
      [max_multiplier] times longer while the window is stalled;
    - {b co_tenant}: a background enclave steals a time-varying slice
      of EPC frames, shrinking this enclave's budget (the CLOCK evictor
      squeezes residency at each service scan, and loads evict down to
      the budget);
    - {b trace}: corrupted access addresses and/or a truncated stream;
    - {b stale_sip_plan}: the SIP plan's site ids are permuted, as if
      the profile came from a mismatched build;
    - {b crash}: whole-instance crashes — in each crash window, with a
      seeded per-instance chance, an enclave dies (losing every resident
      page and all pending speculation) and restarts after a fixed
      delay.  Consumed by [Runner] through {!crash_fires}.

    {b Determinism.}  Every perturbation is a pure function of
    [(seed, position, salt)] — position being a time window or event
    index — with no PRNG state threaded between draws.  Replaying the
    same (plan, workload, scheme) cell reproduces the same faults bit
    for bit, in any process and any cell order; the [chaos] matrix is
    therefore byte-identical across [-j] values and across runs. *)

type channel_fault = {
  jitter_period : int;  (** Cycles per jitter window. *)
  stall_chance : float;  (** Probability a window is stalled, [0,1]. *)
  max_multiplier : float;  (** Load-duration multiplier cap, >= 1. *)
}

type co_tenant = {
  steal_period : int;  (** Cycles per re-draw of the stolen slice. *)
  max_steal : float;  (** Largest EPC fraction stolen, [0,1). *)
}

type trace_fault = {
  corrupt_chance : float;  (** Per-access probability of a wild vpage. *)
  truncate_after : int option;  (** Drop events past this index. *)
}

type crash_fault = {
  crash_period : int;  (** Cycles per crash window. *)
  crash_chance : float;  (** Per-window, per-instance crash chance, [0,1]. *)
  restart_delay : int;  (** Cycles a crashed instance sits dead, >= 0. *)
}

type t = {
  name : string;
  seed : int;
  channel : channel_fault option;
  co_tenant : co_tenant option;
  trace : trace_fault option;
  stale_sip_plan : bool;
  crash : crash_fault option;
}

val none : t
(** The fault-free plan (name ["fault-free"]); all hooks are identity. *)

val is_fault_free : t -> bool

val with_seed : t -> int -> t

val validate : t -> t
(** Returns the plan; raises [Invalid_argument] on out-of-range
    parameters (negative periods, chances outside [0,1], ...). *)

(** {1 Perturbation points} *)

val perturb_load_duration : t -> at:int -> int -> int
(** [perturb_load_duration t ~at base] is the faulted duration of a load
    starting at cycle [at] whose clean duration is [base].  Always
    [>= base]; identity without a channel fault.  The reference for
    {!jitter_sampler}. *)

val epc_budget : t -> at:int -> capacity:int -> int
(** Frames available to this enclave at cycle [at]; in [[1, capacity]],
    and [capacity] without a co-tenant.  The reference for
    {!budget_sampler}. *)

val jitter_sampler : t -> (at:int -> int -> int) option
(** A fresh per-instance {!perturb_load_duration}: [Some f] with
    [f ~at base = perturb_load_duration t ~at base] for every call, or
    [None] without a channel fault.  [f] caches its jitter window's
    stall verdict and multiplier and draws again only when the window
    changes, so a call in the cached window allocates nothing.  Shaped
    for {!Sgxsim.Enclave.set_load_perturb}. *)

val budget_sampler : t -> (at:int -> int -> int) option
(** A fresh per-instance {!epc_budget}: [Some f] with
    [f ~at capacity = epc_budget t ~at ~capacity] for every call, or
    [None] without a co-tenant.  [f] caches its last (steal window,
    capacity) pair and draws again only when either changes.  Shaped
    for {!Sgxsim.Enclave.set_epc_budget}. *)

val perturb_trace :
  t -> elrange_pages:int -> Workload.Access.t Seq.t -> Workload.Access.t Seq.t
(** Corrupt/truncate an access stream.  Draws are keyed by event index,
    so the result is re-entrant exactly like [Trace.events].  The
    reference for {!perturb_arena}; replays do not use it. *)

val perturb_arena :
  t -> elrange_pages:int -> Workload.Trace_arena.t -> Workload.Trace_arena.t
(** [perturb_arena t ~elrange_pages a] is the arena of
    [perturb_trace t ~elrange_pages (Trace_arena.to_seq a)], built with
    the same index-keyed draws by {!Workload.Trace_arena.derive}: it
    shares [a]'s site, compute and thread columns and owns a corrupted
    vpage column.  Memoised per base arena under the plan's seed,
    corrupt chance, truncation and [elrange_pages], so every replay of
    the same trace under the same trace fault replays one arena.
    Returns [a] itself when the plan has no trace fault. *)

val scramble_plan : t -> Preload.Sip_instrumenter.plan -> Preload.Sip_instrumenter.plan
(** Permute which sites carry the plan's decisions when
    [stale_sip_plan]; identity otherwise. *)

val crash_fires : t -> instance:int -> window:int -> bool
(** Whether instance [instance] crashes in crash window [window]
    ([at / crash_period]).  A pure function of (seed, instance, window):
    the schedule is identical across processes, [-j] values and replay
    order.  Always [false] without a crash fault. *)

(** {1 The named bank} *)

val jittery_channel : t
val noisy_neighbor : t
val garbled_trace : t
val stale_profile : t
val perfect_storm : t
(** All channel + co-tenant + trace + stale-plan faults at once. *)

val crashy_fleet : t
(** Frequent instance crashes (8% per 5M-cycle window, 1M restart),
    no other faults — the fleet-replay crash stressor. *)

val flaky_service : t
(** Rare crashes (4% per 20M-cycle window, 2M restart) plus channel
    jitter — the degraded-but-alive service regime where retries,
    hedging and the breaker earn their keep. *)

val bank_seed : int
(** The bank's default seed (42). *)

val bank : t list
(** The seven plans above, in a fixed order (seed {!bank_seed}). *)

val find : string -> t option
(** Look up a plan by name; ["fault-free"] resolves to {!none}. *)

val names : unit -> string list
(** Names in {!bank}, in bank order. *)

val describe : t -> string
(** One-line human summary of the active faults. *)
