module Prng = Repro_util.Prng
module Access = Workload.Access
module Sip_instrumenter = Preload.Sip_instrumenter

type channel_fault = {
  jitter_period : int;
  stall_chance : float;
  max_multiplier : float;
}

type co_tenant = { steal_period : int; max_steal : float }

type trace_fault = { corrupt_chance : float; truncate_after : int option }

type crash_fault = {
  crash_period : int;
  crash_chance : float;
  restart_delay : int;
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

let none =
  {
    name = "fault-free";
    seed = 0;
    channel = None;
    co_tenant = None;
    trace = None;
    stale_sip_plan = false;
    crash = None;
  }

let is_fault_free t =
  t.channel = None && t.co_tenant = None && t.trace = None
  && (not t.stale_sip_plan)
  && t.crash = None

let with_seed t seed = { t with seed }

let validate t =
  let check cond what = if not cond then invalid_arg ("Fault_plan: " ^ what) in
  Option.iter
    (fun c ->
      check (c.jitter_period > 0) "jitter_period must be positive";
      check (c.stall_chance >= 0.0 && c.stall_chance <= 1.0)
        "stall_chance must be in [0,1]";
      check (c.max_multiplier >= 1.0) "max_multiplier must be >= 1")
    t.channel;
  Option.iter
    (fun c ->
      check (c.steal_period > 0) "steal_period must be positive";
      check (c.max_steal >= 0.0 && c.max_steal < 1.0)
        "max_steal must be in [0,1)")
    t.co_tenant;
  Option.iter
    (fun f ->
      check (f.corrupt_chance >= 0.0 && f.corrupt_chance <= 1.0)
        "corrupt_chance must be in [0,1]";
      Option.iter
        (fun n -> check (n >= 0) "truncate_after must be non-negative")
        f.truncate_after)
    t.trace;
  Option.iter
    (fun c ->
      check (c.crash_period > 0) "crash_period must be positive";
      check (c.crash_chance >= 0.0 && c.crash_chance <= 1.0)
        "crash_chance must be in [0,1]";
      check (c.restart_delay >= 0) "restart_delay must be non-negative")
    t.crash;
  t

(* Every perturbation is a pure function of (plan seed, position, salt):
   no Prng state is threaded between draws, so re-running a trace Seq or
   replaying the same simulation — from any process, in any cell order —
   reproduces the same faults bit for bit.  The combination below is
   plain integer arithmetic (not [Hashtbl.hash], whose value is not a
   documented contract) feeding splitmix's [mix64] via [Prng.create]. *)
let draw t ~window ~salt =
  Prng.create ((((t.seed * 1_000_003) + salt) * 1_000_003) + window)

let salt_channel = 1
let salt_tenant = 2
let salt_plan = 3
let salt_trace = 4
let salt_crash = 5

(* Instance crashes: in each crash window, with probability
   [crash_chance] the instance dies and sits out [restart_delay] cycles.
   The draw folds the instance index into the seed chain so a fleet's
   members crash independently yet each (plan, instance, window) triple
   is a pure function — replays and [-j] reorderings see the same
   schedule bit for bit. *)
let crash_fires t ~instance ~window =
  match t.crash with
  | None -> false
  | Some c ->
    let rng =
      Prng.create
        (((((t.seed * 1_000_003) + salt_crash) * 1_000_003) + instance)
          * 1_000_003
        + window)
    in
    Prng.chance rng c.crash_chance

(* ELDU latency under a contended paging channel: in each jitter window,
   with probability [stall_chance] the channel is stalled and the whole
   load (including any write-back it triggered) takes a multiplier in
   [1, max_multiplier].  Never shortens a load.  [stall_multiplier] is
   the window's one draw, 0.0 for a window that does not stall. *)
let stall_multiplier t c ~window =
  let rng = draw t ~window ~salt:salt_channel in
  if Prng.chance rng c.stall_chance then
    1.0 +. Prng.float rng (c.max_multiplier -. 1.0)
  else 0.0

let stretch base m =
  if m > 0.0 then Int.max base (int_of_float (Float.ceil (float_of_int base *. m)))
  else base

let perturb_load_duration t ~at base =
  match t.channel with
  | None -> base
  | Some c -> stretch base (stall_multiplier t c ~window:(at / c.jitter_period))

(* EPC frames left to this enclave once the co-tenant has taken its
   time-varying slice.  Always at least one frame — an enclave with zero
   EPC cannot make progress, and neither can a real one. *)
let epc_budget t ~at ~capacity =
  match t.co_tenant with
  | None -> capacity
  | Some c ->
    let rng = draw t ~window:(at / c.steal_period) ~salt:salt_tenant in
    let stolen =
      int_of_float (Prng.float rng c.max_steal *. float_of_int capacity)
    in
    max 1 (capacity - stolen)

(* The samplers answer the two hooks above per load and per sync, where
   a fresh [Prng] per call would be the whole cost of a resident access
   under a co-tenant.  Each caches its current window's draw and redraws
   only when the window (or, for the budget, the capacity) changes, so a
   call in a known window allocates nothing.  Per instance: nothing is
   shared between the enclaves that install them. *)
type budget_cache = {
  mutable b_window : int;
  mutable b_capacity : int;
  mutable b_budget : int;
}

let budget_sampler t =
  match t.co_tenant with
  | None -> None
  | Some c ->
    let s = { b_window = min_int; b_capacity = -1; b_budget = 0 } in
    Some
      (fun ~at capacity ->
        let w = at / c.steal_period in
        if w <> s.b_window || capacity <> s.b_capacity then begin
          s.b_window <- w;
          s.b_capacity <- capacity;
          s.b_budget <- epc_budget t ~at ~capacity
        end;
        s.b_budget)

let jitter_sampler t =
  match t.channel with
  | None -> None
  | Some c ->
    let window = ref min_int and m = ref 0.0 in
    Some
      (fun ~at base ->
        let w = at / c.jitter_period in
        if w <> !window then begin
          window := w;
          m := stall_multiplier t c ~window:w
        end;
        stretch base !m)

(* Corrupted / truncated trace input.  Event [i]'s draw is keyed by its
   index, so the returned Seq is re-entrant exactly like [Trace.events]:
   forcing it twice yields identical streams. *)
let corrupt_vpage t f ~elrange_pages i vpage =
  if f.corrupt_chance <= 0.0 then vpage
  else
    let rng = draw t ~window:i ~salt:salt_trace in
    if Prng.chance rng f.corrupt_chance then Prng.int rng elrange_pages
    else vpage

let perturb_trace t ~elrange_pages (seq : Access.t Seq.t) : Access.t Seq.t =
  match t.trace with
  | None -> seq
  | Some f ->
    let corrupt i (a : Access.t) =
      let vpage = corrupt_vpage t f ~elrange_pages i a.vpage in
      if vpage = a.vpage then a else { a with vpage }
    in
    let indexed = Seq.mapi corrupt seq in
    (match f.truncate_after with
    | None -> indexed
    | Some n -> Seq.take n indexed)

(* The same stream as [perturb_trace], compiled once per (base arena,
   plan trace fault, ELRANGE) into a derived arena that replays like any
   other.  The tag names everything the draws depend on. *)
let perturb_arena t ~elrange_pages arena =
  match t.trace with
  | None -> arena
  | Some f ->
    let tag =
      Printf.sprintf "perturb:%d:%h:%s:%d" t.seed f.corrupt_chance
        (match f.truncate_after with None -> "-" | Some n -> string_of_int n)
        elrange_pages
    in
    Workload.Trace_arena.derive arena ~tag
      ~length:(Option.value f.truncate_after ~default:max_int)
      ~vpage:(corrupt_vpage t f ~elrange_pages)

(* A stale SIP plan: the profile came from a mismatched build, so the
   site ids no longer line up with the running binary.  Modelled by
   permuting which sites carry the instrumentation decisions — the plan
   keeps its size and thresholds but points at the wrong code. *)
let scramble_plan t (plan : Sip_instrumenter.plan) =
  if not t.stale_sip_plan then plan
  else begin
    let decisions = Array.of_list plan.Sip_instrumenter.decisions in
    let sites =
      Array.map (fun d -> d.Sip_instrumenter.site) decisions
    in
    let rng = draw t ~window:0 ~salt:salt_plan in
    Prng.shuffle rng sites;
    let scrambled =
      Array.mapi
        (fun i (d : Sip_instrumenter.decision) -> { d with site = sites.(i) })
        decisions
    in
    Array.sort
      (fun (a : Sip_instrumenter.decision) b -> compare a.site b.site)
      scrambled;
    { plan with Sip_instrumenter.decisions = Array.to_list scrambled }
  end

(* ------------------------------------------------------------------ *)
(* The named bank                                                      *)
(* ------------------------------------------------------------------ *)

let bank_seed = 42

let jittery_channel =
  validate
    {
      name = "jittery-channel";
      seed = bank_seed;
      channel =
        Some
          { jitter_period = 500_000; stall_chance = 0.35; max_multiplier = 6.0 };
      co_tenant = None;
      trace = None;
      stale_sip_plan = false;
      crash = None;
    }

let noisy_neighbor =
  validate
    {
      name = "noisy-neighbor";
      seed = bank_seed;
      channel = None;
      co_tenant = Some { steal_period = 2_000_000; max_steal = 0.5 };
      trace = None;
      stale_sip_plan = false;
      crash = None;
    }

let garbled_trace =
  validate
    {
      name = "garbled-trace";
      seed = bank_seed;
      channel = None;
      co_tenant = None;
      trace = Some { corrupt_chance = 0.02; truncate_after = None };
      stale_sip_plan = false;
      crash = None;
    }

let stale_profile =
  validate
    {
      name = "stale-profile";
      seed = bank_seed;
      channel = None;
      co_tenant = None;
      trace = None;
      stale_sip_plan = true;
      crash = None;
    }

let perfect_storm =
  validate
    {
      name = "perfect-storm";
      seed = bank_seed;
      channel =
        Some
          { jitter_period = 500_000; stall_chance = 0.25; max_multiplier = 4.0 };
      co_tenant = Some { steal_period = 2_000_000; max_steal = 0.35 };
      trace = Some { corrupt_chance = 0.01; truncate_after = None };
      stale_sip_plan = true;
      crash = None;
    }

(* Crash plans.  [crashy-fleet] is tuned for fleet replays: frequent
   enough crashes that a multi-enclave run loses residency several times
   per member.  [flaky-service] pairs rarer crashes with channel jitter —
   the degraded-but-alive regime where retries, hedging and the breaker
   earn their keep. *)
let crashy_fleet =
  validate
    {
      name = "crashy-fleet";
      seed = bank_seed;
      channel = None;
      co_tenant = None;
      trace = None;
      stale_sip_plan = false;
      crash =
        Some
          {
            crash_period = 5_000_000;
            crash_chance = 0.08;
            restart_delay = 1_000_000;
          };
    }

let flaky_service =
  validate
    {
      name = "flaky-service";
      seed = bank_seed;
      channel =
        Some
          { jitter_period = 500_000; stall_chance = 0.20; max_multiplier = 4.0 };
      co_tenant = None;
      trace = None;
      stale_sip_plan = false;
      crash =
        Some
          {
            crash_period = 20_000_000;
            crash_chance = 0.04;
            restart_delay = 2_000_000;
          };
    }

let bank =
  [
    jittery_channel;
    noisy_neighbor;
    garbled_trace;
    stale_profile;
    perfect_storm;
    crashy_fleet;
    flaky_service;
  ]

let find name =
  if name = none.name then Some none
  else List.find_opt (fun p -> p.name = name) bank

let names () = List.map (fun p -> p.name) bank

let describe t =
  if is_fault_free t then "no faults"
  else
    String.concat "; "
      (List.filter_map Fun.id
         [
           Option.map
             (fun c ->
               Printf.sprintf
                 "channel jitter (period %d, stall %.0f%%, up to %.1fx)"
                 c.jitter_period (100.0 *. c.stall_chance) c.max_multiplier)
             t.channel;
           Option.map
             (fun c ->
               Printf.sprintf "co-tenant steals up to %.0f%% EPC every %d"
                 (100.0 *. c.max_steal) c.steal_period)
             t.co_tenant;
           Option.map
             (fun f ->
               Printf.sprintf "trace corruption %.1f%%%s"
                 (100.0 *. f.corrupt_chance)
                 (match f.truncate_after with
                 | None -> ""
                 | Some n -> Printf.sprintf ", truncated at %d" n))
             t.trace;
           (if t.stale_sip_plan then Some "stale SIP plan" else None);
           Option.map
             (fun c ->
               Printf.sprintf
                 "crashes (%.0f%% per %d window, restart %d)"
                 (100.0 *. c.crash_chance) c.crash_period c.restart_delay)
             t.crash;
         ])
