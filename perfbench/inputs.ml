(* The benchmark's generated inputs: every trace, compiled arena, SIP
   plan, fault plan and arrival seed a workload replays, all derived from
   the one [--seed].  Building them is the set-up the [setup_s] metric
   times; the timed region only replays. *)

module Trace = Workload.Trace
module Input = Workload.Input
module Pattern = Workload.Pattern
module Trace_arena = Workload.Trace_arena
module Fault_plan = Sim.Fault_plan
module Profiler = Preload.Sip_profiler
module Instrumenter = Preload.Sip_instrumenter

(* The seed whose simulated outputs are recorded in [recorded.txt].  At
   this seed every input is exactly the library's own default (the
   models' base seeds, the fault bank's seed, the service's arrival
   seed), so the default-seed figures are the ones the CLI reproduces. *)
let default_seed = 1

(* Mix the workload seed into a base seed: the identity at
   [default_seed], a distinct generator stream for any other seed
   (Prng seeds through SplitMix, so neighbouring seeds are unrelated). *)
let reseed ~seed base = base + ((seed - default_seed) * 1_000_003)

let reseed_trace ~seed (t : Trace.t) =
  Trace.make ~name:t.Trace.name ~elrange_pages:t.Trace.elrange_pages
    ~footprint_pages:t.Trace.footprint_pages
    ~seed:(reseed ~seed t.Trace.seed)
    ~sites:t.Trace.sites t.Trace.pattern

(* ------------------------------------------------------------------ *)
(* Sizes                                                              *)
(* ------------------------------------------------------------------ *)

type queue_stress_size = {
  q_events : int;
  q_epc : int;
  q_threads : int;
  q_streams : int;  (** Sequential streams per thread. *)
}

type size = {
  size_name : string;
  queue : queue_stress_size;
  mix_epc : int;
  mix_models : string list;
  tenancy_epc : int;
  tenants : string list;
  service_model : string;
  pools : int list;
  requests : int;
  request_events : int;
}

(* The benchmark proper.  queue-stress has the shape of
   [Sim.Macro_bench.full] (32 threads x 30 streams, EPC 2048) at 30% of
   its length, so one run holds a dozen replays of every scheme; the
   footprint is still ~150x the EPC.  paper-mix and tenancy use the
   [experiment --quick] EPC, at which the models sit at the footprint:EPC
   ratios README.md lists. *)
let full =
  {
    size_name = "full";
    queue = { q_events = 300_000; q_epc = 2048; q_threads = 32; q_streams = 30 };
    mix_epc = 1024;
    mix_models =
      [ "cactuBSSN"; "omnetpp"; "lbm"; "xz"; "mcf"; "bwaves"; "deepsjeng";
        "mixed-blood" ];
    tenancy_epc = 1024;
    tenants = [ "deepsjeng"; "lbm"; "mcf"; "xz" ];
    service_model = "deepsjeng";
    pools = [ 1; 4; 16 ];
    requests = 400;
    request_events = 400;
  }

(* A seconds-long version of every workload for the benchmark's own
   tests: same cells, smaller traces and EPCs (deepsjeng's length does
   not scale with the EPC, so it is swapped out). *)
let tiny =
  {
    size_name = "tiny";
    queue = { q_events = 20_000; q_epc = 256; q_threads = 4; q_streams = 8 };
    mix_epc = 64;
    mix_models = [ "cactuBSSN"; "lbm"; "mixed-blood" ];
    tenancy_epc = 64;
    tenants = [ "lbm"; "xz" ];
    service_model = "xz";
    pools = [ 1; 4; 16 ];
    requests = 40;
    request_events = 50;
  }

let size_of_string = function
  | "full" -> Some full
  | "tiny" -> Some tiny
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Generators                                                         *)
(* ------------------------------------------------------------------ *)

(* The queue-stress trace, built here from [Workload.Pattern] rather
   than taken from [Sim.Macro_bench]: each thread advances [q_streams]
   sequential streams, one access per fresh page, with compute gaps too
   short to drain the load channel, so every access faults and DFP's
   preload queue stays hundreds deep. *)
let queue_stress_trace ~seed q =
  let streams = q.q_threads * q.q_streams in
  let pages = (q.q_events / streams) + 1 in
  let footprint = streams * pages in
  let thread_pattern t =
    Pattern.multi_stream ~site:t
      ~streams:
        (List.init q.q_streams (fun i -> (((t * q.q_streams) + i) * pages, pages)))
      ~events_per_page:1 ~compute:2_000 ~jitter:0.1
  in
  Trace.make ~name:"queue-stress" ~elrange_pages:footprint
    ~footprint_pages:footprint ~seed:(reseed ~seed 4242)
    ~sites:(List.init q.q_threads (fun t -> (t, Printf.sprintf "thread%d" t)))
    (Pattern.take q.q_events
       (Pattern.parallel
          (List.init q.q_threads (fun t -> (t, thread_pattern t)))))

let model name =
  match Workload.Spec.by_name name with
  | Some m -> m
  | None -> (
    match Workload.Vision.by_name name with
    | Some m -> m
    | None -> invalid_arg ("perfbench: unknown model " ^ name))

let model_trace ~seed ~epc ~input name =
  reseed_trace ~seed ((model name) ~epc_pages:epc ~input)

let ref_input = Input.Ref 0

let fault_plan ~seed plan =
  Fault_plan.with_seed plan (reseed ~seed Fault_plan.bank_seed)

let service_seed ~seed = reseed ~seed Sim.Service.default_config.Sim.Service.seed

(* ------------------------------------------------------------------ *)
(* Set-up                                                             *)
(* ------------------------------------------------------------------ *)

(* Set-up steps report through these hooks so the traced run can span
   each compile and each plan build; the untraced set-up passes no-ops. *)
type hooks = {
  compile : Trace.t -> Trace_arena.t;
  plan : (unit -> Instrumenter.plan) -> Instrumenter.plan;
}

let plain_hooks = { compile = Trace_arena.compile; plan = (fun f -> f ()) }

type mix_entry = { m_name : string; m_trace : Trace.t; m_plan : Instrumenter.plan }

type t =
  | Queue_stress of { q_trace : Trace.t; q_epc : int }
  | Paper_mix of { entries : mix_entry list; epc : int }
  | Tenancy of {
      tenant_traces : (string * Trace.t) list;
      service_trace : Trace.t;
      epc : int;
    }

(* SIP plans are profiled from each model's train input, as [experiment]
   does ([Experiments.plan_for]); the train trace is compiled first so
   the plan step measures profiling alone. *)
let build_plan hooks ~seed ~epc name =
  let train = model_trace ~seed ~epc ~input:Input.Train name in
  ignore (hooks.compile train);
  hooks.plan (fun () ->
      Instrumenter.plan_of_profile
        (Profiler.profile ~input:(Input.to_string Input.Train)
           (Profiler.default_config ~residency_pages:epc)
           train))

let build ?(hooks = plain_hooks) ~size ~seed workload =
  match workload with
  | "queue-stress" ->
    let q_trace = queue_stress_trace ~seed size.queue in
    ignore (hooks.compile q_trace);
    Queue_stress { q_trace; q_epc = size.queue.q_epc }
  | "paper-mix" ->
    let epc = size.mix_epc in
    let entries =
      List.map
        (fun name ->
          let m_trace = model_trace ~seed ~epc ~input:ref_input name in
          ignore (hooks.compile m_trace);
          { m_name = name; m_trace; m_plan = build_plan hooks ~seed ~epc name })
        size.mix_models
    in
    Paper_mix { entries; epc }
  | "tenancy" ->
    let epc = size.tenancy_epc in
    let trace name =
      let t = model_trace ~seed ~epc ~input:ref_input name in
      ignore (hooks.compile t);
      t
    in
    let tenant_traces = List.map (fun n -> (n, trace n)) size.tenants in
    let service_trace =
      match List.assoc_opt size.service_model tenant_traces with
      | Some t -> t
      | None -> trace size.service_model
    in
    Tenancy { tenant_traces; service_trace; epc }
  | w -> invalid_arg ("perfbench: unknown workload " ^ w)

let workloads = [ "queue-stress"; "paper-mix"; "tenancy" ]
