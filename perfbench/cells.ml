(* The workloads as lists of cells.  A cell is one closed-loop unit of
   work: a call to a run entry point (or a fused pass) whose simulated
   outputs the gate checks, with its untraced form (what the timed region
   replays) and its traced form (what the traced run replays in its
   place).  Each run entry point ([Runner.run], [Runner.run_fused],
   [Fleet.run], [Service.run]) is called from one place below, so a
   change to its signature is a one-line change to the benchmark. *)

module Runner = Sim.Runner
module Fleet = Sim.Fleet
module Service = Sim.Service
module Scheme = Preload.Scheme
module Fault_plan = Sim.Fault_plan

type group =
  | Plain
  | Fleet_run of { storm : bool }
  | Service_run of { pool : int; flaky : bool }
  | Tenant_solo
      (** A fleet tenant replayed alone; traced run only, as the base of
          [sim.fleet.solo_ratio] and of tenancy's per-step split. *)

type cell = {
  label : string;
  group : group;
  requests : int;  (** Requests a service cell dispatches; 0 otherwise. *)
  per_event : bool;  (** Whether the traced form spans every step. *)
  run : unit -> (string * Outputs.t) list;
  traced : Tracer.t -> (string * Outputs.t) list;
}

let spec ?online ?(input_label = "") epc =
  Runner.Spec.make
    ~config:{ Runner.default_config with Runner.epc_pages = epc }
    ~input_label ?online ()

let solo_cell ?(group = Plain) ~label ~spec ~scheme trace =
  {
    label;
    group;
    requests = 0;
    per_event = true;
    run = (fun () -> [ (label, Outputs.Run (Runner.run ~spec ~scheme trace)) ]);
    traced =
      (fun tr ->
        [ (label, Outputs.Run (Tracer.replay_solo tr ~spec ~scheme trace)) ]);
  }

let queue_stress_schemes =
  [
    ("baseline", Scheme.Baseline);
    ("dfp", Scheme.dfp_default);
    ("dfp-stop", Scheme.dfp_stop);
    ("next-line4", Scheme.next_line ~degree:4);
    ("stride4", Scheme.stride ~degree:4);
  ]

let mix_schemes plan =
  [
    ("baseline", Scheme.Baseline);
    ("dfp", Scheme.dfp_default);
    ("dfp-stop", Scheme.dfp_stop);
    ("sip", Scheme.Sip plan);
    ("hybrid", Scheme.Hybrid (Preload.Dfp.with_stop Preload.Dfp.default_config, plan));
  ]

let tenancy_schemes = [ ("baseline", Scheme.Baseline); ("dfp-stop", Scheme.dfp_stop) ]

(* One fused pass of every scheme over a trace, the way [experiment]
   replays a trace at -j1; its traced form replays the schemes one by
   one ([run_fused] is specified to equal that field for field). *)
let fused_cell ~name ~spec schemes trace =
  let label tag = name ^ "/" ^ tag in
  {
    label = name;
    group = Plain;
    requests = 0;
    per_event = true;
    run =
      (fun () ->
        List.map2
          (fun (tag, _) r -> (label tag, Outputs.Run r))
          schemes
          (Runner.run_fused ~spec ~schemes:(List.map snd schemes) trace));
    traced =
      (fun tr ->
        List.map
          (fun (tag, scheme) ->
            (label tag, Outputs.Run (Tracer.replay_solo tr ~spec ~scheme trace)))
          schemes);
  }

(* A call the traced run times as one span: its per-event loop
   lives inside the library. *)
let whole_cell ~label ~group ~requests ~span run =
  {
    label;
    group;
    requests;
    per_event = false;
    run = (fun () -> [ (label, run ()) ]);
    traced = (fun tr -> [ (label, Tracer.span tr span ~id:(-1) run) ]);
  }

let tenancy ~(size : Inputs.size) ~seed ~tenant_traces ~service_trace ~epc =
  let fleet_cell ~tag ~scheme ~plan =
    let tenants =
      List.map (fun (name, trace) -> Fleet.tenant ~label:name ~scheme trace) tenant_traces
    in
    let config = { Fleet.default_config with Fleet.epc_pages = epc } in
    let storm = not (Fault_plan.is_fault_free plan) in
    whole_cell
      ~label:(if storm then "fleet/" ^ tag ^ "/" ^ plan.Fault_plan.name else "fleet/" ^ tag)
      ~group:(Fleet_run { storm }) ~requests:0 ~span:Tracer.fleet_run
      (fun () -> Outputs.Fleet (Fleet.run ~config ~fault_plan:plan tenants))
  in
  let service_cell ~tag ~scheme ~pool ~plan =
    let d = Service.default_config in
    let config =
      {
        d with
        Service.epc_pages = epc;
        pool;
        requests = size.Inputs.requests;
        request_events = size.Inputs.request_events;
        (* Hold offered load per instance (~50% utilisation) across pools. *)
        mean_gap = d.Service.mean_gap * d.Service.pool / pool;
        seed = Inputs.service_seed ~seed;
      }
    in
    let flaky = not (Fault_plan.is_fault_free plan) in
    whole_cell
      ~label:
        (Printf.sprintf "service/pool%d/%s%s" pool tag
           (if flaky then "/" ^ plan.Fault_plan.name else ""))
      ~group:(Service_run { pool; flaky }) ~requests:size.Inputs.requests
      ~span:Tracer.service_run
      (fun () ->
        Outputs.Service (Service.run ~config ~fault_plan:plan ~scheme service_trace))
  in
  let storm = Inputs.fault_plan ~seed Fault_plan.perfect_storm in
  let flaky = Inputs.fault_plan ~seed Fault_plan.flaky_service in
  List.map
    (fun (tag, scheme) -> fleet_cell ~tag ~scheme ~plan:Fault_plan.none)
    tenancy_schemes
  @ [ fleet_cell ~tag:"dfp-stop" ~scheme:Scheme.dfp_stop ~plan:storm ]
  @ List.concat_map
      (fun pool ->
        List.map
          (fun (tag, scheme) -> service_cell ~tag ~scheme ~pool ~plan:Fault_plan.none)
          tenancy_schemes)
      size.Inputs.pools
  @ [ service_cell ~tag:"dfp-stop" ~scheme:Scheme.dfp_stop ~pool:4 ~plan:flaky ]

(* The workload's cells; [traced] adds the cells only the traced run
   replays. *)
let make ~size ~seed ~traced (inputs : Inputs.t) =
  match inputs with
  | Inputs.Queue_stress { q_trace; q_epc } ->
    let spec = spec q_epc in
    List.map
      (fun (tag, scheme) -> solo_cell ~label:tag ~spec ~scheme q_trace)
      queue_stress_schemes
  | Inputs.Paper_mix { entries; epc } ->
    let input_label = Workload.Input.to_string Inputs.ref_input in
    let plain = spec ~input_label epc in
    let online = spec ~online:Preload.Online.default_config ~input_label epc in
    List.concat_map
      (fun (e : Inputs.mix_entry) ->
        [
          fused_cell ~name:e.Inputs.m_name ~spec:plain (mix_schemes e.Inputs.m_plan)
            e.Inputs.m_trace;
          solo_cell ~label:(e.Inputs.m_name ^ "/baseline+online") ~spec:online
            ~scheme:Scheme.Baseline e.Inputs.m_trace;
        ])
      entries
  | Inputs.Tenancy { tenant_traces; service_trace; epc } ->
    let solo =
      if not traced then []
      else
        List.concat_map
          (fun (name, trace) ->
            List.map
              (fun (tag, scheme) ->
                solo_cell ~group:Tenant_solo
                  ~label:(Printf.sprintf "solo/%s/%s" name tag)
                  ~spec:(spec epc) ~scheme trace)
              tenancy_schemes)
          tenant_traces
    in
    tenancy ~size ~seed ~tenant_traces ~service_trace ~epc @ solo

(* Every distinct trace the workload replays. *)
let traces = function
  | Inputs.Queue_stress { q_trace; _ } -> [ q_trace ]
  | Inputs.Paper_mix { entries; _ } -> List.map (fun e -> e.Inputs.m_trace) entries
  | Inputs.Tenancy { tenant_traces; service_trace; _ } ->
    List.map snd tenant_traces
    @ if List.exists (fun (_, t) -> t == service_trace) tenant_traces then []
      else [ service_trace ]
