(* The traced run's recorder.  Spans are opened and closed around calls
   into the libraries (a replay, instance set-up, each [Runner.step], the
   DFP fault hook, [Online.observe], ...), carrying the event index as
   the shared id.  Per-layer aggregates (count, total, self time, minor
   words) are kept for every span; a bounded, evenly decimated sample of
   the spans themselves stays in memory and is written out at the end.
   Nothing here allocates per span, so tracing perturbs the allocation
   figures it reports only through its own timing calls. *)

module Enclave = Sgxsim.Enclave
module Metrics = Sgxsim.Metrics
module Runner = Sim.Runner
module Trace_arena = Workload.Trace_arena

let names =
  [|
    "bench.replay";
    "workload.trace_arena.compile";
    "workload.trace_arena.decode";
    "preload.sip.plan";
    "sim.runner.make_instance";
    "sim.runner.step";
    "sim.runner.finalize";
    "preload.dfp.on_fault";
    "preload.online.observe";
    "sgxsim.enclave.access";
    "sim.fleet.run";
    "sim.service.run";
    "sim.fault_plan.perturb_trace";
  |]

let replay = 0
let compile = 1
let decode = 2
let plan = 3
let make_instance = 4
let step = 5
let finalize = 6
let dfp_on_fault = 7
let observe = 8
let access = 9
let fleet_run = 10
let service_run = 11
let perturb = 12

(* Steps of one class, split by the counter deltas the step caused. *)
type cls = { mutable n : int; mutable ns : int; mutable words : int }

let cls () = { n = 0; ns = 0; words = 0 }

let add (c : cls) ns words =
  c.n <- c.n + 1;
  c.ns <- c.ns + ns;
  c.words <- c.words + words

let max_depth = 16
let sample_capacity = 16_384

(* Step durations: exact 1 ns buckets below [linear_ns], one bucket per
   power of two above. *)
let linear_ns = 1 lsl 16

type t = {
  (* aggregates, indexed by span name *)
  count : int array;
  total_ns : int array;
  self_ns : int array;
  total_words : int array;
  self_words : int array;
  (* open-span stack *)
  mutable depth : int;
  st_name : int array;
  st_start : int array;
  st_words : int array;
  st_child_ns : int array;
  st_child_words : int array;
  st_id : int array;
  mutable last_ns : int;  (** Duration of the span closed last. *)
  mutable last_words : int;
  (* decimated span sample *)
  mutable seen : int;
  mutable stride : int;
  mutable kept : int;
  s_name : int array;
  s_start : int array;
  s_stop : int array;
  s_parent : int array;
  s_parent_start : int array;
  s_id : int array;
  (* step classes *)
  hit : cls;
  fault_self : cls;
  sip : cls;
  scan : cls;
  step_hist : int array;
  (* the DFP fault hook *)
  hook : cls;
  mutable queue_sum : int;
  mutable queue_max : int;
  mutable event : int;  (** Index of the event being replayed. *)
}

let create () =
  let n = Array.length names in
  let z () = Array.make n 0 in
  let d () = Array.make max_depth 0 in
  let s () = Array.make sample_capacity 0 in
  {
    count = z (); total_ns = z (); self_ns = z (); total_words = z ();
    self_words = z ();
    depth = 0; st_name = d (); st_start = d (); st_words = d ();
    st_child_ns = d (); st_child_words = d (); st_id = d ();
    last_ns = 0; last_words = 0;
    seen = 0; stride = 1; kept = 0;
    s_name = s (); s_start = s (); s_stop = s (); s_parent = s ();
    s_parent_start = s (); s_id = s ();
    hit = cls (); fault_self = cls (); sip = cls (); scan = cls ();
    step_hist = Array.make (linear_ns + 64) 0;
    hook = cls (); queue_sum = 0; queue_max = 0; event = -1;
  }

let enter t name ~id =
  let d = t.depth in
  t.st_name.(d) <- name;
  t.st_id.(d) <- id;
  t.st_child_ns.(d) <- 0;
  t.st_child_words.(d) <- 0;
  t.st_words.(d) <- Hostclock.minor_words ();
  t.st_start.(d) <- Hostclock.now_ns ();
  t.depth <- d + 1

(* Keep every [stride]-th span; when the buffer fills, drop every other
   kept span and double the stride, so the sample stays spread over the
   whole run. *)
let sample t ~name ~start ~stop ~parent ~parent_start ~id =
  if t.seen mod t.stride = 0 then begin
    if t.kept = sample_capacity then begin
      let j = ref 0 in
      for i = 0 to sample_capacity - 1 do
        if i mod 2 = 0 then begin
          t.s_name.(!j) <- t.s_name.(i);
          t.s_start.(!j) <- t.s_start.(i);
          t.s_stop.(!j) <- t.s_stop.(i);
          t.s_parent.(!j) <- t.s_parent.(i);
          t.s_parent_start.(!j) <- t.s_parent_start.(i);
          t.s_id.(!j) <- t.s_id.(i);
          incr j
        end
      done;
      t.kept <- !j;
      t.stride <- t.stride * 2
    end;
    if t.seen mod t.stride = 0 then begin
      let k = t.kept in
      t.s_name.(k) <- name;
      t.s_start.(k) <- start;
      t.s_stop.(k) <- stop;
      t.s_parent.(k) <- parent;
      t.s_parent_start.(k) <- parent_start;
      t.s_id.(k) <- id;
      t.kept <- k + 1
    end
  end;
  t.seen <- t.seen + 1

let leave t =
  let stop = Hostclock.now_ns () in
  let words = Hostclock.minor_words () in
  let d = t.depth - 1 in
  t.depth <- d;
  let name = t.st_name.(d) in
  let start = t.st_start.(d) in
  let dur = stop - start in
  let w = words - t.st_words.(d) in
  t.count.(name) <- t.count.(name) + 1;
  t.total_ns.(name) <- t.total_ns.(name) + dur;
  t.self_ns.(name) <- t.self_ns.(name) + dur - t.st_child_ns.(d);
  t.total_words.(name) <- t.total_words.(name) + w;
  t.self_words.(name) <- t.self_words.(name) + w - t.st_child_words.(d);
  if d > 0 then begin
    t.st_child_ns.(d - 1) <- t.st_child_ns.(d - 1) + dur;
    t.st_child_words.(d - 1) <- t.st_child_words.(d - 1) + w
  end;
  sample t ~name ~start ~stop
    ~parent:(if d > 0 then t.st_name.(d - 1) else -1)
    ~parent_start:(if d > 0 then t.st_start.(d - 1) else 0)
    ~id:t.st_id.(d);
  t.last_ns <- dur;
  t.last_words <- w

let span t name ~id f =
  enter t name ~id;
  match f () with
  | v ->
    leave t;
    v
  | exception e ->
    leave t;
    raise e

let add_step t ns =
  let b =
    if ns < linear_ns then max ns 0
    else
      let rec log2 x k = if x <= 1 then k else log2 (x lsr 1) (k + 1) in
      linear_ns + log2 (ns / linear_ns) 0
  in
  t.step_hist.(b) <- t.step_hist.(b) + 1

(* Lower edge of the bucket holding the [q]-quantile step. *)
let step_quantile t q =
  let total = Array.fold_left ( + ) 0 t.step_hist in
  if total = 0 then 0.
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
    let rec go b acc =
      let acc = acc + t.step_hist.(b) in
      if acc >= rank || b = Array.length t.step_hist - 1 then b else go (b + 1) acc
    in
    let b = go 0 0 in
    if b < linear_ns then float_of_int b
    else float_of_int (linear_ns lsl (b - linear_ns))
  end

let step_samples t = Array.fold_left ( + ) 0 t.step_hist

(* ------------------------------------------------------------------ *)
(* Traced replay                                                      *)
(* ------------------------------------------------------------------ *)

(* Re-install a DFP instance's fault hook as [Dfp.on_fault] wrapped in a
   span, followed by the fault-latency observer [Runner.make_instance]
   chains after it, so the chain computes exactly what it did before.
   (The gate compares the traced run's digest, which covers the latency
   histograms, with the untraced run's: a drifted copy fails loudly.)
   The queue depth the hook sees on entry is recorded alongside. *)
let wrap_dfp t (inst : Runner.instance) =
  match inst.Runner.dfp with
  | None -> ()
  | Some dfp ->
    let t_eresume = inst.Runner.i_costs.Sgxsim.Cost_model.t_eresume in
    let hist r = List.assoc r inst.Runner.fault_latency_h in
    let h_already = hist Enclave.Already_present in
    let h_waited = hist Enclave.Waited_in_flight in
    let h_demand = hist Enclave.Demand_load in
    Enclave.set_on_fault inst.Runner.enclave (fun enc (ctx : Enclave.fault_ctx) ->
        let q = Enclave.pending_preload_count enc in
        t.queue_sum <- t.queue_sum + q;
        if q > t.queue_max then t.queue_max <- q;
        enter t dfp_on_fault ~id:t.event;
        Preload.Dfp.on_fault dfp enc ctx;
        leave t;
        add t.hook t.last_ns t.last_words;
        let h =
          match ctx.resolution with
          | Enclave.Already_present -> h_already
          | Enclave.Waited_in_flight -> h_waited
          | Enclave.Demand_load -> h_demand
        in
        Repro_util.Histogram.add h
          (float_of_int (ctx.handled_at - ctx.raised_at + t_eresume)))

(* One solo replay, [make_instance] + a spanned [Runner.step] per event +
   [finalize] — the contract [Runner.run] is built on, so the result must
   equal [Runner.run]'s field for field.  Each step is classified by the
   counters it moved: faulted (its self time excludes the DFP hook),
   hit (neither faulted nor notified), SIP-checked, scanned.

   [Online.observe] is reachable only inside [Runner.step], so an
   instance with the online controller replays through a copy of [step]
   made of the same public calls, spanning the observation and the
   access separately. *)
let replay_solo t ~spec ~scheme trace =
  span t replay ~id:(-1) (fun () ->
      let inst =
        span t make_instance ~id:(-1) (fun () ->
            Runner.make_instance ~spec ~trace scheme)
      in
      if spec.Runner.Spec.online = None && spec.Runner.Spec.breaker = None then
        wrap_dfp t inst;
      let enc = inst.Runner.enclave in
      let m = Enclave.metrics enc in
      t.event <- -1;
      let classify ~access_ns ~access_words ~faults0 ~notifies0 ~checks0
          ~scans0 ~hook_ns0 ~hook_words0 =
        if Metrics.total_faults m > faults0 then
          add t.fault_self
            (access_ns - (t.hook.ns - hook_ns0))
            (access_words - (t.hook.words - hook_words0))
        else if m.Metrics.sip_notifies = notifies0 then add t.hit access_ns access_words;
        if m.Metrics.sip_checks > checks0 then add t.sip access_ns access_words;
        if m.Metrics.scans > scans0 then add t.scan access_ns access_words
      in
      let f =
        match inst.Runner.i_online with
        | None ->
          fun ~site ~vpage ~compute ~thread ->
            t.event <- t.event + 1;
            let faults0 = Metrics.total_faults m in
            let notifies0 = m.Metrics.sip_notifies in
            let checks0 = m.Metrics.sip_checks in
            let scans0 = m.Metrics.scans in
            let hook_ns0 = t.hook.ns and hook_words0 = t.hook.words in
            enter t step ~id:t.event;
            Runner.step inst ~site ~vpage ~compute ~thread;
            leave t;
            add_step t t.last_ns;
            classify ~access_ns:t.last_ns ~access_words:t.last_words ~faults0
              ~notifies0 ~checks0 ~scans0 ~hook_ns0 ~hook_words0
        | Some ctl ->
          fun ~site ~vpage ~compute ~thread ->
            t.event <- t.event + 1;
            let faults0 = Metrics.total_faults m in
            let notifies0 = m.Metrics.sip_notifies in
            let checks0 = m.Metrics.sip_checks in
            let scans0 = m.Metrics.scans in
            let hook_ns0 = t.hook.ns and hook_words0 = t.hook.words in
            enter t step ~id:t.event;
            Runner.check_crash inst;
            enter t observe ~id:t.event;
            Preload.Online.observe ctl ~site ~vpage;
            leave t;
            enter t access ~id:t.event;
            let now = Enclave.compute enc ~now:inst.Runner.now compute in
            inst.Runner.now <-
              (if inst.Runner.sip_site site then
                 Enclave.sip_access ~thread enc ~now vpage
               else Enclave.access ~thread enc ~now vpage);
            leave t;
            let access_ns = t.last_ns and access_words = t.last_words in
            leave t;
            add_step t t.last_ns;
            classify ~access_ns ~access_words ~faults0 ~notifies0 ~checks0
              ~scans0 ~hook_ns0 ~hook_words0
      in
      Trace_arena.iter (Trace_arena.compile trace) ~f;
      span t finalize ~id:(-1) (fun () -> Runner.finalize ~spec ~trace inst))

(* ------------------------------------------------------------------ *)
(* Output                                                             *)
(* ------------------------------------------------------------------ *)

let mean_ns c = if c.n = 0 then 0. else float_of_int c.ns /. float_of_int c.n
let mean_words c = if c.n = 0 then 0. else float_of_int c.words /. float_of_int c.n

let span_ns t name =
  if t.count.(name) = 0 then 0.
  else float_of_int t.total_ns.(name) /. float_of_int t.count.(name)

(* The aggregates and the span sample as one JSON document. *)
let write t ~path ~header =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{%s,\n \"layers\": [\n" header;
      let first = ref true in
      Array.iteri
        (fun i name ->
          if t.count.(i) > 0 then begin
            if not !first then output_string oc ",\n";
            first := false;
            Printf.fprintf oc
              "  {\"name\": %S, \"count\": %d, \"total_ns\": %d, \"self_ns\": \
               %d, \"minor_words\": %d, \"self_minor_words\": %d}"
              name t.count.(i) t.total_ns.(i) t.self_ns.(i) t.total_words.(i)
              t.self_words.(i)
          end)
        names;
      Printf.fprintf oc
        "\n ],\n \"span_sample\": {\"kept\": %d, \"of\": %d, \"every\": %d, \
         \"fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \
         \"parent_start_ns\", \"event\"],\n  \"spans\": [\n"
        t.kept t.seen t.stride;
      for k = 0 to t.kept - 1 do
        Printf.fprintf oc "   [%S, %d, %d, %s, %d, %d]%s\n" names.(t.s_name.(k))
          t.s_start.(k) t.s_stop.(k)
          (if t.s_parent.(k) < 0 then "null"
           else Printf.sprintf "%S" names.(t.s_parent.(k)))
          t.s_parent_start.(k) t.s_id.(k)
          (if k = t.kept - 1 then "" else ",")
      done;
      output_string oc "  ]}\n}\n")
