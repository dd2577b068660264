module Enclave = Sgxsim.Enclave
module Clock_evictor = Sgxsim.Clock_evictor
module Cost_model = Sgxsim.Cost_model
module Metrics = Sgxsim.Metrics
module Arbiter = Sgxsim.Load_channel.Arbiter
module Trace = Workload.Trace
module Trace_arena = Workload.Trace_arena
module Scheme = Preload.Scheme
module Table = Repro_util.Table

type epc_mode = Shared | Partitioned

let mode_name = function Shared -> "shared" | Partitioned -> "partitioned"

let mode_of_string = function
  | "shared" -> Some Shared
  | "partitioned" | "partition" -> Some Partitioned
  | _ -> None

type tenant = {
  label : string;
  trace : Trace.t;
  scheme : Scheme.t;
  priority : int;
}

let tenant ?(priority = 1) ~label ~scheme trace =
  if priority < 0 then invalid_arg "Fleet.tenant: negative priority";
  { label; trace; scheme; priority }

type config = {
  epc_pages : int;
  costs : Cost_model.t;
  log_capacity : int;
  policy : Arbiter.policy;
  mode : epc_mode;
}

let default_config =
  {
    epc_pages = 2048;
    costs = Cost_model.paper;
    log_capacity = 0;
    policy = Arbiter.Fifo;
    mode = Shared;
  }

type outcome = {
  mode : epc_mode;
  policy : Arbiter.policy;
  epc_pages : int;
  fault_plan : string;
  labels : string list;
  results : Runner.result list;  (** Tenant order. *)
  shared_pool : bool array;
  interference : int array array;  (** [interference.(victim).(aggressor)] *)
  triggered : int array;
  channel_waits : int array;
  channel_contentions : int;
}

(* One tenant's position in the interleaved replay: its runner instance
   plus a cursor over its arena — the plan-perturbed derivation when the
   plan corrupts or truncates the stream, whose index-keyed draws make it
   exactly what the tenant's solo run replays. *)
type feed = {
  inst : Runner.instance;
  spec : Runner.Spec.t;
      (* Per-tenant: a partitioned pool gives each tenant its own EPC
         size, so each carries the spec it was built under into
         [finalize]. *)
  arena : Trace_arena.t;
  len : int;
  mutable idx : int;
}

let partition_capacity ~epc_pages ~n i =
  (* Static split: cap/n frames each, the first (cap mod n) tenants take
     the remainder one frame apiece; never below one frame.  A partition
     of one tenant is the whole pool, which is what makes
     partition-of-1 coincide with shared-of-1 (and with Runner.run). *)
  max 1 ((epc_pages / n) + if i < epc_pages mod n then 1 else 0)

let run ?(config = default_config) ?(fault_plan = Fault_plan.none)
    ?(input_label = "") ?online tenants =
  let tenants = Array.of_list tenants in
  let n = Array.length tenants in
  if n = 0 then invalid_arg "Fleet.run: empty fleet";
  if n - 1 > 0xFFFE then invalid_arg "Fleet.run: too many tenants";
  let pool =
    match config.mode with
    | Shared -> Some (Clock_evictor.create ~capacity:config.epc_pages)
    | Partitioned -> None
  in
  let feeds =
    Array.mapi
      (fun i t ->
        let epc_pages =
          match config.mode with
          | Shared -> config.epc_pages
          | Partitioned -> partition_capacity ~epc_pages:config.epc_pages ~n i
        in
        let spec =
          Runner.Spec.make
            ~config:
              {
                Runner.epc_pages;
                costs = config.costs;
                log_capacity = config.log_capacity;
              }
            ~fault_plan ~input_label ?online ()
        in
        let inst =
          Runner.make_instance ?epc:pool ~owner:i ~spec ~trace:t.trace t.scheme
        in
        let arena =
          Fault_plan.perturb_arena fault_plan
            ~elrange_pages:t.trace.Trace.elrange_pages
            (Trace_arena.compile t.trace)
        in
        { inst; spec; arena; len = Trace_arena.length arena; idx = 0 })
      tenants
  in
  let enclaves = Array.map (fun f -> f.inst.Runner.enclave) feeds in
  (* Wire the co-tenancy: the shared pool's sweeps need every tenant's
     page table reachable by owner tag.  (Partitioned pools are private;
     nothing to link.) *)
  if config.mode = Shared then Enclave.link_fleet enclaves;
  let interference = Array.make_matrix n n 0 in
  let triggered = Array.make n 0 in
  Array.iter
    (fun e ->
      Enclave.set_on_evict e (fun ~aggressor ~victim ~vpage:_ ->
          interference.(victim).(aggressor) <-
            interference.(victim).(aggressor) + 1;
          triggered.(aggressor) <- triggered.(aggressor) + 1))
    enclaves;
  (* One paging channel arbiter across the fleet (the EPC partitioning
     knob does not split the bus).  Chained after the plan's jitter
     sampler, one per tenant: first the plan stretches the load, then
     contention queues it.  For a single tenant the arbiter is the
     identity — its own channel already serialises loads, so every
     request arrives at or after [free_at] and waits zero — which is
     what keeps a fleet of one byte-identical to [Runner.run]. *)
  let arb =
    Arbiter.create
      ~priorities:(Array.map (fun t -> t.priority) tenants)
      ~policy:config.policy n
  in
  Array.iteri
    (fun i f ->
      match f.inst.Runner.i_scheme with
      | Scheme.Native -> ()
      | _ ->
        Enclave.set_load_perturb f.inst.Runner.enclave
          (match Fault_plan.jitter_sampler fault_plan with
          | None -> fun ~at base -> Arbiter.request arb ~owner:i ~at base
          | Some jitter ->
            fun ~at base -> Arbiter.request arb ~owner:i ~at (jitter ~at base)))
    feeds;
  (* Interleave by virtual time: always advance the tenant whose private
     clock is furthest behind (ties broken by lowest index), one trace
     event at a time.  This is the fleet's co-tenancy schedule — the
     shared pool and arbiter see accesses in global time order — and for
     a fleet of one it degenerates to the plain in-order replay. *)
  let live = ref n in
  Array.iter (fun f -> if f.len = 0 then decr live) feeds;
  while !live > 0 do
    let best = ref (-1) in
    for i = n - 1 downto 0 do
      let f = feeds.(i) in
      if
        f.idx < f.len
        && (!best < 0
           || f.inst.Runner.now <= feeds.(!best).inst.Runner.now)
      then best := i
    done;
    let f = feeds.(!best) in
    Runner.step f.inst
      ~site:(Trace_arena.site f.arena f.idx)
      ~vpage:(Trace_arena.vpage f.arena f.idx)
      ~compute:(Trace_arena.compute f.arena f.idx)
      ~thread:(Trace_arena.thread f.arena f.idx);
    f.idx <- f.idx + 1;
    if f.idx >= f.len then decr live
  done;
  let results =
    Array.to_list
      (Array.mapi
         (fun i f ->
           Runner.finalize ~spec:f.spec ~trace:tenants.(i).trace f.inst)
         feeds)
  in
  let shared_pool =
    Array.map
      (fun f ->
        config.mode = Shared
        &&
        match f.inst.Runner.i_scheme with Scheme.Native -> false | _ -> true)
      feeds
  in
  {
    mode = config.mode;
    policy = config.policy;
    epc_pages = config.epc_pages;
    fault_plan = fault_plan.Fault_plan.name;
    labels = Array.to_list (Array.map (fun t -> t.label) tenants);
    results;
    shared_pool;
    interference;
    triggered;
    channel_waits = Array.init n (fun i -> Arbiter.wait_of arb i);
    channel_contentions = Arbiter.contentions arb;
  }

let check outcome =
  Validate.check_fleet ~epc_pages:outcome.epc_pages
    ~shared:outcome.shared_pool ~interference:outcome.interference
    ~triggered:outcome.triggered outcome.results

let assert_valid outcome =
  match check outcome with
  | [] -> ()
  | violations -> raise (Validate.Invalid violations)

(* ------------------------------------------------------------------ *)
(* The scheme x mode matrix                                            *)
(* ------------------------------------------------------------------ *)

type cell = { c_tag : string; c_mode : epc_mode; c_outcome : outcome }

let matrix ?(config = default_config) ?(fault_plan = Fault_plan.none)
    ?(input_label = "") ~scheme_for ~tags ~modes tenants =
  if tenants = [] then invalid_arg "Fleet.matrix: empty fleet";
  (* Compile the tenants' traces before the cells fork, so the workers
     inherit the arenas instead of each compiling its own. *)
  List.iter (fun t -> ignore (Trace_arena.compile t.trace)) tenants;
  List.concat_map
    (fun tag ->
      List.map
        (fun mode ->
          Job_pool.job
            ~label:(Printf.sprintf "fleet/%s/%s" tag (mode_name mode))
            (fun () ->
              let fleet =
                List.map (fun t -> { t with scheme = scheme_for tag t.label })
                  tenants
              in
              let outcome =
                run ~config:{ config with mode } ~fault_plan ~input_label fleet
              in
              assert_valid outcome;
              { c_tag = tag; c_mode = mode; c_outcome = outcome }))
        modes)
    tags

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let interference_table ~labels m =
  let t =
    Table.create
      ~headers:
        (("victim \\ aggressor", Table.Left)
        :: List.map (fun l -> (l, Table.Right)) labels
        @ [ ("evicted total", Table.Right) ])
  in
  List.iteri
    (fun v label ->
      let row = m.(v) in
      Table.add_row t
        (label
        :: (Array.to_list (Array.map Table.cell_int row)
           @ [ Table.cell_int (Array.fold_left ( + ) 0 row) ])))
    labels;
  t

let summary_lines outcome =
  List.map2
    (fun label r -> Printf.sprintf "%-12s %s" label (Report.summary r))
    outcome.labels outcome.results

let print_outcome outcome =
  Printf.printf "fleet: %d tenant(s), %s EPC (%d pages), %s channel, plan %s\n"
    (List.length outcome.labels)
    (mode_name outcome.mode)
    outcome.epc_pages
    (Arbiter.policy_name outcome.policy)
    outcome.fault_plan;
  List.iter print_endline (summary_lines outcome);
  let t =
    Table.create
      ~headers:
        [
          ("tenant", Table.Left); ("cycles", Table.Right);
          ("faults", Table.Right); ("fault rate", Table.Right);
          ("evictions", Table.Right); ("evicted by others", Table.Right);
          ("channel wait", Table.Right);
        ]
  in
  List.iteri
    (fun i (r : Runner.result) ->
      let m = r.Runner.metrics in
      let faults = Metrics.total_faults m in
      let row = outcome.interference.(i) in
      let by_others =
        Array.fold_left ( + ) 0 row - row.(i)
      in
      Table.add_row t
        [
          List.nth outcome.labels i;
          Table.cell_int r.Runner.cycles;
          Table.cell_int faults;
          Table.cell_pct
            (if m.Metrics.accesses = 0 then 0.0
             else float_of_int faults /. float_of_int m.Metrics.accesses);
          Table.cell_int m.Metrics.evictions;
          Table.cell_int by_others;
          Table.cell_int outcome.channel_waits.(i);
        ])
    outcome.results;
  Table.print t;
  Printf.printf "\ninterference (evictions of victim's pages by aggressor):\n";
  Table.print (interference_table ~labels:outcome.labels outcome.interference);
  Printf.printf "\nchannel contentions: %d\n" outcome.channel_contentions

let print_cells cells =
  List.iter
    (fun c ->
      Printf.printf "### scheme %s, %s EPC\n\n" c.c_tag (mode_name c.c_mode);
      print_outcome c.c_outcome;
      print_newline ())
    cells;
  (* The partition-vs-share comparison the matrix exists for: per scheme,
     total fleet cycles under each mode. *)
  let tags =
    List.sort_uniq compare (List.map (fun c -> c.c_tag) cells)
  in
  let modes =
    List.sort_uniq compare (List.map (fun c -> c.c_mode) cells)
  in
  if List.length modes > 1 then begin
    let t =
      Table.create
        ~headers:
          (("scheme", Table.Left)
          :: List.map
               (fun m -> ("Σ cycles (" ^ mode_name m ^ ")", Table.Right))
               modes
          @ [ ("share vs partition", Table.Right) ])
    in
    List.iter
      (fun tag ->
        let total mode =
          List.fold_left
            (fun acc c ->
              if c.c_tag = tag && c.c_mode = mode then
                List.fold_left
                  (fun a (r : Runner.result) -> a + r.Runner.cycles)
                  acc c.c_outcome.results
              else acc)
            0 cells
        in
        let totals = List.map total modes in
        let ratio =
          match (total Shared, total Partitioned) with
          | s, p when p > 0 -> Printf.sprintf "%.3fx" (float_of_int s /. float_of_int p)
          | _ -> "-"
        in
        Table.add_row t
          (tag :: (List.map Table.cell_int totals @ [ ratio ])))
      tags;
    print_string "### partition vs share (total fleet cycles)\n\n";
    Table.print t
  end
