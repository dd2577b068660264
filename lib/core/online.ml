module Enclave = Sgxsim.Enclave
module Int_table = Repro_util.Int_table
module Page_lru = Repro_util.Page_lru

type mode = Baseline | Dfp | Sip | Hybrid

let mode_name = function
  | Baseline -> "baseline"
  | Dfp -> "dfp"
  | Sip -> "sip"
  | Hybrid -> "hybrid"

let mode_of_string = function
  | "baseline" -> Some Baseline
  | "dfp" -> Some Dfp
  | "sip" -> Some Sip
  | "hybrid" -> Some Hybrid
  | _ -> None

type config = {
  window : int;
  probe : int;
  threshold : float;
  site_min : int;
  dfp_share : float;
  entropy_jump : float;
  pin : mode option;
}

let default_config =
  {
    window = 8;
    probe = 64;
    threshold = Sip_instrumenter.default_threshold;
    site_min = 16;
    dfp_share = 0.10;
    entropy_jump = 1.0;
    pin = None;
  }

let validate c =
  let check cond what =
    if not cond then invalid_arg (Printf.sprintf "Online: %s" what)
  in
  check (c.window > 0) "window must be positive";
  check (c.probe > 0) "probe must be positive";
  check (c.threshold >= 0.0 && c.threshold <= 1.0)
    "threshold must be in [0, 1]";
  check (c.site_min > 0) "site_min must be positive";
  check (c.dfp_share >= 0.0 && c.dfp_share <= 1.0)
    "dfp_share must be in [0, 1]";
  check (c.entropy_jump >= 0.0) "entropy_jump must be non-negative";
  c

(* ------------------------------------------------------------------ *)
(* Grammar                                                             *)
(* ------------------------------------------------------------------ *)

let grammar =
  "online or online:key=value,... with keys window=N, probe=N, \
   threshold=R, pin=baseline|dfp|sip|hybrid"

(* One string -> at most one controller config, total like
   [Scheme.of_string]: bad spellings, malformed values and out-of-range
   parameters all come back as [Error], never an exception. *)
let config_of_string s =
  let ( let* ) = Result.bind in
  let low = String.lowercase_ascii s in
  if low = "online" then Ok default_config
  else if
    not (String.length low > 7 && String.sub low 0 7 = "online:")
  then Error (Printf.sprintf "unknown online controller %S (expected %s)" s grammar)
  else begin
    let body = String.sub low 7 (String.length low - 7) in
    let parse acc field =
      let* c = acc in
      match String.index_opt field '=' with
      | None ->
        Error (Printf.sprintf "online %S: malformed key=value %S" s field)
      | Some i ->
        let k = String.trim (String.sub field 0 i) in
        let v =
          String.trim (String.sub field (i + 1) (String.length field - i - 1))
        in
        let int_field set =
          match int_of_string_opt v with
          | Some n -> Ok (set n)
          | None ->
            Error
              (Printf.sprintf "online %S: malformed value %S for %s" s v k)
        in
        (match k with
        | "window" -> int_field (fun n -> { c with window = n })
        | "probe" -> int_field (fun n -> { c with probe = n })
        | "threshold" -> (
          match float_of_string_opt v with
          | Some r -> Ok { c with threshold = r }
          | None ->
            Error
              (Printf.sprintf "online %S: malformed value %S for %s" s v k))
        | "pin" -> (
          match mode_of_string v with
          | Some m -> Ok { c with pin = Some m }
          | None ->
            Error
              (Printf.sprintf
                 "online %S: pin must be baseline|dfp|sip|hybrid, not %S" s v))
        | _ ->
          Error
            (Printf.sprintf
               "online %S: unknown key %S (window, probe, threshold, pin)" s k))
    in
    let* c =
      List.fold_left parse (Ok default_config) (String.split_on_char ',' body)
    in
    match validate c with
    | c -> Ok c
    | exception Invalid_argument m ->
      (* "Online: window must be positive" -> "window must be positive" *)
      let m =
        let p = "Online: " in
        let pl = String.length p in
        if String.length m > pl && String.sub m 0 pl = p then
          String.sub m pl (String.length m - pl)
        else m
      in
      Error (Printf.sprintf "online %S: %s" s m)
  end

let config_name c =
  let d = default_config in
  let kv =
    (if c.window <> d.window then [ Printf.sprintf "window=%d" c.window ]
     else [])
    @ (if c.probe <> d.probe then [ Printf.sprintf "probe=%d" c.probe ]
       else [])
    @ (if c.threshold <> d.threshold then
         [ Printf.sprintf "threshold=%g" c.threshold ]
       else [])
    @
    match c.pin with
    | Some m -> [ Printf.sprintf "pin=%s" (mode_name m) ]
    | None -> []
  in
  if kv = [] then "online" else "online:" ^ String.concat "," kv

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type transition = {
  at : int;
  from_mode : mode;
  to_mode : mode;
  miss_share : float;
  entropy : float;
}

type label_change = { lc_at : int; lc_site : int; lc_instrument : bool }

type site_stat = {
  (* Phase-local classification counts: reset when the phase detector
     fires, so labels re-derive from post-shift behaviour only. *)
  mutable p_c1 : int;
  mutable p_c2 : int;
  mutable p_c3 : int;
  (* Lifetime totals: never reset; the label-conservation invariant sums
     them against [observed]. *)
  mutable l_c1 : int;
  mutable l_c2 : int;
  mutable l_c3 : int;
  (* Accesses in the current tumbling window (the entropy input). *)
  mutable w_count : int;
  (* The site's label: whether its accesses take the SIP path. *)
  mutable instrument : bool;
}

let new_site_stat () =
  { p_c1 = 0; p_c2 = 0; p_c3 = 0; l_c1 = 0; l_c2 = 0; l_c3 = 0; w_count = 0;
    instrument = false }

type t = {
  config : config;
  can_dfp : bool;
  can_sip : bool;
  predictor : Stream_predictor.t;
  residency : Page_lru.t;
  dfp : Dfp.t option;
  (* Every site seen so far; the dummy (never mutated, never
     instrumented) answers for the rest. *)
  sites : site_stat Int_table.t;
  mutable instrumented : int; (* sites whose label is on *)
  mutable mode : mode;
  mutable observed : int;
  (* Tumbling window of [config.window] scans, mirroring the breaker's
     clock: every label and mode decision happens at a scan timestamp. *)
  mutable w_scans : int;
  mutable w_total : int;
  mutable w_c1 : int;
  mutable w_c2 : int;
  mutable w_c3 : int;
  mutable prev_entropy : float option;
  mutable phase_shifts : int;
  mutable transitions_rev : transition list;
  mutable label_changes_rev : label_change list;
}

let create ?(config = default_config) ~residency_pages ~elrange_pages
    ?(can_dfp = true) ?(can_sip = true) () =
  let config = validate config in
  let dfp_config = Dfp.default_config in
  {
    config;
    can_dfp;
    can_sip;
    predictor =
      Stream_predictor.create
        ~stream_list_length:dfp_config.Dfp.stream_list_length
        ~load_length:dfp_config.Dfp.load_length ();
    residency =
      Page_lru.create ~capacity:(Int.max 1 residency_pages) ~pages:elrange_pages;
    dfp = (if can_dfp then Some (Dfp.create dfp_config) else None);
    sites = Int_table.create ~dummy:(new_site_stat ());
    instrumented = 0;
    mode = Option.value config.pin ~default:Baseline;
    observed = 0;
    w_scans = 0;
    w_total = 0;
    w_c1 = 0;
    w_c2 = 0;
    w_c3 = 0;
    prev_entropy = None;
    phase_shifts = 0;
    transitions_rev = [];
    label_changes_rev = [];
  }

let mode t = t.mode
let config t = t.config
let observed t = t.observed
let phase_shifts t = t.phase_shifts
let transitions t = List.rev t.transitions_rev
let label_changes t = List.rev t.label_changes_rev
let instrumented_count t = t.instrumented

let dfp_active t =
  t.can_dfp && (match t.mode with Dfp | Hybrid -> true | Baseline | Sip -> false)

let sip_active t =
  t.can_sip && (match t.mode with Sip | Hybrid -> true | Baseline | Dfp -> false)

let site_predicate t site =
  sip_active t && (Int_table.find t.sites site).instrument

(* ------------------------------------------------------------------ *)
(* Classifier                                                          *)
(* ------------------------------------------------------------------ *)

let site_stat_for t site =
  let s = Int_table.find t.sites site in
  if s != Int_table.dummy t.sites then s
  else begin
    let s = new_site_stat () in
    Int_table.set t.sites site s;
    s
  end

(* Classify one access against the controller's own residency proxy and
   fault-history predictor (the same §4.4 pipeline the offline profiler
   runs over a train trace, fed the live stream instead).  The proxy is
   a pure function of the access sequence, so the classifier is
   bit-identical across solo, fused, fleet and service replays. *)
let observe t ~site ~vpage =
  t.observed <- t.observed + 1;
  t.w_total <- t.w_total + 1;
  let s = site_stat_for t site in
  s.w_count <- s.w_count + 1;
  match Sip_profiler.classify_one t.predictor t.residency vpage with
  | Sip_profiler.Class1 ->
    t.w_c1 <- t.w_c1 + 1;
    s.p_c1 <- s.p_c1 + 1;
    s.l_c1 <- s.l_c1 + 1
  | Sip_profiler.Class2 ->
    t.w_c2 <- t.w_c2 + 1;
    s.p_c2 <- s.p_c2 + 1;
    s.l_c2 <- s.l_c2 + 1
  | Sip_profiler.Class3 ->
    t.w_c3 <- t.w_c3 + 1;
    s.p_c3 <- s.p_c3 + 1;
    s.l_c3 <- s.l_c3 + 1

(* Shannon entropy (bits) of the window's per-site access distribution —
   the change-point signal: a workload moving between phases redistributes
   its accesses across instrumentation sites long before per-site ratios
   converge. *)
let window_entropy t =
  let total = float_of_int t.w_total in
  if t.w_total = 0 then 0.0
  else
    Int_table.fold
      (fun _ s acc ->
        if s.w_count = 0 then acc
        else
          let p = float_of_int s.w_count /. total in
          acc -. (p *. (Float.log p /. Float.log 2.0)))
      t.sites 0.0

(* Re-derive every site's instrument bit from its phase-local counts.
   Flips are logged (sorted by site for a stable rendering) with the scan
   timestamp — labels never change anywhere else. *)
let relabel t ~at =
  let flips = ref [] in
  Int_table.iter
    (fun site s ->
      let samples = s.p_c1 + s.p_c2 + s.p_c3 in
      let ratio =
        if samples = 0 then 0.0
        else float_of_int s.p_c3 /. float_of_int samples
      in
      let should =
        samples >= t.config.site_min && ratio >= t.config.threshold
      in
      if should <> s.instrument then flips := (site, s) :: !flips)
    t.sites;
  List.iter
    (fun (site, s) ->
      let should = not s.instrument in
      s.instrument <- should;
      t.instrumented <- (t.instrumented + if should then 1 else -1);
      t.label_changes_rev <-
        { lc_at = at; lc_site = site; lc_instrument = should }
        :: t.label_changes_rev)
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) !flips)

(* ------------------------------------------------------------------ *)
(* Controller                                                          *)
(* ------------------------------------------------------------------ *)

(* The decision clock is the service scan, exactly like the breaker's:
   every [window] scans the controller closes its observation window,
   checks for a phase shift, re-derives labels, and picks the mode for
   the next window.  A window with fewer than [probe] classified
   accesses is too quiet to judge and slides by without changing
   anything. *)
let on_scan t enclave ~at =
  t.w_scans <- t.w_scans + 1;
  if t.w_scans >= t.config.window then begin
    if t.w_total >= t.config.probe then begin
      let entropy = window_entropy t in
      (match t.prev_entropy with
      | Some prev when Float.abs (entropy -. prev) > t.config.entropy_jump ->
        (* Change-point: the access mix shifted.  Forget the phase-local
           evidence so labels re-derive from post-shift behaviour. *)
        t.phase_shifts <- t.phase_shifts + 1;
        Int_table.iter
          (fun _ s ->
            s.p_c1 <- 0;
            s.p_c2 <- 0;
            s.p_c3 <- 0)
          t.sites
      | Some _ | None -> ());
      t.prev_entropy <- Some entropy;
      relabel t ~at;
      let total = float_of_int t.w_total in
      let miss_share = float_of_int (t.w_c2 + t.w_c3) /. total in
      let stream_share = float_of_int t.w_c2 /. total in
      let next =
        match t.config.pin with
        | Some m -> m
        | None -> (
          let dfp_on = stream_share >= t.config.dfp_share in
          let sip_on = t.instrumented > 0 in
          match (dfp_on, sip_on) with
          | true, true -> Hybrid
          | true, false -> Dfp
          | false, true -> Sip
          | false, false -> Baseline)
      in
      if next <> t.mode then begin
        (* Leaving a DFP-active mode sheds the queued speculation, like
           the §4.2 stop valve (but two-way: the next phase may turn the
           stream preloader back on). *)
        (match t.mode with
        | Dfp | Hybrid -> (
          match next with
          | Baseline | Sip ->
            if t.can_dfp then
              ignore (Enclave.abort_pending_preloads enclave ~now:at)
          | Dfp | Hybrid -> ())
        | Baseline | Sip -> ());
        t.transitions_rev <-
          { at; from_mode = t.mode; to_mode = next; miss_share; entropy }
          :: t.transitions_rev;
        t.mode <- next
      end
    end;
    t.w_scans <- 0;
    t.w_total <- 0;
    t.w_c1 <- 0;
    t.w_c2 <- 0;
    t.w_c3 <- 0;
    Int_table.iter (fun _ s -> s.w_count <- 0) t.sites
  end

let attach t enclave =
  (match t.dfp with
  | Some d ->
    Enclave.set_on_fault enclave (fun enc ctx ->
        if dfp_active t then Dfp.on_fault d enc ctx)
  | None -> ());
  Enclave.add_on_scan enclave (fun enc at -> on_scan t enc ~at)

(* ------------------------------------------------------------------ *)
(* Summary + legality                                                  *)
(* ------------------------------------------------------------------ *)

type summary = {
  s_config : config;
  final_mode : mode;
  s_transitions : transition list;
  s_label_changes : label_change list;
  s_observed : int;
  s_instrumented : int;
  s_phase_shifts : int;
  per_site : (int * (int * int * int)) list;
}

let summary t =
  {
    s_config = t.config;
    final_mode = t.mode;
    s_transitions = transitions t;
    s_label_changes = label_changes t;
    s_observed = t.observed;
    s_instrumented = instrumented_count t;
    s_phase_shifts = t.phase_shifts;
    per_site =
      Int_table.fold
        (fun site s acc -> (site, (s.l_c1, s.l_c2, s.l_c3)) :: acc)
        t.sites []
      |> List.sort compare;
  }

(* Transition-log legality, shared by Validate.check_online, the runner
   diagnostics and the tests — one notion of a well-formed controller
   history, mirroring [Breaker.check_transitions]. *)
let check_transitions ?pin ts =
  if pin <> None && ts <> [] then
    Some "pinned controller must not transition"
  else
    let initial = Option.value pin ~default:Baseline in
    let rec go prev_mode prev_at = function
      | [] -> None
      | x :: rest ->
        if x.from_mode <> prev_mode then
          Some
            (Printf.sprintf "transition from %s but controller was %s"
               (mode_name x.from_mode) (mode_name prev_mode))
        else if x.from_mode = x.to_mode then
          Some
            (Printf.sprintf "self-edge %s -> %s" (mode_name x.from_mode)
               (mode_name x.to_mode))
        else if x.at < prev_at then
          Some (Printf.sprintf "timestamps regress (%d after %d)" x.at prev_at)
        else go x.to_mode x.at rest
    in
    go initial min_int ts
