(** Online adaptive preloading: the no-PGO mode.

    SIP's offline profiling pass (profile a train input, derive per-site
    Class 1/2/3 labels, instrument the irregular sites) assumes a train
    trace no real service gets.  This module learns the same labels
    {e online}: a per-site classifier runs the §4.4 classification
    pipeline over the live access stream against its own residency proxy
    and fault-history predictor, a phase detector (windowed fault rate +
    site-entropy change-point) flags when the access mix shifts, and an
    adaptive controller switches the active scheme per phase — baseline,
    DFP, online-SIP, or the hybrid of both.

    Like the circuit breaker it generalizes alongside, every decision
    (label flips {e and} mode switches) happens at a service-scan
    timestamp over a tumbling window, which keeps an adaptive replay
    bit-reproducible across solo, fused, fleet and service drivers.
    The controller composes with {!Breaker}: its speculative requests
    pass through the ordinary preload gate. *)

type mode = Baseline | Dfp | Sip | Hybrid

val mode_name : mode -> string
(** ["baseline"] / ["dfp"] / ["sip"] / ["hybrid"]. *)

val mode_of_string : string -> mode option

type config = {
  window : int;  (** Service scans per decision window. *)
  probe : int;
      (** Minimum classified accesses in a window before the controller
          will judge it; quieter windows slide by unchanged. *)
  threshold : float;
      (** Per-site irregular (Class 3) ratio at or above which the site
          is instrumented — the online analogue of the offline plan
          threshold. *)
  site_min : int;
      (** Minimum phase-local samples before a site can be labelled. *)
  dfp_share : float;
      (** Window Class-2 (stream-covered) share at or above which the
          stream preloader is switched on. *)
  entropy_jump : float;
      (** Absolute site-entropy delta (bits) between consecutive windows
          that flags a phase shift and resets phase-local labels. *)
  pin : mode option;
      (** Oracle pin: freeze the controller in one mode.  Labels still
          learn (pin [Sip] is "online SIP without the controller"), but
          the mode never changes and the transition log stays empty —
          pinned [Baseline]/[Dfp] runs reproduce the static scheme
          field-for-field ({!Validate.check_online_oracle}). *)
}

val default_config : config

val validate : config -> config
(** Returns the config unchanged, or raises [Invalid_argument
    ("Online: <what>")] on out-of-range fields. *)

val grammar : string

val config_of_string : string -> (config, string) result
(** Parse a controller spelling: [online] or
    [online:window=N,probe=K,...] (keys [window], [probe], [threshold],
    [pin]).  Total like {!Scheme.of_string} — malformed keys, values or
    out-of-range parameters return [Error] with a human-readable
    message. *)

val config_name : config -> string
(** Canonical spelling; round-trips through {!config_of_string} for
    every grammar-covered field ([site_min], [dfp_share] and
    [entropy_jump] are code-level knobs the grammar does not carry). *)

type transition = {
  at : int;  (** Scan timestamp of the switch. *)
  from_mode : mode;
  to_mode : mode;
  miss_share : float;
      (** Window share of non-resident (Class 2 + 3) accesses at the
          decision. *)
  entropy : float;  (** Window site entropy (bits) at the decision. *)
}

type label_change = {
  lc_at : int;  (** Scan timestamp of the flip. *)
  lc_site : int;
  lc_instrument : bool;  (** New label: instrumented or not. *)
}

type t

val create :
  ?config:config ->
  residency_pages:int ->
  elrange_pages:int ->
  ?can_dfp:bool ->
  ?can_sip:bool ->
  unit ->
  t
(** Fresh controller.  [residency_pages] sizes the classifier's
    residency proxy (the EPC frame count, an exact {!Repro_util.Page_lru}) and
    [elrange_pages] its page domain: every observed page must lie in
    [\[0, elrange_pages)].  [can_dfp]/[can_sip] (both
    default [true]) record which actuation slots the base scheme left
    free: a scheme owning the enclave's fault hook keeps it
    ([can_dfp = false], the controller only observes), and a scheme with
    a static instrumentation plan keeps its predicate
    ([can_sip = false]).  Raises [Invalid_argument] on an invalid
    config. *)

val attach : t -> Sgxsim.Enclave.t -> unit
(** Wire the controller into an enclave: installs the mode-gated DFP
    fault hook (when [can_dfp]) and chains the decision clock onto the
    service scan.  Call {!observe} per access from the replay loop — the
    fault hook cannot see instruction sites, the trace can. *)

val observe : t -> site:int -> vpage:int -> unit
(** Feed one access to the classifier.  Pure bookkeeping against the
    controller's own residency proxy — never touches the enclave, so an
    observed replay is cycle-identical to an unobserved one until the
    controller actuates.  The site's record is an array probe for small
    site ids, and a Class 1 (resident) access allocates nothing. *)

val mode : t -> mode
val config : t -> config
val observed : t -> int
val phase_shifts : t -> int
val instrumented_count : t -> int
val transitions : t -> transition list
val label_changes : t -> label_change list

val dfp_active : t -> bool
(** Whether the stream preloader is on in the current mode (and the
    slot was free to begin with). *)

val sip_active : t -> bool

val site_predicate : t -> int -> bool
(** The dynamic analogue of {!Sip_instrumenter.site_predicate}: whether
    an access at this site takes the SIP-instrumented path {e right
    now}. *)

val on_scan : t -> Sgxsim.Enclave.t -> at:int -> unit
(** The decision point {!attach} chains onto the scan hook; exposed for
    direct unit tests. *)

type summary = {
  s_config : config;
  final_mode : mode;
  s_transitions : transition list;
  s_label_changes : label_change list;
  s_observed : int;
  s_instrumented : int;
  s_phase_shifts : int;
  per_site : (int * (int * int * int)) list;
      (** Lifetime (never reset) per-site Class 1/2/3 totals, sorted by
          site; {!Validate.check_online} sums them against
          [s_observed]. *)
}

val summary : t -> summary
(** End-of-run snapshot packaged into {!Runner.diagnostics}. *)

val check_transitions : ?pin:mode -> transition list -> string option
(** Legality of a controller history: starts from [pin] (default
    [Baseline]), every transition departs the state the previous one
    entered, self-edges are illegal, timestamps never regress, and a
    pinned controller never transitions at all.  [None] when legal. *)
