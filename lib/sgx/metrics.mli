(** Counters and cycle accounting collected during a simulated run.

    Cycle totals are split by category so reports can show where time
    went (compute vs fault handling vs waiting on the load channel), and
    event counters expose the quantities the paper analyses: faults,
    preloads issued/used/aborted, SIP checks and notifications. *)

type t = {
  (* Cycle accounting. *)
  mutable cyc_compute : int;  (** Application compute between accesses. *)
  mutable cyc_access : int;  (** In-EPC access cost. *)
  mutable cyc_aex : int;  (** Asynchronous enclave exits. *)
  mutable cyc_eresume : int;  (** ERESUME re-entries. *)
  mutable cyc_os_handler : int;
      (** Short OS fault-handler path (fault found page already present /
          native fault service). *)
  mutable cyc_load_wait : int;
      (** Demand-path waiting: channel drain + eviction + own load. *)
  mutable cyc_bitmap_check : int;  (** SIP BIT_MAP_CHECK instructions. *)
  mutable cyc_notify : int;  (** SIP notification sends. *)
  mutable cyc_sip_wait : int;  (** SIP synchronous wait for the load. *)
  mutable cyc_restart : int;
      (** Post-crash downtime: the restart delay an instance sat dead
          before re-entering service. *)
  (* Event counters. *)
  mutable accesses : int;
  mutable faults : int;  (** Demand faults needing a real load. *)
  mutable faults_in_flight : int;
      (** Faults that found their page mid-preload and waited it out. *)
  mutable faults_already_present : int;
      (** Faults resolved by the handler finding the page preloaded
          during the AEX window. *)
  mutable preloads_requested : int;
      (** Every [request_preload] call a scheme made, accepted or not:
          [requested = issued + rejected_range + rejected_dup +
          rejected_breaker]. *)
  mutable preloads_rejected_range : int;
      (** Requests refused because the predicted page lies outside
          ELRANGE — predictor over-runs, previously dropped silently. *)
  mutable preloads_rejected_dup : int;
      (** Requests refused because the page was already present, in
          flight, or queued. *)
  mutable preloads_rejected_breaker : int;
      (** Requests refused by an open preload circuit breaker (the
          scheme-level gate installed via [set_preload_gate]). *)
  mutable preloads_issued : int;
  mutable preloads_completed : int;
  mutable preloads_aborted : int;  (** Queued preloads dropped by aborts. *)
  mutable preloads_taken_over : int;
      (** Queued preloads whose page faulted (or SIP-missed) first: the
          demand path removed them from the queue and loaded the page
          itself. *)
  mutable preloads_skipped : int;
      (** Queued preloads dropped at start time by the kernel thread's
          re-check: the page was already resident, or a single-frame EPC
          had no victim. *)
  mutable preload_hits : int;
      (** Preloaded pages later observed accessed by the CLOCK scan. *)
  mutable preload_evicted_unused : int;
      (** Preloaded pages evicted before any access — pure waste. *)
  mutable evictions : int;
  mutable sip_checks : int;
  mutable sip_notifies : int;
  mutable scans : int;  (** CLOCK service-thread passes. *)
  mutable crashes : int;  (** Instance crashes (EPC wiped). *)
  mutable crash_pages_lost : int;
      (** Resident pages dropped by crashes — not evictions: they leave
          no Evict event and never count as preload waste. *)
}

val create : unit -> t

val total_cycles : t -> int
(** Sum of every cycle category: the run's execution time. *)

val fault_handling_cycles : t -> int
(** Cycles spent in fault handling and load waits (AEX + handler + wait +
    ERESUME + SIP wait/notify/check). *)

val total_faults : t -> int
(** All fault events, whatever their resolution. *)

val copy : t -> t

val fields : (string * (t -> int)) list
(** Every counter by name, in export order: the ten [cyc_*] categories,
    then the event counters.  One entry is derived: [total_faults]
    ({!total_faults}), between [faults_already_present] and
    [preloads_requested].  The export columns and the non-negativity
    check map over this list. *)

val pp : Format.formatter -> t -> unit
