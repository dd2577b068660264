type t = {
  mutable cyc_compute : int;
  mutable cyc_access : int;
  mutable cyc_aex : int;
  mutable cyc_eresume : int;
  mutable cyc_os_handler : int;
  mutable cyc_load_wait : int;
  mutable cyc_bitmap_check : int;
  mutable cyc_notify : int;
  mutable cyc_sip_wait : int;
  mutable cyc_restart : int;
  mutable accesses : int;
  mutable faults : int;
  mutable faults_in_flight : int;
  mutable faults_already_present : int;
  mutable preloads_requested : int;
  mutable preloads_rejected_range : int;
  mutable preloads_rejected_dup : int;
  mutable preloads_rejected_breaker : int;
  mutable preloads_issued : int;
  mutable preloads_completed : int;
  mutable preloads_aborted : int;
  mutable preloads_taken_over : int;
  mutable preloads_skipped : int;
  mutable preload_hits : int;
  mutable preload_evicted_unused : int;
  mutable evictions : int;
  mutable sip_checks : int;
  mutable sip_notifies : int;
  mutable scans : int;
  mutable crashes : int;
  mutable crash_pages_lost : int;
}

let create () =
  {
    cyc_compute = 0;
    cyc_access = 0;
    cyc_aex = 0;
    cyc_eresume = 0;
    cyc_os_handler = 0;
    cyc_load_wait = 0;
    cyc_bitmap_check = 0;
    cyc_notify = 0;
    cyc_sip_wait = 0;
    cyc_restart = 0;
    accesses = 0;
    faults = 0;
    faults_in_flight = 0;
    faults_already_present = 0;
    preloads_requested = 0;
    preloads_rejected_range = 0;
    preloads_rejected_dup = 0;
    preloads_rejected_breaker = 0;
    preloads_issued = 0;
    preloads_completed = 0;
    preloads_aborted = 0;
    preloads_taken_over = 0;
    preloads_skipped = 0;
    preload_hits = 0;
    preload_evicted_unused = 0;
    evictions = 0;
    sip_checks = 0;
    sip_notifies = 0;
    scans = 0;
    crashes = 0;
    crash_pages_lost = 0;
  }

let total_cycles t =
  t.cyc_compute + t.cyc_access + t.cyc_aex + t.cyc_eresume + t.cyc_os_handler
  + t.cyc_load_wait + t.cyc_bitmap_check + t.cyc_notify + t.cyc_sip_wait
  + t.cyc_restart

let fault_handling_cycles t =
  t.cyc_aex + t.cyc_eresume + t.cyc_os_handler + t.cyc_load_wait
  + t.cyc_bitmap_check + t.cyc_notify + t.cyc_sip_wait

let total_faults t = t.faults + t.faults_in_flight + t.faults_already_present

let copy t = { t with cyc_compute = t.cyc_compute }

let fields =
  [
    ("cyc_compute", fun t -> t.cyc_compute);
    ("cyc_access", fun t -> t.cyc_access);
    ("cyc_aex", fun t -> t.cyc_aex);
    ("cyc_eresume", fun t -> t.cyc_eresume);
    ("cyc_os_handler", fun t -> t.cyc_os_handler);
    ("cyc_load_wait", fun t -> t.cyc_load_wait);
    ("cyc_bitmap_check", fun t -> t.cyc_bitmap_check);
    ("cyc_notify", fun t -> t.cyc_notify);
    ("cyc_sip_wait", fun t -> t.cyc_sip_wait);
    ("cyc_restart", fun t -> t.cyc_restart);
    ("accesses", fun t -> t.accesses);
    ("faults", fun t -> t.faults);
    ("faults_in_flight", fun t -> t.faults_in_flight);
    ("faults_already_present", fun t -> t.faults_already_present);
    ("total_faults", total_faults);
    ("preloads_requested", fun t -> t.preloads_requested);
    ("preloads_rejected_range", fun t -> t.preloads_rejected_range);
    ("preloads_rejected_dup", fun t -> t.preloads_rejected_dup);
    ("preloads_issued", fun t -> t.preloads_issued);
    ("preloads_rejected_breaker", fun t -> t.preloads_rejected_breaker);
    ("preloads_completed", fun t -> t.preloads_completed);
    ("preloads_aborted", fun t -> t.preloads_aborted);
    ("preloads_taken_over", fun t -> t.preloads_taken_over);
    ("preloads_skipped", fun t -> t.preloads_skipped);
    ("preload_hits", fun t -> t.preload_hits);
    ("preload_evicted_unused", fun t -> t.preload_evicted_unused);
    ("evictions", fun t -> t.evictions);
    ("sip_checks", fun t -> t.sip_checks);
    ("sip_notifies", fun t -> t.sip_notifies);
    ("scans", fun t -> t.scans);
    ("crashes", fun t -> t.crashes);
    ("crash_pages_lost", fun t -> t.crash_pages_lost);
  ]

let pp fmt t =
  Format.fprintf fmt
    "@[<v>cycles: total=%d compute=%d access=%d aex=%d eresume=%d handler=%d \
     load-wait=%d check=%d notify=%d sip-wait=%d restart=%d@ events: \
     accesses=%d faults=%d \
     in-flight=%d already-present=%d preloads=%d/%d requested=%d \
     rejected-range=%d rejected-dup=%d rejected-breaker=%d aborted=%d \
     taken-over=%d \
     skipped=%d hits=%d wasted-evict=%d evictions=%d sip-checks=%d notifies=%d \
     scans=%d crashes=%d crash-pages-lost=%d@]"
    (total_cycles t) t.cyc_compute t.cyc_access t.cyc_aex t.cyc_eresume
    t.cyc_os_handler t.cyc_load_wait t.cyc_bitmap_check t.cyc_notify
    t.cyc_sip_wait t.cyc_restart t.accesses t.faults t.faults_in_flight
    t.faults_already_present t.preloads_completed t.preloads_issued
    t.preloads_requested t.preloads_rejected_range t.preloads_rejected_dup
    t.preloads_rejected_breaker t.preloads_aborted t.preloads_taken_over
    t.preloads_skipped t.preload_hits
    t.preload_evicted_unused t.evictions t.sip_checks t.sip_notifies t.scans
    t.crashes t.crash_pages_lost
