(* Behavioural tests of the Enclave facade: exact cycle accounting of
   every fault path, preload flow, demand priority, SIP paths, bitmap
   coherence, and whole-facade invariants under random operation
   sequences. *)

module Enclave = Sgxsim.Enclave
module Cost_model = Sgxsim.Cost_model
module Metrics = Sgxsim.Metrics
module Event = Sgxsim.Event

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let c = Cost_model.paper
(* Shorthands for the paper constants used in the arithmetic below. *)
let aex = c.t_aex
let load = c.t_load
let eresume = c.t_eresume
let evict = c.t_evict
let native = c.t_fault_native
let acc = c.t_access
let bmc = c.t_bitmap_check
let notify = c.t_notify

let make ?(epc = 8) ?(elrange = 64) () = Enclave.create ~epc_pages:epc ~elrange_pages:elrange ()

(* ------------------------------------------------------------------ *)
(* Demand path                                                         *)
(* ------------------------------------------------------------------ *)

let test_cold_fault_cost () =
  let e = make () in
  let t = Enclave.access e ~now:0 5 in
  checki "AEX + load + ERESUME + access" (aex + load + eresume + acc) t;
  let m = Enclave.metrics e in
  checki "one fault" 1 m.faults;
  checki "aex cycles" aex m.cyc_aex;
  checki "eresume cycles" eresume m.cyc_eresume;
  checki "load wait" load m.cyc_load_wait;
  checkb "now resident" true (Enclave.page_present e 5)

let test_hit_cost () =
  let e = make () in
  let t = Enclave.access e ~now:0 5 in
  let t2 = Enclave.access e ~now:t 5 in
  checki "pure access" acc (t2 - t);
  checki "still one fault" 1 (Enclave.metrics e).faults

let test_fault_with_eviction () =
  let e = make ~epc:1 () in
  let t = Enclave.access e ~now:0 0 in
  let t2 = Enclave.access e ~now:t 1 in
  checki "eviction adds EWB time" (aex + evict + load + eresume + acc) (t2 - t);
  checkb "victim evicted" false (Enclave.page_present e 0);
  checkb "new page resident" true (Enclave.page_present e 1);
  checki "one eviction" 1 (Enclave.metrics e).evictions

let test_resident_never_exceeds_epc () =
  let e = make ~epc:4 ~elrange:32 () in
  let now = ref 0 in
  for p = 0 to 31 do
    now := Enclave.access e ~now:!now p;
    checkb "bounded" true (Enclave.resident_count e <= 4)
  done

let test_compute_accounting () =
  let e = make () in
  let t = Enclave.compute e ~now:100 5_000 in
  checki "advances" 5_100 t;
  checki "recorded" 5_000 (Enclave.metrics e).cyc_compute;
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Enclave.compute: negative cycles") (fun () ->
      ignore (Enclave.compute e ~now:0 (-1)))

(* ------------------------------------------------------------------ *)
(* Preload flow                                                        *)
(* ------------------------------------------------------------------ *)

let test_preload_completes_asynchronously () =
  let e = make () in
  checkb "queued" true (Enclave.request_preload e ~now:0 7);
  checkb "not yet resident" false (Enclave.page_present e 7);
  Enclave.sync e ~now:(load + 1);
  checkb "resident after load time" true (Enclave.page_present e 7);
  let m = Enclave.metrics e in
  checki "issued" 1 m.preloads_issued;
  checki "completed" 1 m.preloads_completed;
  (* A later access is a pure hit: the fault was avoided entirely. *)
  let t = Enclave.access e ~now:(2 * load) 7 in
  checki "hit" (2 * load + acc) t;
  checki "no faults" 0 (Metrics.total_faults m)

let test_preload_dedup () =
  let e = make () in
  ignore (Enclave.access e ~now:0 3);
  checkb "present page refused" false (Enclave.request_preload e ~now:200_000 3);
  checkb "fresh page accepted" true (Enclave.request_preload e ~now:200_000 4);
  checkb "queued page refused" false (Enclave.request_preload e ~now:200_000 4);
  checkb "out of ELRANGE refused" false (Enclave.request_preload e ~now:200_000 64);
  checkb "negative refused" false (Enclave.request_preload e ~now:200_000 (-1))

let test_preload_rejections_counted () =
  (* Every request lands in exactly one disposition counter:
     requested = issued + rejected_range + rejected_dup. *)
  let e = make () in
  ignore (Enclave.access e ~now:0 3);
  ignore (Enclave.request_preload e ~now:200_000 3);
  (* dup: present *)
  ignore (Enclave.request_preload e ~now:200_000 4);
  (* issued *)
  ignore (Enclave.request_preload e ~now:200_000 4);
  (* dup: queued *)
  ignore (Enclave.request_preload e ~now:200_000 64);
  (* range *)
  ignore (Enclave.request_preload e ~now:200_000 (-1));
  (* range *)
  let m = Enclave.metrics e in
  checki "requested" 5 m.preloads_requested;
  checki "issued" 1 m.preloads_issued;
  checki "rejected out-of-ELRANGE" 2 m.preloads_rejected_range;
  checki "rejected duplicate" 2 m.preloads_rejected_dup;
  checki "disposition identity"
    m.preloads_requested
    (m.preloads_issued + m.preloads_rejected_range + m.preloads_rejected_dup)

let test_preload_of_inflight_refused () =
  let e = make () in
  ignore (Enclave.request_preload e ~now:0 9);
  (* Force the load to start, then re-request while it is in flight. *)
  Enclave.sync e ~now:10;
  checkb "now in flight" true (Enclave.in_flight_kind e <> None);
  checkb "in-flight refused" false (Enclave.request_preload e ~now:20 9)

let test_fault_waits_for_inflight_preload () =
  let e = make () in
  ignore (Enclave.request_preload e ~now:0 2);
  (* The preload starts at 0 and finishes at [load].  Faulting at 10
     means AEX ends at 10+aex, and the handler then waits out the
     remainder of the non-preemptible load. *)
  let t = Enclave.access e ~now:10 2 in
  checki "resume right after the load lands" (load + eresume + acc) t;
  let m = Enclave.metrics e in
  checki "counted as in-flight fault" 1 m.faults_in_flight;
  checki "no demand fault" 0 m.faults;
  checki "waited the remainder" (load - (10 + aex)) m.cyc_load_wait

let test_fault_finds_page_already_preloaded () =
  let e = make () in
  ignore (Enclave.request_preload e ~now:0 2);
  (* Fault raised just before the preload lands: it completes during the
     AEX window, so the handler only fixes the PTE. *)
  let raise_at = load - 100 in
  let t = Enclave.access e ~now:raise_at 2 in
  checki "short handler path" (raise_at + aex + native + eresume + acc) t;
  let m = Enclave.metrics e in
  checki "already-present fault" 1 m.faults_already_present;
  checki "no demand fault" 0 m.faults

let test_demand_waits_for_other_inflight () =
  let e = make () in
  ignore (Enclave.request_preload e ~now:0 1);
  (* Preload of page 1 occupies the channel until [load]; the demand
     fault on page 2 at t=5 drains it first, then loads its own page. *)
  let t = Enclave.access e ~now:5 2 in
  checki "serialized behind the preload" (load + load + eresume + acc) t;
  checkb "preloaded page landed too" true (Enclave.page_present e 1);
  checki "demand fault" 1 (Enclave.metrics e).faults

let test_queue_frozen_during_fault () =
  let e = make () in
  ignore (Enclave.request_preload e ~now:0 1);
  ignore (Enclave.request_preload e ~now:0 2);
  (* Page 1 is in flight; page 2 is queued.  The fault on page 3 must
     claim the channel before queued page 2. *)
  let t = Enclave.access e ~now:5 3 in
  checkb "demand page resident" true (Enclave.page_present e 3);
  (* Page 2's preload only starts after the demand load completes. *)
  checkb "queued preload deferred" false (Enclave.page_present e 2);
  Enclave.sync e ~now:(t + load);
  checkb "then proceeds" true (Enclave.page_present e 2)

let test_demand_takes_over_queued_page () =
  let e = make () in
  ignore (Enclave.request_preload e ~now:0 1);
  ignore (Enclave.request_preload e ~now:0 2);
  (* Fault on the queued (not yet started) page 2: the demand load takes
     it over; it must not be loaded twice. *)
  let (_ : int) = Enclave.access e ~now:5 2 in
  Enclave.sync e ~now:(10 * load);
  let m = Enclave.metrics e in
  checki "only page 1's preload completed" 1 m.preloads_completed;
  checkb "page 2 resident once" true (Enclave.page_present e 2)

let test_abort_pending () =
  let e = make () in
  ignore (Enclave.request_preload e ~now:0 1);
  ignore (Enclave.request_preload e ~now:0 2);
  ignore (Enclave.request_preload e ~now:0 3);
  (* Page 1 starts immediately; 2 and 3 are still queued at t=10. *)
  Enclave.sync e ~now:10;
  checki "two dropped" 2 (Enclave.abort_pending_preloads e ~now:10);
  checki "metric" 2 (Enclave.metrics e).preloads_aborted;
  Enclave.sync e ~now:(3 * load);
  checkb "aborted never load" false (Enclave.page_present e 2);
  checkb "in-flight survived" true (Enclave.page_present e 1)

let test_abort_pages () =
  let e = make () in
  List.iter (fun p -> ignore (Enclave.request_preload e ~now:0 p)) [ 1; 2; 3; 4 ];
  Enclave.sync e ~now:10;
  (* Page 1 is in flight, so of the first three entries only 3 is
     queued; the 4 past the given length is not looked at. *)
  checki "one dropped" 1
    (Enclave.abort_pending_preloads_pages e ~now:10 [| 3; 1; 9; 4 |] 3);
  checki "metric" 1 (Enclave.metrics e).preloads_aborted;
  Alcotest.(check (list int)) "pages 2 and 4 still queued" [ 2; 4 ]
    (Enclave.pending_preloads e);
  (* Nothing to drop still syncs: the in-flight load lands. *)
  checki "none dropped" 0
    (Enclave.abort_pending_preloads_pages e ~now:(3 * load) [| 3 |] 1);
  checkb "synced" true (Enclave.page_present e 1)

let test_faulting_page_pinned_against_preload_eviction () =
  (* A preload issued from the fault handler must not evict the page the
     handler is about to return to the application (tiny EPC makes the
     race certain without pinning). *)
  let e = make ~epc:2 ~elrange:16 () in
  Enclave.set_on_fault e (fun enc ctx ->
      (* Next-line reaction: on a full EPC this preload needs a victim. *)
      ignore (Enclave.request_preload enc ~now:ctx.handled_at (ctx.fault_vpage + 1)));
  let now = ref 0 in
  (* Fill the EPC, then keep faulting: every fault's handler queues a
     preload whose eviction must never pick the faulting page. *)
  for p = 0 to 9 do
    now := Enclave.access e ~now:!now p;
    checkb "faulted page still resident after handling" true
      (Enclave.page_present e p)
  done

let test_single_frame_epc_stays_safe () =
  (* Capacity 1 is the deadlock candidate: while the handler pins its
     page, the only frame has no victim.  Preloads that would need one
     inside the handler are dropped; preloads starting after the access
     legitimately displace the previous page. *)
  let e = make ~epc:1 ~elrange:16 () in
  Enclave.set_on_fault e (fun enc ctx ->
      (* Two requests: the second one's sync pumps the queue while the
         page is still pinned. *)
      ignore (Enclave.request_preload enc ~now:ctx.handled_at (ctx.fault_vpage + 1));
      ignore (Enclave.request_preload enc ~now:ctx.handled_at (ctx.fault_vpage + 2)));
  let now = ref 0 in
  for p = 0 to 9 do
    now := Enclave.access e ~now:!now p;
    checkb "faulting page never stolen" true (Enclave.page_present e p)
  done;
  Enclave.sync e ~now:!now;
  (* A load may be mid-flight at the end (victim evicted, page not yet
     landed), so residency is 0 or 1 — never above capacity. *)
  checkb "EPC never overfilled" true (Enclave.resident_count e <= 1)

(* ------------------------------------------------------------------ *)
(* Scan and preload-hit harvesting                                     *)
(* ------------------------------------------------------------------ *)

let test_scan_harvests_preload_hits () =
  let e = make () in
  ignore (Enclave.request_preload e ~now:0 4);
  Enclave.sync e ~now:(load + 1);
  let t = Enclave.access e ~now:(load + 10) 4 in
  (* The hit is only credited when the service scan observes the access
     bit — not at access time. *)
  checki "not yet credited" 0 (Enclave.metrics e).preload_hits;
  Enclave.sync e ~now:(t + c.clock_scan_period);
  checki "credited by the scan" 1 (Enclave.metrics e).preload_hits;
  checkb "scan ran" true ((Enclave.metrics e).scans >= 1)

let test_unused_preload_not_credited () =
  let e = make () in
  ignore (Enclave.request_preload e ~now:0 4);
  Enclave.sync e ~now:(2 * c.clock_scan_period);
  checki "never accessed, never credited" 0 (Enclave.metrics e).preload_hits

let test_evicted_unused_preload_counted_as_waste () =
  let e = make ~epc:2 ~elrange:16 () in
  ignore (Enclave.request_preload e ~now:0 9);
  Enclave.sync e ~now:(load + 1);
  (* Fill the EPC with demand pages; the unused preloaded page is the
     only cold page, so CLOCK evicts it. *)
  let t = Enclave.access e ~now:(load + 10) 0 in
  let t = Enclave.access e ~now:t 1 in
  ignore t;
  checki "waste counted" 1 (Enclave.metrics e).preload_evicted_unused

let test_on_scan_hook_fires () =
  let e = make () in
  let fired = ref 0 in
  Enclave.set_on_scan e (fun _ _ -> incr fired);
  Enclave.sync e ~now:(3 * c.clock_scan_period);
  checki "three periods, three scans" 3 !fired

(* ------------------------------------------------------------------ *)
(* Hooks                                                               *)
(* ------------------------------------------------------------------ *)

let test_on_fault_context () =
  let e = make () in
  let seen = ref [] in
  (* The context is the enclave's own, refilled per fault: a hook copies
     what it needs. *)
  Enclave.set_on_fault e (fun _ (ctx : Enclave.fault_ctx) ->
      seen :=
        (ctx.fault_vpage, ctx.raised_at, ctx.handled_at, ctx.resolution)
        :: !seen);
  ignore (Enclave.access e ~now:100 6);
  match !seen with
  | [ (vpage, raised_at, handled_at, resolution) ] ->
    checki "page" 6 vpage;
    checki "raised at call time" 100 raised_at;
    checki "handled when load done" (100 + aex + load) handled_at;
    checkb "demand resolution" true (resolution = Enclave.Demand_load)
  | _ -> Alcotest.fail "expected exactly one fault"

let test_on_fault_can_preload () =
  let e = make () in
  (* A next-line reaction implemented in the hook: faults trigger a
     preload of the following page. *)
  Enclave.set_on_fault e (fun enc ctx ->
      ignore (Enclave.request_preload enc ~now:ctx.handled_at (ctx.fault_vpage + 1)));
  let t = Enclave.access e ~now:0 0 in
  (* Give the preload time to land, then touch page 1: no fault. *)
  let t = Enclave.compute e ~now:t (2 * load) in
  let t = Enclave.access e ~now:t 1 in
  ignore t;
  let m = Enclave.metrics e in
  checki "single demand fault" 1 m.faults;
  checki "preload completed" 1 m.preloads_completed

let test_on_preload_complete_hook () =
  let e = make () in
  let completed = ref [] in
  Enclave.set_on_preload_complete e (fun _ p -> completed := p :: !completed);
  ignore (Enclave.request_preload e ~now:0 11);
  Enclave.sync e ~now:(load + 1);
  Alcotest.(check (list int)) "hook saw the page" [ 11 ] !completed

(* ------------------------------------------------------------------ *)
(* SIP paths                                                           *)
(* ------------------------------------------------------------------ *)

let test_sip_hit_cost () =
  let e = make () in
  ignore (Enclave.access e ~now:0 3);
  let t0 = 1_000_000 in
  let t = Enclave.sip_access e ~now:t0 3 in
  checki "check + access" (bmc + acc) (t - t0);
  let m = Enclave.metrics e in
  checki "check counted" 1 m.sip_checks;
  checki "no notify" 0 m.sip_notifies

let test_sip_miss_cost () =
  let e = make () in
  let t = Enclave.sip_access e ~now:0 3 in
  checki "check + notify + load + access (no AEX/ERESUME)"
    (bmc + notify + load + acc) t;
  let m = Enclave.metrics e in
  checki "notify counted" 1 m.sip_notifies;
  checki "no aex" 0 m.cyc_aex;
  checki "no eresume" 0 m.cyc_eresume;
  checki "no demand fault recorded" 0 m.faults;
  checkb "resident afterwards" true (Enclave.page_present e 3)

let test_sip_cheaper_than_fault () =
  let e1 = make () in
  let fault_cost = Enclave.access e1 ~now:0 0 in
  let e2 = make () in
  let sip_cost = Enclave.sip_access e2 ~now:0 0 in
  checkb "Fig. 4: SIP path beats the fault path" true (sip_cost < fault_cost);
  checki "benefit = AEX + ERESUME - check - notify"
    (aex + eresume - bmc - notify) (fault_cost - sip_cost)

let test_sip_waits_for_inflight () =
  let e = make () in
  ignore (Enclave.request_preload e ~now:0 2);
  Enclave.sync e ~now:10;
  let t = Enclave.sip_access e ~now:10 2 in
  (* check+notify bring us to 10+bmc+notify; the in-flight load lands at
     [load]; the access follows. *)
  checki "waits out the load" (load + acc) t;
  checki "sip wait recorded" (load - (10 + bmc + notify))
    (Enclave.metrics e).cyc_sip_wait

let test_sip_notify_stamped_at_pickup () =
  (* Regression: the Sip_notify event used to carry the bitmap-check
     time.  The notification is only in the kernel thread's hands
     [t_notify] cycles after the check, and the event must say so. *)
  let e =
    Enclave.create ~log:(Event.make_log ~capacity:64) ~epc_pages:4
      ~elrange_pages:16 ()
  in
  ignore (Enclave.sip_access e ~now:0 3);
  let check_at = ref (-1) and notify_at = ref (-1) in
  List.iter
    (function
      | Event.Sip_check { at; present = false; _ } -> check_at := at
      | Event.Sip_notify { at; _ } -> notify_at := at
      | _ -> ())
    (Enclave.events e);
  checki "check when the bitmap read completes" bmc !check_at;
  checki "notify stamped at kernel-thread pickup, not at the check"
    (bmc + notify) !notify_at

let test_preload_taken_over_counted () =
  let e = make () in
  ignore (Enclave.request_preload e ~now:0 1);
  ignore (Enclave.request_preload e ~now:0 2);
  (* Page 1 is in flight, page 2 still queued: the demand fault takes
     over the queued entry. *)
  ignore (Enclave.access e ~now:5 2);
  Enclave.sync e ~now:(10 * load);
  let m = Enclave.metrics e in
  checki "queued entry taken over" 1 m.preloads_taken_over;
  checki "only page 1's preload completed" 1 m.preloads_completed

let test_sip_takeover_counted () =
  let e = make () in
  ignore (Enclave.request_preload e ~now:0 1);
  ignore (Enclave.request_preload e ~now:0 2);
  ignore (Enclave.sip_access e ~now:5 2);
  Enclave.sync e ~now:(10 * load);
  checki "SIP load takes over the queued entry" 1
    (Enclave.metrics e).preloads_taken_over

let test_preload_skipped_counted () =
  (* The single-frame scenario: preloads queued inside the handler find
     the only frame pinned when they reach the channel and are dropped.
     Those drops must be accounted, not silent. *)
  let e = make ~epc:1 ~elrange:16 () in
  Enclave.set_on_fault e (fun enc ctx ->
      ignore (Enclave.request_preload enc ~now:ctx.handled_at (ctx.fault_vpage + 1));
      ignore (Enclave.request_preload enc ~now:ctx.handled_at (ctx.fault_vpage + 2)));
  let now = ref 0 in
  for p = 0 to 9 do
    now := Enclave.access e ~now:!now p
  done;
  Enclave.sync e ~now:!now;
  let m = Enclave.metrics e in
  checkb "some preloads were skipped" true (m.preloads_skipped > 0);
  let pending = List.length (Enclave.pending_preloads e) in
  let in_flight = match Enclave.in_flight_kind e with Some _ -> 1 | None -> 0 in
  checki "every issued preload has exactly one disposition"
    m.preloads_issued
    (m.preloads_completed + m.preloads_aborted + m.preloads_taken_over
   + m.preloads_skipped + pending + in_flight)

let test_sip_eviction_when_full () =
  let e = make ~epc:1 () in
  ignore (Enclave.sip_access e ~now:0 0);
  let t0 = 200_000 in
  let t = Enclave.sip_access e ~now:t0 1 in
  checki "includes EWB" (bmc + notify + evict + load + acc) (t - t0);
  checkb "victim gone" false (Enclave.page_present e 0)

(* ------------------------------------------------------------------ *)
(* Bitmap coherence                                                    *)
(* ------------------------------------------------------------------ *)

let test_bitmap_tracks_residency () =
  let e = make ~epc:2 ~elrange:16 () in
  checkb "initially clear" false (Enclave.bitmap_present e 5);
  ignore (Enclave.access e ~now:0 5);
  checkb "set on load" true (Enclave.bitmap_present e 5);
  (* Force page 5 out. *)
  let t = Enclave.access e ~now:1_000_000 6 in
  let t = Enclave.access e ~now:t 7 in
  let t = Enclave.access e ~now:t 8 in
  ignore t;
  checkb "cleared on eviction" false (Enclave.bitmap_present e 5)

let test_bitmap_agrees_with_page_table () =
  let e = make ~epc:4 ~elrange:32 () in
  let prng = Repro_util.Prng.create 99 in
  let now = ref 0 in
  for _ = 1 to 200 do
    now := Enclave.access e ~now:!now (Repro_util.Prng.int prng 32)
  done;
  for p = 0 to 31 do
    checkb "bitmap = page table" (Enclave.page_present e p)
      (Enclave.bitmap_present e p)
  done

(* ------------------------------------------------------------------ *)
(* Event log                                                           *)
(* ------------------------------------------------------------------ *)

let test_event_log_records_fault_sequence () =
  let e =
    Enclave.create ~log:(Event.make_log ~capacity:64) ~epc_pages:4
      ~elrange_pages:16 ()
  in
  ignore (Enclave.access e ~now:0 1);
  let kinds =
    List.map
      (function
        | Event.Fault _ -> "fault"
        | Event.Aex_done _ -> "aex"
        | Event.Load_start _ -> "load"
        | Event.Load_done _ -> "done"
        | Event.Eresume _ -> "eresume"
        | _ -> "other")
      (Enclave.events e)
  in
  Alcotest.(check (list string)) "canonical order"
    [ "fault"; "aex"; "load"; "done"; "eresume" ]
    kinds

let test_event_timestamps_nondecreasing () =
  let e =
    Enclave.create ~log:(Event.make_log ~capacity:256) ~epc_pages:4
      ~elrange_pages:64 ()
  in
  let _dfp = Preload.Dfp.attach e Preload.Dfp.default_config in
  let now = ref 0 in
  for p = 0 to 20 do
    now := Enclave.compute e ~now:!now 30_000;
    now := Enclave.access e ~now:!now p
  done;
  let ats = List.map Event.at (Enclave.events e) in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  checkb "chronological" true (nondecreasing ats)

(* ------------------------------------------------------------------ *)
(* Whole-facade invariants (property tests)                            *)
(* ------------------------------------------------------------------ *)

type op = Access of int | Sip of int | Compute of int | Preload of int | Abort

let op_gen =
  QCheck2.Gen.(
    frequency
      [
        (5, map (fun p -> Access p) (int_range 0 31));
        (2, map (fun p -> Sip p) (int_range 0 31));
        (3, map (fun n -> Compute n) (int_range 0 50_000));
        (3, map (fun p -> Preload p) (int_range 0 31));
        (1, return Abort);
      ])

let run_ops ops =
  let e = Enclave.create ~epc_pages:4 ~elrange_pages:32 () in
  let now = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Access p -> now := Enclave.access e ~now:!now p
      | Sip p -> now := Enclave.sip_access e ~now:!now p
      | Compute n -> now := Enclave.compute e ~now:!now n
      | Preload p -> ignore (Enclave.request_preload e ~now:!now p)
      | Abort -> ignore (Enclave.abort_pending_preloads e ~now:!now))
    ops;
  Enclave.sync e ~now:!now;
  (e, !now)

let enclave_qcheck =
  [
    QCheck2.Test.make ~name:"time advanced equals cycles accounted" ~count:150
      QCheck2.Gen.(list_size (int_range 1 120) op_gen)
      (fun ops ->
        let e, now = run_ops ops in
        Metrics.total_cycles (Enclave.metrics e) = now);
    QCheck2.Test.make ~name:"residency bounded by EPC capacity" ~count:150
      QCheck2.Gen.(list_size (int_range 1 120) op_gen)
      (fun ops ->
        let e, _ = run_ops ops in
        Enclave.resident_count e <= Enclave.epc_capacity e);
    QCheck2.Test.make ~name:"accessed pages end up resident or evicted, never lost"
      ~count:150
      QCheck2.Gen.(list_size (int_range 1 120) op_gen)
      (fun ops ->
        let e, _ = run_ops ops in
        (* The bitmap is the OS view; it must agree with the page table
           for every page after a full sync. *)
        List.for_all
          (fun p -> Enclave.page_present e p = Enclave.bitmap_present e p)
          (List.init 32 Fun.id));
    QCheck2.Test.make ~name:"deterministic replay" ~count:60
      QCheck2.Gen.(list_size (int_range 1 80) op_gen)
      (fun ops ->
        let _, n1 = run_ops ops in
        let _, n2 = run_ops ops in
        n1 = n2);
    QCheck2.Test.make
      ~name:"every issued preload has exactly one disposition" ~count:150
      QCheck2.Gen.(list_size (int_range 1 120) op_gen)
      (fun ops ->
        let e, _ = run_ops ops in
        let m = Enclave.metrics e in
        let pending = List.length (Enclave.pending_preloads e) in
        let in_flight = match Enclave.in_flight_kind e with Some _ -> 1 | None -> 0 in
        m.preloads_issued
        = m.preloads_completed + m.preloads_aborted + m.preloads_taken_over
          + m.preloads_skipped + pending + in_flight);
  ]

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let props = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "enclave"
    [
      ( "demand path",
        [
          tc "cold fault cost" test_cold_fault_cost;
          tc "hit cost" test_hit_cost;
          tc "fault with eviction" test_fault_with_eviction;
          tc "residency bounded" test_resident_never_exceeds_epc;
          tc "compute accounting" test_compute_accounting;
        ] );
      ( "preload flow",
        [
          tc "completes asynchronously" test_preload_completes_asynchronously;
          tc "dedup" test_preload_dedup;
          tc "rejections counted" test_preload_rejections_counted;
          tc "in-flight refused" test_preload_of_inflight_refused;
          tc "fault waits for in-flight preload" test_fault_waits_for_inflight_preload;
          tc "fault finds page preloaded" test_fault_finds_page_already_preloaded;
          tc "demand waits for other in-flight" test_demand_waits_for_other_inflight;
          tc "queue frozen during fault" test_queue_frozen_during_fault;
          tc "demand takes over queued page" test_demand_takes_over_queued_page;
          tc "abort pending" test_abort_pending;
          tc "abort pages" test_abort_pages;
          tc "takeover counted" test_preload_taken_over_counted;
          tc "sip takeover counted" test_sip_takeover_counted;
          tc "skipped counted" test_preload_skipped_counted;
          tc "faulting page pinned" test_faulting_page_pinned_against_preload_eviction;
          tc "single-frame EPC stays safe" test_single_frame_epc_stays_safe;
        ] );
      ( "scan",
        [
          tc "harvests preload hits" test_scan_harvests_preload_hits;
          tc "unused preload not credited" test_unused_preload_not_credited;
          tc "evicted unused preload is waste" test_evicted_unused_preload_counted_as_waste;
          tc "on_scan hook" test_on_scan_hook_fires;
        ] );
      ( "hooks",
        [
          tc "fault context" test_on_fault_context;
          tc "hook can preload" test_on_fault_can_preload;
          tc "preload complete hook" test_on_preload_complete_hook;
        ] );
      ( "sip",
        [
          tc "hit cost" test_sip_hit_cost;
          tc "miss cost" test_sip_miss_cost;
          tc "cheaper than fault" test_sip_cheaper_than_fault;
          tc "waits for in-flight" test_sip_waits_for_inflight;
          tc "notify stamped at pickup" test_sip_notify_stamped_at_pickup;
          tc "eviction when full" test_sip_eviction_when_full;
        ] );
      ( "bitmap",
        [
          tc "tracks residency" test_bitmap_tracks_residency;
          tc "agrees with page table" test_bitmap_agrees_with_page_table;
        ] );
      ( "events",
        [
          tc "fault sequence" test_event_log_records_fault_sequence;
          tc "timestamps nondecreasing" test_event_timestamps_nondecreasing;
        ] );
      ("invariants", props enclave_qcheck);
    ]
