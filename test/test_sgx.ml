(* Unit tests for the sgxsim substrate (everything below the Enclave
   facade; the facade has its own suite in test_enclave.ml), plus the
   allocation contracts of the per-access path, which run through the
   facade, of the §4.4 classifier that observes it, and of the replay
   steps of runs under a fault plan. *)

module Cost_model = Sgxsim.Cost_model
module Page_table = Sgxsim.Page_table
module Clock_evictor = Sgxsim.Clock_evictor
module Load_channel = Sgxsim.Load_channel
module Metrics = Sgxsim.Metrics
module Event = Sgxsim.Event
module Enclave = Sgxsim.Enclave

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let test_paper_constants () =
  let c = Cost_model.paper in
  checki "AEX" 10_000 c.t_aex;
  checki "ERESUME" 10_000 c.t_eresume;
  checki "load" 44_000 c.t_load;
  checki "native fault" 2_000 c.t_fault_native;
  (* §2: a fault costs 60,000-64,000 cycles end to end. *)
  let without_evict = Cost_model.fault_cost c ~evict:false in
  let with_evict = Cost_model.fault_cost c ~evict:true in
  checkb "60k..64k band" true (without_evict >= 60_000 && with_evict <= 68_000);
  checkb "evict costs more" true (with_evict > without_evict)

let test_native_model () =
  let c = Cost_model.native in
  checki "no AEX" 0 c.t_aex;
  checki "no ERESUME" 0 c.t_eresume;
  checkb "native load is cheap" true (c.t_load < Cost_model.paper.t_load / 10)

(* ------------------------------------------------------------------ *)
(* Page table                                                          *)
(* ------------------------------------------------------------------ *)

let test_pt_initially_absent () =
  let pt = Page_table.create ~pages:16 in
  checki "pages" 16 (Page_table.pages pt);
  checki "resident" 0 (Page_table.resident_count pt);
  checkb "absent" false (Page_table.present pt 3)

let test_pt_load_evict_cycle () =
  let pt = Page_table.create ~pages:8 in
  Page_table.mark_loaded pt 3 ~prov:Page_table.Demand ~slot:0;
  checkb "present" true (Page_table.present pt 3);
  checki "resident" 1 (Page_table.resident_count pt);
  checkb "demand pages come in hot" true (Page_table.accessed pt 3);
  Page_table.mark_evicted pt 3;
  checkb "absent" false (Page_table.present pt 3);
  checki "resident" 0 (Page_table.resident_count pt);
  checki "slot cleared" (-1) (Page_table.slot pt 3)

let test_pt_preload_comes_in_cold () =
  let pt = Page_table.create ~pages:8 in
  Page_table.mark_loaded pt 2 ~prov:Page_table.Preloaded ~slot:1;
  checkb "access bit clear" false (Page_table.accessed pt 2);
  checkb "preloaded" true (Page_table.preloaded pt 2);
  checkb "not yet counted" false (Page_table.counted pt 2);
  Page_table.touch pt 2;
  checkb "touched" true (Page_table.accessed pt 2);
  Page_table.set_counted pt 2;
  checkb "counted" true (Page_table.counted pt 2)

let test_pt_double_load_rejected () =
  let pt = Page_table.create ~pages:4 in
  Page_table.mark_loaded pt 1 ~prov:Page_table.Demand ~slot:0;
  Alcotest.check_raises "double load"
    (Invalid_argument "Page_table.mark_loaded: page 1 already present")
    (fun () -> Page_table.mark_loaded pt 1 ~prov:Page_table.Demand ~slot:1)

let test_pt_evict_absent_rejected () =
  let pt = Page_table.create ~pages:4 in
  Alcotest.check_raises "evict absent"
    (Invalid_argument "Page_table.mark_evicted: page 2 not present") (fun () ->
      Page_table.mark_evicted pt 2)

let test_pt_out_of_elrange () =
  let pt = Page_table.create ~pages:4 in
  Alcotest.check_raises "oob"
    (Invalid_argument "Page_table: page 4 outside ELRANGE [0,4)") (fun () ->
      ignore (Page_table.accessed pt 4))

(* ------------------------------------------------------------------ *)
(* Clock evictor                                                       *)
(* ------------------------------------------------------------------ *)

(* One sweep over single-owner frames: [accessed] gives the access bits,
   [clear] takes a second chance, [pinned] frames are passed over.
   Returns the victim's page. *)
let victim ?(pinned = fun _ -> false) c ~accessed ~clear =
  let slot =
    Clock_evictor.choose_victim c (fun ~owner:_ ~vpage ->
        if pinned vpage then Clock_evictor.Pass
        else if accessed vpage then begin
          clear vpage;
          Clock_evictor.Spare
        end
        else Clock_evictor.Take)
  in
  Clock_evictor.slot_vpage c slot

let test_clock_insert_remove () =
  let c = Clock_evictor.create ~capacity:3 in
  checki "capacity" 3 (Clock_evictor.capacity c);
  let s0 = Clock_evictor.insert c ~owner:0 10 in
  let s1 = Clock_evictor.insert c ~owner:0 11 in
  checki "used" 2 (Clock_evictor.used c);
  checkb "not full" false (Clock_evictor.is_full c);
  Clock_evictor.remove c ~slot:s0;
  checki "used after remove" 1 (Clock_evictor.used c);
  ignore s1

let test_clock_full_rejects_insert () =
  let c = Clock_evictor.create ~capacity:1 in
  ignore (Clock_evictor.insert c ~owner:0 1);
  Alcotest.check_raises "full" (Invalid_argument "Clock_evictor.insert: EPC full")
    (fun () -> ignore (Clock_evictor.insert c ~owner:0 2))

let test_clock_second_chance () =
  let c = Clock_evictor.create ~capacity:3 in
  ignore (Clock_evictor.insert c ~owner:0 0);
  ignore (Clock_evictor.insert c ~owner:0 1);
  ignore (Clock_evictor.insert c ~owner:0 2);
  (* Page 0 and 1 have their access bits set; page 2 does not.  The sweep
     must clear 0 and 1 and pick 2. *)
  let bits = Hashtbl.create 4 in
  Hashtbl.replace bits 0 true;
  Hashtbl.replace bits 1 true;
  Hashtbl.replace bits 2 false;
  let cleared = ref [] in
  let victim =
    victim c
      ~accessed:(fun v -> Hashtbl.find bits v)
      ~clear:(fun v ->
        cleared := v :: !cleared;
        Hashtbl.replace bits v false)
  in
  checki "victim is the cold page" 2 victim;
  Alcotest.(check (list int)) "hot pages got their second chance" [ 0; 1 ]
    (List.sort compare !cleared)

let test_clock_all_hot_eventually_victimizes () =
  let c = Clock_evictor.create ~capacity:2 in
  ignore (Clock_evictor.insert c ~owner:0 0);
  ignore (Clock_evictor.insert c ~owner:0 1);
  let bits = Hashtbl.create 4 in
  Hashtbl.replace bits 0 true;
  Hashtbl.replace bits 1 true;
  let victim =
    victim c
      ~accessed:(fun v -> Hashtbl.find bits v)
      ~clear:(fun v -> Hashtbl.replace bits v false)
  in
  (* Both bits were set: the first revolution clears them, the second
     finds a victim. *)
  checkb "some victim" true (victim = 0 || victim = 1)

let test_clock_empty_rejects_victim () =
  let c = Clock_evictor.create ~capacity:2 in
  Alcotest.check_raises "empty"
    (Invalid_argument "Clock_evictor.choose_victim: EPC empty") (fun () ->
      ignore (victim c ~accessed:(fun _ -> false) ~clear:(fun _ -> ())))

let test_clock_scan_visits_all () =
  let c = Clock_evictor.create ~capacity:4 in
  List.iter (fun p -> ignore (Clock_evictor.insert c ~owner:0 p)) [ 5; 6; 7 ];
  let visited = ref [] in
  Clock_evictor.scan c (fun v -> visited := v :: !visited);
  Alcotest.(check (list int)) "all resident" [ 5; 6; 7 ]
    (List.sort compare !visited)

let test_clock_resident () =
  let c = Clock_evictor.create ~capacity:4 in
  let s = Clock_evictor.insert c ~owner:0 9 in
  ignore (Clock_evictor.insert c ~owner:0 8);
  Clock_evictor.remove c ~slot:s;
  Alcotest.(check (list int)) "resident" [ 8 ]
    (List.sort compare (Clock_evictor.resident c))

let clock_qcheck =
  [
    QCheck2.Test.make ~name:"victim is always resident" ~count:200
      QCheck2.Gen.(pair (int_range 1 16) (list (int_range 0 31)))
      (fun (cap, hot) ->
        let c = Clock_evictor.create ~capacity:cap in
        for p = 0 to cap - 1 do
          ignore (Clock_evictor.insert c ~owner:0 p)
        done;
        let bits = Array.make cap false in
        List.iter (fun h -> if h < cap then bits.(h) <- true) hot;
        let victim =
          victim c
            ~accessed:(fun v -> bits.(v))
            ~clear:(fun v -> bits.(v) <- false)
        in
        victim >= 0 && victim < cap);
  ]

(* Pinned frames and owner tags: the shared-pool sweep added for fleet
   co-tenancy. *)

let test_clock_pinned_interleaved () =
  let c = Clock_evictor.create ~capacity:3 in
  ignore (Clock_evictor.insert c ~owner:0 0);
  ignore (Clock_evictor.insert c ~owner:0 1);
  ignore (Clock_evictor.insert c ~owner:0 2);
  (* 0 and 2 pinned, 1 hot: the sweep must pass over the pinned frames
     without touching their access bits, burn 1's second chance, and
     come back to victimize 1. *)
  let hot = ref [ 1 ] in
  let cleared = ref [] in
  let slot =
    Clock_evictor.choose_victim c (fun ~owner:_ ~vpage ->
        if vpage = 0 || vpage = 2 then Clock_evictor.Pass
        else if List.mem vpage !hot then begin
          cleared := vpage :: !cleared;
          hot := List.filter (fun v -> v <> vpage) !hot;
          Clock_evictor.Spare
        end
        else Clock_evictor.Take)
  in
  checki "victim is the only unpinned page" 1 (Clock_evictor.slot_vpage c slot);
  checki "default owner" 0 (Clock_evictor.slot_owner c slot);
  Alcotest.(check (list int)) "pinned frames never cleared" [ 1 ] !cleared

let test_clock_all_pinned_raises () =
  let c = Clock_evictor.create ~capacity:2 in
  ignore (Clock_evictor.insert c ~owner:0 0);
  ignore (Clock_evictor.insert c ~owner:0 1);
  Alcotest.check_raises "all pinned" Clock_evictor.No_evictable_page
    (fun () ->
      ignore
        (Clock_evictor.choose_victim c (fun ~owner:_ ~vpage:_ ->
             Clock_evictor.Pass)))

let test_clock_owner_roundtrip () =
  let c = Clock_evictor.create ~capacity:4 in
  ignore (Clock_evictor.insert c ~owner:2 40);
  ignore (Clock_evictor.insert c ~owner:5 41);
  ignore (Clock_evictor.insert c ~owner:2 42);
  Alcotest.(check (list (pair int int)))
    "frames per owner" [ (2, 2); (5, 1) ]
    (Clock_evictor.resident_by_owner c);
  let seen = ref [] in
  Clock_evictor.scan_owned c (fun ~owner ~vpage -> seen := (owner, vpage) :: !seen);
  Alcotest.(check (list (pair int int)))
    "scan reports owner tags" [ (2, 40); (2, 42); (5, 41) ]
    (List.sort compare !seen);
  (* The probe sees each frame's owner, and the victim slot reads back
     with the owner that inserted it. *)
  let probed = ref [] in
  let slot =
    Clock_evictor.choose_victim c (fun ~owner ~vpage ->
        probed := (owner, vpage) :: !probed;
        Clock_evictor.Take)
  in
  let owner = Clock_evictor.slot_owner c slot
  and victim = Clock_evictor.slot_vpage c slot in
  Alcotest.(check (list (pair int int))) "probe sees the tag" [ (owner, victim) ]
    !probed;
  checkb "victim tagged with its inserter"
    true
    (List.mem (owner, victim) [ (2, 40); (2, 42); (5, 41) ])

(* Slot order is simulated state: the hand sweeps slots in index order,
   so which slot a page lands in decides when a sweep meets it. *)
let test_clock_slot_order () =
  let c = Clock_evictor.create ~capacity:8 in
  let slots = List.map (fun v -> Clock_evictor.insert c ~owner:0 v) [ 10; 11; 12; 13; 14 ] in
  Alcotest.(check (list int)) "fresh pool fills 0, 1, 2, ..." [ 0; 1; 2; 3; 4 ] slots;
  Clock_evictor.remove c ~slot:1;
  Clock_evictor.remove c ~slot:3;
  let reused = List.map (fun v -> Clock_evictor.insert c ~owner:0 v) [ 20; 21; 22 ] in
  Alcotest.(check (list int)) "last freed, first reused; then the untouched tail"
    [ 3; 1; 5 ] reused;
  Alcotest.(check (list int)) "frame order" [ 10; 21; 12; 20; 14; 22 ]
    (Clock_evictor.resident c)

(* The reference CLOCK: an option array, a free list and a hand, as
   plain as it gets. *)
module Naive_clock = struct
  type t = { slots : int option array; mutable free : int list; mutable hand : int }

  let create cap =
    { slots = Array.make cap None; free = List.init cap Fun.id; hand = 0 }

  let insert m v =
    match m.free with
    | s :: rest ->
      m.free <- rest;
      m.slots.(s) <- Some v;
      s
    | [] -> invalid_arg "Naive_clock.insert: full"

  let remove m s =
    m.slots.(s) <- None;
    m.free <- s :: m.free

  let rec victim m bits =
    let s = m.hand in
    m.hand <- (m.hand + 1) mod Array.length m.slots;
    match m.slots.(s) with
    | None -> victim m bits
    | Some v when bits.(v) ->
      bits.(v) <- false;
      victim m bits
    | Some _ -> s
end

let clock_model_qcheck =
  let open QCheck2 in
  let gen =
    Gen.(pair (int_range 1 12) (list_size (int_range 1 200) (pair (int_bound 3) nat)))
  in
  let print (cap, ops) =
    Printf.sprintf "cap=%d ops=[%s]" cap
      (String.concat "; " (List.map (fun (k, x) -> Printf.sprintf "%d/%d" k x) ops))
  in
  Test.make ~name:"slots and victims equal a list model" ~count:300 ~print gen
    (fun (cap, ops) ->
      let c = Clock_evictor.create ~capacity:cap in
      let m = Naive_clock.create cap in
      (* Pages are numbered by insertion; each side keeps its own bits. *)
      let bits = Array.make 256 false and mbits = Array.make 256 false in
      let next = ref 0 in
      let occupied () =
        List.filter (fun s -> m.Naive_clock.slots.(s) <> None) (List.init cap Fun.id)
      in
      let pick x =
        match occupied () with [] -> None | l -> Some (List.nth l (x mod List.length l))
      in
      List.for_all
        (fun (kind, x) ->
          (match kind with
          | 0 when !next < 256 && not (Clock_evictor.is_full c) ->
            let v = !next in
            incr next;
            bits.(v) <- x land 1 = 1;
            mbits.(v) <- x land 1 = 1;
            if Clock_evictor.insert c ~owner:0 v <> Naive_clock.insert m v then
              Test.fail_report "insert slot"
          | 1 -> (
            match pick x with
            | Some s ->
              Clock_evictor.remove c ~slot:s;
              Naive_clock.remove m s
            | None -> ())
          | 2 -> (
            match pick x with
            | Some s ->
              let v = Clock_evictor.slot_vpage c s in
              bits.(v) <- true;
              mbits.(v) <- true
            | None -> ())
          | _ ->
            if Clock_evictor.used c > 0 then begin
              let s =
                Clock_evictor.choose_victim c (fun ~owner:_ ~vpage ->
                    if bits.(vpage) then begin
                      bits.(vpage) <- false;
                      Clock_evictor.Spare
                    end
                    else Clock_evictor.Take)
              in
              if s <> Naive_clock.victim m mbits then Test.fail_report "victim";
              Clock_evictor.remove c ~slot:s;
              Naive_clock.remove m s
            end);
          Clock_evictor.resident c
          = List.filter_map Fun.id (Array.to_list m.Naive_clock.slots)
          && bits = mbits)
        ops)

(* ------------------------------------------------------------------ *)
(* Load channel                                                        *)
(* ------------------------------------------------------------------ *)

(* The FIFO head as [(vpage, queued_at)], [None] when empty: the shape
   the list model below speaks. *)
let head ch =
  let v = Load_channel.next_queued_vpage ch in
  if v < 0 then None else Some (v, Load_channel.next_queued_at ch)

(* Pop the head, checking that [pop_queued] returns its page. *)
let pop ch =
  let h = head ch in
  let v = Load_channel.pop_queued ch in
  checki "pop returns the head page"
    (match h with Some (hv, _) -> hv | None -> -1)
    v;
  h

let test_channel_lifecycle () =
  let ch = Load_channel.create ~pages:4096 in
  checkb "initially idle" false (Load_channel.is_busy ch ~now:0);
  checki "no page in flight" (-1) (Load_channel.in_flight_vpage ch);
  let finishes =
    Load_channel.begin_load ch ~vpage:5 ~kind:Load_channel.Demand ~now:100
      ~duration:44_000
  in
  checki "finishes" 44_100 finishes;
  checki "in-flight finishes" 44_100 (Load_channel.in_flight_finishes ch);
  checkb "in-flight kind" true
    (match Load_channel.in_flight_kind ch with Demand -> true | _ -> false);
  checkb "busy during" true (Load_channel.is_busy ch ~now:200);
  checki "busy until" 44_100 (Load_channel.busy_until ch ~now:200);
  checkb "no completion early" false (Load_channel.take_completed ch ~now:200);
  checki "in-flight page" 5 (Load_channel.in_flight_vpage ch);
  checkb "completes" true (Load_channel.take_completed ch ~now:44_100);
  checki "collected" (-1) (Load_channel.in_flight_vpage ch);
  checkb "idle after" false (Load_channel.is_busy ch ~now:44_100)

let test_channel_busy_rejects_load () =
  let ch = Load_channel.create ~pages:4096 in
  (* -1 is the idle sentinel of [in_flight_vpage]. *)
  Alcotest.check_raises "negative page"
    (Invalid_argument "Load_channel.begin_load: negative page") (fun () ->
      ignore
        (Load_channel.begin_load ch ~vpage:(-1) ~kind:Load_channel.Demand
           ~now:0 ~duration:10));
  ignore (Load_channel.begin_load ch ~vpage:1 ~kind:Load_channel.Demand ~now:0 ~duration:10);
  Alcotest.check_raises "busy" (Invalid_argument "Load_channel.begin_load: channel busy")
    (fun () ->
      ignore
        (Load_channel.begin_load ch ~vpage:2 ~kind:Load_channel.Demand ~now:5
           ~duration:10))

let test_channel_queue_fifo () =
  let ch = Load_channel.create ~pages:4096 in
  Load_channel.queue_preload ch ~vpage:1 ~at:10;
  Load_channel.queue_preload ch ~vpage:2 ~at:20;
  Load_channel.queue_preload ch ~vpage:3 ~at:30;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (Load_channel.queued ch);
  Alcotest.(check (option (pair int int))) "head" (Some (1, 10)) (head ch);
  ignore (pop ch);
  Alcotest.(check (option (pair int int))) "next" (Some (2, 20)) (head ch)

let test_channel_abort () =
  let ch = Load_channel.create ~pages:4096 in
  List.iter (fun v -> Load_channel.queue_preload ch ~vpage:v ~at:0) [ 1; 2; 3; 4 ];
  checki "selective abort" 2 (Load_channel.abort_queued_pages ch [| 2; 4 |] 2);
  Alcotest.(check (list int)) "left" [ 1; 3 ] (Load_channel.queued ch);
  checki "full abort" 2 (Load_channel.abort_queued ch);
  checki "empty" 0 (Load_channel.queue_length ch)

let test_channel_abort_spares_inflight () =
  let ch = Load_channel.create ~pages:4096 in
  ignore (Load_channel.begin_load ch ~vpage:9 ~kind:Load_channel.Preload_dfp ~now:0 ~duration:100);
  Load_channel.queue_preload ch ~vpage:10 ~at:0;
  checki "only queued dropped" 1 (Load_channel.abort_queued ch);
  checki "in-flight survives" 9 (Load_channel.in_flight_vpage ch)

let test_channel_remove_queued () =
  let ch = Load_channel.create ~pages:4096 in
  Load_channel.queue_preload ch ~vpage:7 ~at:0;
  checkb "mem" true (Load_channel.queued_mem ch 7);
  checkb "removed" true (Load_channel.remove_queued ch 7);
  checkb "gone" false (Load_channel.queued_mem ch 7);
  checkb "absent remove" false (Load_channel.remove_queued ch 7)

let test_channel_free_at_tracks_last_load () =
  let ch = Load_channel.create ~pages:4096 in
  checki "initially 0" 0 (Load_channel.free_at ch);
  ignore (Load_channel.begin_load ch ~vpage:1 ~kind:Load_channel.Demand ~now:50 ~duration:100);
  checki "after load" 150 (Load_channel.free_at ch);
  ignore (Load_channel.take_completed ch ~now:150);
  checki "persists after completion" 150 (Load_channel.free_at ch)

let test_channel_duplicate_queue_rejected () =
  let ch = Load_channel.create ~pages:64 in
  Load_channel.queue_preload ch ~vpage:3 ~at:0;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Load_channel.queue_preload: page 3 already queued")
    (fun () -> Load_channel.queue_preload ch ~vpage:3 ~at:5);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Load_channel.queue_preload: page 64 out of range")
    (fun () -> Load_channel.queue_preload ch ~vpage:64 ~at:0);
  checki "still one entry" 1 (Load_channel.queue_length ch)

let test_channel_fifo_across_interleavings () =
  (* remove_queued (demand take-over), abort_queued_pages and pop must
     leave the survivors in exact insertion order. *)
  let ch = Load_channel.create ~pages:64 in
  List.iter (fun v -> Load_channel.queue_preload ch ~vpage:v ~at:v) [ 1; 2; 3; 4; 5; 6 ];
  checkb "take-over of 2" true (Load_channel.remove_queued ch 2);
  checki "abort 5 (2 is gone)" 1 (Load_channel.abort_queued_pages ch [| 5; 2 |] 2);
  Alcotest.(check (list int)) "order" [ 1; 3; 4; 6 ] (Load_channel.queued ch);
  (* Pop walks over the lazily-deleted slots without disturbing order. *)
  Alcotest.(check (option (pair int int))) "head" (Some (1, 1)) (pop ch);
  checkb "take-over of 4 mid-queue" true (Load_channel.remove_queued ch 4);
  Alcotest.(check (option (pair int int))) "next head" (Some (3, 3)) (head ch);
  Alcotest.(check (list int)) "remaining" [ 3; 6 ] (Load_channel.queued ch);
  checki "live length" 2 (Load_channel.queue_length ch)

let test_channel_requeue_after_removal_goes_to_tail () =
  (* A removed page that is queued again must load *after* pages queued
     in between — its stale slot near the head must not resurrect it. *)
  let ch = Load_channel.create ~pages:64 in
  List.iter (fun v -> Load_channel.queue_preload ch ~vpage:v ~at:0) [ 7; 8 ];
  checkb "removed" true (Load_channel.remove_queued ch 7);
  Load_channel.queue_preload ch ~vpage:9 ~at:1;
  Load_channel.queue_preload ch ~vpage:7 ~at:2;
  Alcotest.(check (list int)) "tail position" [ 8; 9; 7 ] (Load_channel.queued ch);
  Alcotest.(check (option (pair int int))) "head is 8" (Some (8, 0)) (pop ch);
  Alcotest.(check (option (pair int int))) "then 9" (Some (9, 1)) (pop ch);
  Alcotest.(check (option (pair int int)))
    "re-queued 7 carries its new timestamp" (Some (7, 2)) (pop ch);
  Alcotest.(check (option (pair int int))) "empty" None (pop ch)

let test_channel_abort_pages () =
  let ch = Load_channel.create ~pages:64 in
  List.iter (fun v -> Load_channel.queue_preload ch ~vpage:v ~at:0) [ 1; 2; 3; 4 ];
  (* Unqueued and out-of-range pages are ignored, not errors. *)
  checki "two dropped" 2 (Load_channel.abort_queued_pages ch [| 2; 4; 40; -1; 2 |] 5);
  Alcotest.(check (list int)) "survivors in order" [ 1; 3 ] (Load_channel.queued ch);
  (* Only the first [n] entries count. *)
  checki "prefix only" 1 (Load_channel.abort_queued_pages ch [| 3; 1 |] 1);
  Alcotest.(check (list int)) "1 survives" [ 1 ] (Load_channel.queued ch)

(* The reference model: the original list-backed queue (exact old
   semantics — removals splice the list, duplicates are the caller's
   job).  The differential test drives both implementations with the
   same random operation stream and checks full observational equality
   after every step. *)
module Ref_queue = struct
  type t = { mutable q : (int * int) list }

  let create () = { q = [] }
  let queue m ~vpage ~at = m.q <- m.q @ [ (vpage, at) ]
  let mem m v = List.exists (fun (p, _) -> p = v) m.q

  let pop m =
    match m.q with
    | [] -> None
    | x :: rest ->
      m.q <- rest;
      Some x

  let next m = match m.q with [] -> None | x :: _ -> Some x

  let remove m v =
    let before = List.length m.q in
    m.q <- List.filter (fun (p, _) -> p <> v) m.q;
    List.length m.q < before

  let abort m =
    let n = List.length m.q in
    m.q <- [];
    n

  let queued m = List.map fst m.q
  let length m = List.length m.q
end

(* The compaction invariant: lazy deletion may leave stale slots in the
   ring, but never more than [max 64 live] of them — so physical length
   is bounded by [live + max 64 live] after every public operation. *)
let check_compaction_bound ctx ch =
  let live = Load_channel.queue_length ch in
  let stale = Load_channel.physical_length ch - live in
  if not (stale <= max 64 live) then
    Alcotest.failf "%s: %d stale slots for %d live (bound %d)" ctx stale live
      (max 64 live)

let test_channel_compaction_bounds_deque () =
  (* Regression for unbounded ring growth: queue pages and abort them
     via lazy removal, never popping the head — [drop_stale] alone would
     never reclaim anything.  Without compaction the ring grows by one
     slot per queue/remove round forever. *)
  let pages = 4096 in
  let ch = Load_channel.create ~pages in
  let peak = ref 0 in
  for round = 0 to 9_999 do
    let v = round mod pages in
    Load_channel.queue_preload ch ~vpage:v ~at:round;
    checkb "removed" true (Load_channel.remove_queued ch v);
    check_compaction_bound (Printf.sprintf "round %d" round) ch;
    peak := max !peak (Load_channel.physical_length ch)
  done;
  checkb
    (Printf.sprintf "peak physical length %d stays near the floor" !peak)
    true (!peak <= 2 * 64 + 2);
  checki "nothing live at the end" 0 (Load_channel.queue_length ch);
  (* Same pressure through the batch-abort path, with a live remainder:
     survivors must come back in exact FIFO order after compactions. *)
  let ch = Load_channel.create ~pages in
  let survivors = List.init 40 (fun i -> 4000 + i) in
  List.iteri (fun i v -> Load_channel.queue_preload ch ~vpage:v ~at:i) survivors;
  for round = 0 to 999 do
    let batch = Array.init 8 (fun i -> (round * 8 + i) mod 3000) in
    Array.iter (fun v -> Load_channel.queue_preload ch ~vpage:v ~at:round) batch;
    checki "batch dropped" 8 (Load_channel.abort_queued_pages ch batch 8);
    check_compaction_bound (Printf.sprintf "abort round %d" round) ch
  done;
  Alcotest.(check (list int))
    "survivors keep FIFO order through compactions" survivors
    (Load_channel.queued ch)

let test_channel_differential_random () =
  let pages = 48 in
  let prng = Repro_util.Prng.create 20260806 in
  let ch = Load_channel.create ~pages in
  let rf = Ref_queue.create () in
  let agree step =
    let ctx msg = Printf.sprintf "step %d: %s" step msg in
    Alcotest.(check (list int)) (ctx "queued") (Ref_queue.queued rf) (Load_channel.queued ch);
    checki (ctx "length") (Ref_queue.length rf) (Load_channel.queue_length ch);
    check_compaction_bound (ctx "compaction bound") ch;
    for _ = 1 to 4 do
      let v = Repro_util.Prng.int prng pages in
      checkb (ctx "mem") (Ref_queue.mem rf v) (Load_channel.queued_mem ch v)
    done
  in
  for step = 1 to 3000 do
    (match Repro_util.Prng.int prng 100 with
    | k when k < 45 ->
      (* Queue a fresh page (duplicate suppression is the caller's job,
         exactly as Enclave.request_preload checks queued_mem first). *)
      let v = Repro_util.Prng.int prng pages in
      if not (Load_channel.queued_mem ch v) then begin
        let at = step in
        Load_channel.queue_preload ch ~vpage:v ~at;
        Ref_queue.queue rf ~vpage:v ~at
      end
    | k when k < 65 ->
      Alcotest.(check (option (pair int int)))
        (Printf.sprintf "step %d: pop" step)
        (Ref_queue.pop rf) (pop ch)
    | k when k < 75 ->
      Alcotest.(check (option (pair int int)))
        (Printf.sprintf "step %d: next" step)
        (Ref_queue.next rf) (head ch)
    | k when k < 90 ->
      let v = Repro_util.Prng.int prng pages in
      checkb
        (Printf.sprintf "step %d: remove p%d" step v)
        (Ref_queue.remove rf v) (Load_channel.remove_queued ch v)
    | k when k < 98 ->
      (* A selective abort: a prefix of the pages of one residue class,
         or of a random batch, which may repeat pages.  The channel
         removes page by page; mirror that on the model so duplicate
         entries count identically. *)
      let batch =
        if k < 94 then begin
          let m = 2 + Repro_util.Prng.int prng 3 in
          let r = Repro_util.Prng.int prng m in
          Array.of_list (List.filter (fun p -> p mod m = r) (List.init pages Fun.id))
        end
        else Array.init 3 (fun _ -> Repro_util.Prng.int prng pages)
      in
      let n = Repro_util.Prng.int prng (Array.length batch + 1) in
      let expect = ref 0 in
      for i = 0 to n - 1 do
        if Ref_queue.remove rf batch.(i) then incr expect
      done;
      checki
        (Printf.sprintf "step %d: abort_pages" step)
        !expect
        (Load_channel.abort_queued_pages ch batch n)
    | _ ->
      checki (Printf.sprintf "step %d: abort" step) (Ref_queue.abort rf)
        (Load_channel.abort_queued ch));
    agree step
  done

(* The ring's edge cases against the same model, scripted: the ring
   wraps, then grows while its head is mid-ring, then compacts in place
   while wrapped, and every survivor keeps its FIFO place throughout. *)
let test_channel_ring_wrap_grow_compact () =
  let ch = Load_channel.create ~pages:1024 in
  let rf = Ref_queue.create () in
  let at = ref 0 in
  let queue v =
    incr at;
    Load_channel.queue_preload ch ~vpage:v ~at:!at;
    Ref_queue.queue rf ~vpage:v ~at:!at
  in
  let agree what =
    Alcotest.(check (list int)) (what ^ ": queued") (Ref_queue.queued rf)
      (Load_channel.queued ch);
    Alcotest.(check (option (pair int int))) (what ^ ": head") (Ref_queue.next rf)
      (head ch);
    check_compaction_bound what ch
  in
  let pop_both what =
    Alcotest.(check (option (pair int int))) (what ^ ": pop") (Ref_queue.pop rf)
      (pop ch)
  in
  (* The ring starts at 8 slots: move the head to slot 5, then wrap. *)
  List.iter queue [ 0; 1; 2; 3; 4; 5 ];
  for _ = 1 to 5 do
    pop_both "advance the head"
  done;
  List.iter queue [ 10; 11; 12; 13; 14; 15; 16 ];
  checki "full ring" 8 (Load_channel.physical_length ch);
  agree "wrapped";
  (* A removal leaves a stale slot mid-ring, then the ninth slot grows
     the ring with its head mid-ring. *)
  checkb "take-over" true (Load_channel.remove_queued ch 12);
  ignore (Ref_queue.remove rf 12);
  List.iter queue [ 17; 18; 19 ];
  checki "the stale slot is still held" 11 (Load_channel.physical_length ch);
  agree "grown";
  (* Grow to 256 slots, move the head past the middle, wrap again
     without growing, then remove pages behind the head until the stale
     slots pass the floor and the live count: the ring compacts in place
     while wrapped. *)
  for v = 100 to 339 do
    queue v
  done;
  for _ = 1 to 150 do
    pop_both "advance again"
  done;
  for v = 400 to 499 do
    queue v
  done;
  checki "wrapped, not grown" 200 (Load_channel.physical_length ch);
  agree "wrapped again";
  let compacted = ref false in
  List.iter
    (fun v ->
      if v mod 8 <> 0 then begin
        let before = Load_channel.physical_length ch in
        checkb "removed" (Ref_queue.remove rf v) (Load_channel.remove_queued ch v);
        if Load_channel.physical_length ch < before then compacted := true;
        agree (Printf.sprintf "removed %d" v)
      end)
    (List.init 99 (fun i -> 241 + i) @ List.init 100 (fun i -> 400 + i));
  checkb "compaction ran" true !compacted;
  while Ref_queue.length rf > 0 do
    pop_both "drain"
  done;
  agree "drained";
  checki "empty" 0 (Load_channel.physical_length ch)

let channel_qcheck =
  [
    QCheck2.Test.make ~name:"queue preserves FIFO order" ~count:300
      QCheck2.Gen.(list small_nat)
      (fun pages ->
        (* Distinct pages: the indexed queue rejects duplicates by
           contract (callers check queued_mem first). *)
        let pages = List.sort_uniq compare pages in
        let ch = Load_channel.create ~pages:4096 in
        List.iter (fun v -> Load_channel.queue_preload ch ~vpage:v ~at:0) pages;
        Load_channel.queued ch = pages);
  ]

(* ------------------------------------------------------------------ *)
(* Metrics / Event                                                     *)
(* ------------------------------------------------------------------ *)

let test_metrics_totals () =
  let m = Metrics.create () in
  m.cyc_compute <- 100;
  m.cyc_aex <- 10;
  m.cyc_load_wait <- 44;
  m.cyc_eresume <- 10;
  checki "total" 164 (Metrics.total_cycles m);
  checki "fault handling" 64 (Metrics.fault_handling_cycles m);
  m.faults <- 2;
  m.faults_in_flight <- 1;
  m.faults_already_present <- 1;
  checki "total faults" 4 (Metrics.total_faults m)

let test_metrics_copy_is_independent () =
  let m = Metrics.create () in
  m.faults <- 5;
  let c = Metrics.copy m in
  m.faults <- 9;
  checki "copy unchanged" 5 c.faults

let test_event_log_ring () =
  let log = Event.make_log ~capacity:2 in
  Event.record log (Event.Fault { at = 1; vpage = 0 });
  Event.record log (Event.Fault { at = 2; vpage = 1 });
  Event.record log (Event.Fault { at = 3; vpage = 2 });
  let ats = List.map Event.at (Event.events log) in
  Alcotest.(check (list int)) "keeps newest" [ 2; 3 ] ats

let test_event_null_log () =
  Event.record Event.null_log (Event.Scan { at = 1 });
  Alcotest.(check (list int)) "empty" []
    (List.map Event.at (Event.events Event.null_log))

let test_event_pp_golden () =
  let show e = Format.asprintf "%a" Event.pp e in
  Alcotest.(check string) "fault" "       100 FAULT     p7"
    (show (Event.Fault { at = 100; vpage = 7 }));
  Alcotest.(check string) "load kind" "       200 load      p3 (dfp)"
    (show (Event.Load_start { at = 200; vpage = 3; kind = Load_channel.Preload_dfp }));
  Alcotest.(check string) "sip check"
    "       300 sip-check p4 (absent)"
    (show (Event.Sip_check { at = 300; vpage = 4; present = false }))

let test_event_accessors () =
  let e = Event.Load_start { at = 5; vpage = 9; kind = Load_channel.Demand } in
  checki "at" 5 (Event.at e);
  Alcotest.(check (option int)) "vpage" (Some 9) (Event.vpage e);
  Alcotest.(check (option int)) "scan has no page" None
    (Event.vpage (Event.Scan { at = 0 }))

(* ------------------------------------------------------------------ *)
(* Fleet arbiter                                                       *)
(* ------------------------------------------------------------------ *)

let test_arbiter_fifo_and_solo_identity () =
  let open Load_channel.Arbiter in
  let a = create ~policy:Fifo 2 in
  checki "clean load is the identity" 10 (request a ~owner:0 ~at:0 10);
  (* Channel frees at 10; owner 1 asks at 5 → 5 cycles queued. *)
  checki "contended load queues" 15 (request a ~owner:1 ~at:5 10);
  checki "one contention" 1 (contentions a);
  checki "wait charged to the queuer" 5 (wait_of a 1);
  checki "no wait for the first" 0 (wait_of a 0);
  (* A lone tenant's own exclusive channel serializes its loads, so it
     always arrives at or after free_at: every request is the identity —
     the fleet-of-1 lock at the arbiter level. *)
  let solo = create ~policy:Priority ~priorities:[| 7 |] 1 in
  let at = ref 0 in
  for d = 1 to 20 do
    let eff = request solo ~owner:0 ~at:!at d in
    checki "solo identity" d eff;
    at := !at + eff + 3
  done;
  checki "solo never contends" 0 (contentions solo)

let test_arbiter_penalty_does_not_compound () =
  let open Load_channel.Arbiter in
  let p = create ~priorities:[| 0; 3 |] ~policy:Priority 2 in
  checki "priority 0 is plain fifo" 10 (request p ~owner:0 ~at:0 10);
  (* wait0 = 5, extra = 3 * 5: the penalized tenant waits 20, loads 10. *)
  checki "penalized wait" 30 (request p ~owner:1 ~at:5 10);
  (* The channel freed at 5 + 5 + 10 = 20, NOT at 5 + 30: the penalty
     delays the requester, never later tenants — penalized waits must
     not compound into the fleet's virtual clocks. *)
  checki "channel free once backlog + load drain" 10
    (request p ~owner:0 ~at:20 10);
  (* Fair-share: a tenant whose occupancy exceeds the fleet average pays
     extra; a light tenant queues plain FIFO. *)
  let f = create ~policy:Fair_share 2 in
  checki "first" 10 (request f ~owner:0 ~at:0 10);
  checki "back-to-back still clean" 10 (request f ~owner:0 ~at:10 10);
  (* Owner 1 has no occupancy: backlog only (free_at 20, wait0 8). *)
  checki "light tenant waits the backlog" 18 (request f ~owner:1 ~at:12 10);
  (* Owner 0 now holds 20 of 30 busy cycles; wait0 = 30 - 14 = 16,
     overuse (20*2 - 30) = 10 → extra 10*16/30 = 5. *)
  checki "hog penalized beyond the backlog" 31 (request f ~owner:0 ~at:14 10)

let arbiter_qcheck =
  [
    (* The channel-time conservation lock: [free_at] follows the same
       backlog + d recurrence under every policy, so a policy penalty is
       invisible to later requests.  Observable in lockstep against a
       FIFO twin fed the identical sequence: the policy arbiter's wait
       is the FIFO wait plus a non-negative extra, and a request the
       FIFO twin serves cleanly is served cleanly under any policy.  The
       hang regression (penalties folded into [free_at]) breaks this —
       the trajectories diverge and an uncontended-under-FIFO request
       starts waiting. *)
    QCheck2.Test.make ~name:"arbiter: penalties never leak into later waits"
      ~count:300
      QCheck2.Gen.(
        triple (int_range 0 2)
          (array_size (int_range 1 5) (int_range 0 4))
          (small_list (triple (int_range 0 4) (int_range 0 50) (int_range 0 40))))
      (fun (policy_i, priorities, reqs) ->
        let open Load_channel.Arbiter in
        let n = Array.length priorities in
        let a = create ~priorities ~policy:(List.nth policies policy_i) n in
        let fifo = create ~priorities ~policy:Fifo n in
        let now = ref 0 in
        List.for_all
          (fun (owner, gap, d) ->
            let owner = owner mod n in
            now := !now + gap;
            let ea = request a ~owner ~at:!now d in
            let eb = request fifo ~owner ~at:!now d in
            ea >= eb && (eb > d || ea = eb))
          reqs);
  ]

(* ------------------------------------------------------------------ *)
(* Allocation contracts                                                *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words allocated per call of [f], over [n] calls.  Reading
   the counter is itself allocation-free, so a contract of "no words"
   can be checked to within a rounding error. *)
let words_per_call n f =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let check_words ctx ~at_most words =
  if not (words <= at_most) then
    Alcotest.failf "%s: %.2f words per call, contract is at most %.2f" ctx
      words at_most

let sink = ref 0

let test_alloc_channel_head_probe () =
  (* The background scheduler peeks the FIFO head on every pump step. *)
  let ch = Load_channel.create ~pages:4096 in
  List.iter (fun v -> Load_channel.queue_preload ch ~vpage:v ~at:v) [ 3; 4; 5 ];
  (* A lazily deleted head slot: the first probe drops it. *)
  checkb "take-over of the head" true (Load_channel.remove_queued ch 3);
  let words =
    words_per_call 10_000 (fun () ->
        sink :=
          !sink + Load_channel.next_queued_vpage ch
          + Load_channel.next_queued_at ch)
  in
  checki "head" 4 (Load_channel.next_queued_vpage ch);
  check_words "next_queued_vpage + next_queued_at" ~at_most:0.01 words

let test_alloc_resident_access () =
  let e = Enclave.create ~epc_pages:64 ~elrange_pages:1024 () in
  let now = ref (Enclave.access e ~now:0 5) in
  let words =
    words_per_call 10_000 (fun () -> now := Enclave.access e ~now:!now 5)
  in
  checki "one fault, then hits" 1 (Sgxsim.Metrics.total_faults (Enclave.metrics e));
  check_words "Enclave.access on a resident page" ~at_most:0.01 words

let test_alloc_demand_fault () =
  (* 900 pages cycled through 64 frames: every access is a demand fault
     that evicts.  With the null log and the default no-op hook, the
     fault context is the enclave's own and nothing is allocated. *)
  let pages = 900 in
  let e = Enclave.create ~epc_pages:64 ~elrange_pages:pages () in
  let now = ref 0 in
  let next = ref 0 in
  let fault () =
    now := Enclave.access e ~now:!now !next;
    next := (!next + 1) mod pages
  in
  for _ = 1 to pages do
    fault ()
  done;
  let n = 9 * pages in
  let words = words_per_call n fault in
  let m = Enclave.metrics e in
  checki "every access faulted" (pages + n) (Sgxsim.Metrics.total_faults m);
  checkb "and evicted" true (m.evictions >= n);
  check_words "demand fault" ~at_most:0.01 words

(* A preload-abort storm over interleaved streams, in the shape of
   perfbench's queue-stress: 24 sequential streams picked at random,
   each access stepping 5 pages on (the edge of the stream's sequential
   window: an extension), or 1 or 2 pages one time in 8 (inside its
   pending window: a restart), and one access in 40 a far page that
   opens a stream, so idle streams fall off the list with their windows
   still queued.  No compute between accesses, so the preload queue
   stays hundreds deep. *)
let storm_region = 4096
let storm_streams = 24

let storm_pages n =
  let prng = Repro_util.Prng.create 18 in
  let cursor = Array.make storm_streams 0 in
  Array.init n (fun _ ->
      if Repro_util.Prng.int prng 40 = 0 then
        (storm_streams * storm_region) + Repro_util.Prng.int prng storm_region
      else begin
        let s = Repro_util.Prng.int prng storm_streams in
        let step = match Repro_util.Prng.int prng 16 with 0 -> 1 | 1 -> 2 | _ -> 5 in
        cursor.(s) <- (cursor.(s) + step) mod storm_region;
        (s * storm_region) + cursor.(s)
      end)

let test_alloc_dfp_fault () =
  let pages = storm_pages 40_000 in
  let e =
    Enclave.create ~epc_pages:256
      ~elrange_pages:((storm_streams + 1) * storm_region)
      ()
  in
  let dfp = Preload.Dfp.attach e Preload.Dfp.default_config in
  let p = Preload.Dfp.predictor dfp in
  (* The verdict of each fault, read back from the predictor after DFP
     reacted (allocation-free reads): an extension sets a direction; a
     restart drops a window holding the faulted page; a replacement
     drops the LRU stream's window, which cannot hold it.  And the least
     queue depth a fault sees. *)
  let extends = ref 0 and restarts = ref 0 and replacements = ref 0 in
  let min_depth = ref max_int in
  Enclave.add_on_fault e (fun enc (ctx : Enclave.fault_ctx) ->
      let module SP = Preload.Stream_predictor in
      if SP.head_dir p <> 0 then incr extends
      else begin
        let dropped = SP.dropped p in
        let hit = ref false in
        for i = 0 to SP.dropped_count p - 1 do
          if dropped.(i) = ctx.fault_vpage then hit := true
        done;
        if !hit then incr restarts
        else if SP.dropped_count p > 0 then incr replacements
      end;
      min_depth := Int.min !min_depth (Enclave.pending_preload_count enc));
  let now = ref 0 in
  let replay lo hi =
    for i = lo to hi - 1 do
      now := Enclave.access e ~now:!now pages.(i)
    done
  in
  (* Warm up on the first half, so the ring and the pending rows have
     reached their depth, then measure the second. *)
  let half = Array.length pages / 2 in
  replay 0 half;
  min_depth := max_int;
  let faults0 = Sgxsim.Metrics.total_faults (Enclave.metrics e) in
  let w0 = Gc.minor_words () in
  replay half (Array.length pages);
  let words = Gc.minor_words () -. w0 in
  let faults = Sgxsim.Metrics.total_faults (Enclave.metrics e) - faults0 in
  checkb "measured faults" true (faults > 15_000);
  checkb "extensions" true (!extends > 10_000);
  checkb "restarts" true (!restarts > 1000);
  checkb "replacements with a queued window" true (!replacements > 20);
  checkb "the queue stays hundreds deep" true (!min_depth >= 100);
  check_words "DFP fault" ~at_most:0.01 (words /. float_of_int faults)

(* Words per fault of a warm sequential sweep, cycled over 900 pages
   through 64 frames, with the prefetcher [attach] installs preloading
   ahead of it. *)
let sweep_words attach =
  let pages = 900 in
  let e = Enclave.create ~epc_pages:64 ~elrange_pages:pages () in
  attach e;
  let now = ref 0 in
  let next = ref 0 in
  let step () =
    now := Enclave.access e ~now:!now !next;
    next := (!next + 1) mod pages
  in
  for _ = 1 to 2 * pages do
    step ()
  done;
  let m = Enclave.metrics e in
  let faults0 = Sgxsim.Metrics.total_faults m in
  let preloads0 = m.preloads_issued in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10 * pages do
    step ()
  done;
  let words = Gc.minor_words () -. w0 in
  let faults = Sgxsim.Metrics.total_faults m - faults0 in
  checkb "faults" true (faults > pages);
  checkb "preloads" true (m.preloads_issued - preloads0 > pages);
  words /. float_of_int faults

let test_alloc_next_line_fault () =
  check_words "next-line(4) fault" ~at_most:0.01
    (sweep_words (fun e ->
         ignore (Preload.Prefetch_baselines.attach_next_line e ~degree:4)))

let test_alloc_stride_fault () =
  check_words "stride(4) fault" ~at_most:0.01
    (sweep_words (fun e ->
         ignore (Preload.Prefetch_baselines.attach_stride e ~degree:4)))

let test_alloc_histogram_add_int () =
  let h =
    Repro_util.Histogram.create ~auto_expand:true ~lo:0.0 ~hi:1000.0
      ~buckets:32 ()
  in
  (* The bucket range doubles up to the largest value first. *)
  Repro_util.Histogram.add_int h 4999;
  let x = ref 0 in
  let words =
    words_per_call 10_000 (fun () ->
        x := (!x + 7919) mod 5000;
        Repro_util.Histogram.add_int h !x)
  in
  checki "counted" 10_001 (Repro_util.Histogram.count h);
  check_words "Histogram.add_int" ~at_most:0.01 words

let test_alloc_lru_touch_resident () =
  let l = Repro_util.Page_lru.create ~capacity:8 ~pages:1024 in
  List.iter (fun p -> ignore (Repro_util.Page_lru.touch l p)) [ 1; 2; 3 ];
  (* Alternate, so each touch moves a page that is not the head. *)
  let next = ref 1 in
  sink := 0;
  let words =
    words_per_call 10_000 (fun () ->
        next := 3 - !next;
        if Repro_util.Page_lru.touch l !next then incr sink)
  in
  checki "every touch hit" 10_000 !sink;
  check_words "Page_lru.touch of a resident page" ~at_most:0.01 words

let test_alloc_lru_touch_evicting () =
  (* 100 pages cycled through 8 slots: every touch inserts and evicts. *)
  let l = Repro_util.Page_lru.create ~capacity:8 ~pages:100 in
  let next = ref 0 in
  let touch () =
    if Repro_util.Page_lru.touch l !next then incr sink;
    next := (!next + 1) mod 100
  in
  for _ = 1 to 100 do
    touch ()
  done;
  sink := 0;
  let words = words_per_call 10_000 touch in
  checki "every touch missed" 0 !sink;
  checki "at capacity" 8 (Repro_util.Page_lru.size l);
  check_words "Page_lru.touch of a new page at capacity" ~at_most:0.01 words

let test_alloc_online_observe_resident () =
  let ctl =
    Preload.Online.create ~residency_pages:64 ~elrange_pages:1024 ()
  in
  let step = ref 0 in
  let observe () =
    incr step;
    Preload.Online.observe ctl ~site:(!step land 7) ~vpage:(!step land 31)
  in
  (* Warm-up: every site seen, every page resident. *)
  for _ = 1 to 64 do
    observe ()
  done;
  let words = words_per_call 10_000 observe in
  checki "observed" 10_064 (Preload.Online.observed ctl);
  check_words "Online.observe of resident pages" ~at_most:0.01 words

(* The fault-plan paths.  A co-tenant budget and channel jitter are
   sampled once per time window, so a resident access under the full
   storm allocates what it does without one; a trace-corrupting plan
   replays a derived arena, so a perturbed replay step and a service
   request step allocate about what a plain replay step does. *)
let model_trace name =
  Sim.Experiments.trace_of
    { Sim.Experiments.quick with epc_pages = 512 }
    name ~input:(Workload.Input.Ref 0)

let runner_config = { Sim.Runner.default_config with epc_pages = 512 }

let test_alloc_storm_resident_access () =
  let spec =
    Sim.Runner.Spec.make ~config:runner_config
      ~fault_plan:Sim.Fault_plan.perfect_storm ()
  in
  let inst =
    Sim.Runner.make_instance ~spec ~trace:(model_trace "xz") Preload.Scheme.Baseline
  in
  let e = inst.Sim.Runner.enclave in
  let now = ref (Enclave.access e ~now:0 5) in
  let words =
    words_per_call 10_000 (fun () -> now := Enclave.access e ~now:!now 5)
  in
  checki "one fault, then hits" 1 (Sgxsim.Metrics.total_faults (Enclave.metrics e));
  check_words "resident Enclave.access under perfect-storm" ~at_most:0.01 words

(* Minor words per replayed access of a warm run (arenas compiled and
   derived by a first, unmeasured call). *)
let words_per_access run =
  ignore (run ());
  let w0 = Gc.minor_words () in
  let results = run () in
  let words = Gc.minor_words () -. w0 in
  let accesses =
    List.fold_left
      (fun acc (r : Sim.Runner.result) -> acc + r.Sim.Runner.metrics.Metrics.accesses)
      0 results
  in
  words /. float_of_int accesses

let test_alloc_perturbed_fleet_step () =
  let tenants =
    List.map
      (fun name ->
        Sim.Fleet.tenant ~label:name ~scheme:Preload.Scheme.Baseline
          (model_trace name))
      [ "lbm"; "xz" ]
  in
  let config = { Sim.Fleet.default_config with epc_pages = 512 } in
  let fleet fault_plan () =
    (Sim.Fleet.run ~config ~fault_plan tenants).Sim.Fleet.results
  in
  let clean = words_per_access (fleet Sim.Fault_plan.none) in
  let garbled = words_per_access (fleet Sim.Fault_plan.garbled_trace) in
  check_words
    (Printf.sprintf "garbled-trace fleet step (fault-free: %.2f)" clean)
    ~at_most:(clean +. 0.5) garbled

let test_alloc_service_request_step () =
  let trace = model_trace "xz" in
  let solo =
    words_per_access (fun () ->
        [
          Sim.Runner.run
            ~spec:(Sim.Runner.Spec.make ~config:runner_config ())
            ~scheme:Preload.Scheme.Baseline trace;
        ])
  in
  let config =
    {
      Sim.Service.default_config with
      epc_pages = 512;
      pool = 4;
      requests = 200;
      request_events = 400;
    }
  in
  let service =
    words_per_access (fun () ->
        (Sim.Service.run ~config ~scheme:Preload.Scheme.Baseline trace)
          .Sim.Service.results)
  in
  check_words
    (Printf.sprintf "service request step (solo replay: %.2f)" solo)
    ~at_most:(solo +. 1.0) service

(* Trace generation.  The PRNG's state is unboxed, so an int draw
   allocates nothing; a compile drains the pattern's cursor into columns
   allocated once, off-heap, at the pattern's exact length. *)
let test_alloc_prng_int () =
  let prng = Repro_util.Prng.create 19 in
  let words =
    words_per_call 100_000 (fun () ->
        sink := !sink + Repro_util.Prng.int prng 1_000_003)
  in
  check_words "Prng.int" ~at_most:0.01 words

(* Every leaf that keeps int state, merged by a weighted interleave and
   by [parallel]: 108,000 events. *)
let test_alloc_trace_compile () =
  let module P = Workload.Pattern in
  let leaves base =
    [
      ( 3,
        P.sequential ~site:0 ~base ~pages:3_000 ~events_per_page:4 ~compute:900
          ~jitter:0.2 );
      ( 2,
        P.multi_stream ~site:1
          ~streams:[ (base + 3_000, 1_000); (base + 4_000, 1_000) ]
          ~events_per_page:3 ~compute:700 ~jitter:0.1 );
      ( 1,
        P.uniform_random ~site:2 ~base ~pages:5_000 ~events:6_000 ~compute:300
          ~jitter:0.5 );
      ( 1,
        P.pointer_chase ~site:3 ~base ~pages:5_000 ~events:6_000 ~locality:0.7
          ~compute:500 ~jitter:0.3 );
      ( 1,
        P.bursty ~site:4 ~base ~pages:5_000 ~events:6_000 ~run_min:2 ~run_max:4
          ~events_per_page:2 ~compute:400 ~jitter:0.2 );
    ]
  in
  let pattern =
    P.parallel
      (List.init 3 (fun t -> (t, P.weighted_interleave (leaves (t * 5_000)))))
  in
  let trace =
    Workload.Trace.make ~name:"alloc-compile" ~elrange_pages:15_000
      ~footprint_pages:15_000 ~seed:23 ~sites:[] pattern
  in
  (* Generate, never decode a cached copy. *)
  Unix.putenv Workload.Trace_arena.cache_env_var "";
  let w0 = Gc.minor_words () in
  let a = Workload.Trace_arena.compile trace in
  let words = Gc.minor_words () -. w0 in
  let n = Workload.Trace_arena.length a in
  checki "events" 108_000 n;
  Printf.printf "trace compile: %.3f words per event\n" (words /. float_of_int n);
  check_words "trace compile, per event" ~at_most:1.0 (words /. float_of_int n)

(* A Zipf sampler holds its envelope's constants unboxed, so its
   rejection loop's floats stay in registers (51 words a draw when every
   draw recomputed them); the figure is printed too. *)
let test_alloc_zipf_draw () =
  let prng = Repro_util.Prng.create 29 in
  let z = Repro_util.Prng.zipf_sampler ~n:5_000 ~s:1.1 in
  let words =
    words_per_call 100_000 (fun () ->
        sink := !sink + Repro_util.Prng.zipf_draw prng z)
  in
  Printf.printf "zipf draw: %.2f words\n" words;
  check_words "Prng.zipf_draw" ~at_most:0.01 words

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let props = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sgxsim"
    [
      ( "cost_model",
        [ tc "paper constants" test_paper_constants; tc "native model" test_native_model ]
      );
      ( "page_table",
        [
          tc "initially absent" test_pt_initially_absent;
          tc "load/evict cycle" test_pt_load_evict_cycle;
          tc "preload comes in cold" test_pt_preload_comes_in_cold;
          tc "double load rejected" test_pt_double_load_rejected;
          tc "evict absent rejected" test_pt_evict_absent_rejected;
          tc "out of ELRANGE" test_pt_out_of_elrange;
        ] );
      ( "clock_evictor",
        [
          tc "insert/remove" test_clock_insert_remove;
          tc "full rejects insert" test_clock_full_rejects_insert;
          tc "second chance" test_clock_second_chance;
          tc "all hot still victimizes" test_clock_all_hot_eventually_victimizes;
          tc "empty rejects victim" test_clock_empty_rejects_victim;
          tc "scan visits all" test_clock_scan_visits_all;
          tc "resident" test_clock_resident;
          tc "pinned frames interleaved" test_clock_pinned_interleaved;
          tc "all pinned raises" test_clock_all_pinned_raises;
          tc "owner tags round-trip" test_clock_owner_roundtrip;
          tc "slot order" test_clock_slot_order;
        ]
        @ props (clock_qcheck @ [ clock_model_qcheck ]) );
      ( "load_channel",
        [
          tc "lifecycle" test_channel_lifecycle;
          tc "busy rejects load" test_channel_busy_rejects_load;
          tc "queue fifo" test_channel_queue_fifo;
          tc "abort" test_channel_abort;
          tc "abort spares in-flight" test_channel_abort_spares_inflight;
          tc "remove queued" test_channel_remove_queued;
          tc "free_at tracks last load" test_channel_free_at_tracks_last_load;
          tc "duplicate queue rejected" test_channel_duplicate_queue_rejected;
          tc "fifo across interleavings" test_channel_fifo_across_interleavings;
          tc "re-queue after removal goes to tail"
            test_channel_requeue_after_removal_goes_to_tail;
          tc "abort pages" test_channel_abort_pages;
          tc "compaction bounds the deque" test_channel_compaction_bounds_deque;
          tc "ring wraps, grows mid-ring and compacts"
            test_channel_ring_wrap_grow_compact;
          tc "differential vs list model" test_channel_differential_random;
          tc "arbiter fifo + solo identity" test_arbiter_fifo_and_solo_identity;
          tc "arbiter penalties do not compound"
            test_arbiter_penalty_does_not_compound;
        ]
        @ props (channel_qcheck @ arbiter_qcheck) );
      ( "alloc",
        [
          tc "channel head probe allocates nothing" test_alloc_channel_head_probe;
          tc "resident access allocates nothing" test_alloc_resident_access;
          tc "demand fault allocates nothing" test_alloc_demand_fault;
          tc "DFP fault under a deep queue allocates nothing" test_alloc_dfp_fault;
          tc "next-line fault allocates nothing" test_alloc_next_line_fault;
          tc "stride fault allocates nothing" test_alloc_stride_fault;
          tc "int histogram add allocates nothing" test_alloc_histogram_add_int;
          tc "LRU touch of a resident page allocates nothing"
            test_alloc_lru_touch_resident;
          tc "LRU touch that evicts allocates nothing"
            test_alloc_lru_touch_evicting;
          tc "online observe of resident pages allocates nothing"
            test_alloc_online_observe_resident;
          tc "resident access under perfect-storm allocates nothing"
            test_alloc_storm_resident_access;
          tc "perturbed fleet step allocates what a clean one does"
            test_alloc_perturbed_fleet_step;
          tc "service request step allocates what a replay step does"
            test_alloc_service_request_step;
          tc "Prng.int allocates nothing" test_alloc_prng_int;
          tc "trace compile allocates under a word per event"
            test_alloc_trace_compile;
          tc "zipf draw allocates nothing" test_alloc_zipf_draw;
        ] );
      ( "metrics_event",
        [
          tc "metrics totals" test_metrics_totals;
          tc "metrics copy" test_metrics_copy_is_independent;
          tc "event log ring" test_event_log_ring;
          tc "event null log" test_event_null_log;
          tc "event pp golden" test_event_pp_golden;
          tc "event accessors" test_event_accessors;
        ] );
    ]
