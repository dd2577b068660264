module Enclave = Sgxsim.Enclave
module Int_table = Repro_util.Int_table
module SP = Stream_predictor

type config = {
  stream_list_length : int;
  load_length : int;
  detect_backward : bool;
  stop_enabled : bool;
  stop_margin : int;
  per_thread : bool;
}

let default_config =
  {
    stream_list_length = 30;
    load_length = 4;
    detect_backward = true;
    stop_enabled = false;
    stop_margin = 160;
    per_thread = true;
  }

let with_stop config = { config with stop_enabled = true }

type t = {
  config : config;
  (* Per-thread predictor lookup runs on every fault; small thread ids,
     which is what every trace generator produces, are an array probe. *)
  predictors : SP.t Int_table.t;
  mutable predictor_count : int;
  mutable acc_preload_counter : int;
  mutable preload_counter : int;
  mutable stopped : bool;
}

let new_predictor t =
  t.predictor_count <- t.predictor_count + 1;
  SP.create ~detect_backward:t.config.detect_backward
    ~stream_list_length:t.config.stream_list_length
    ~load_length:t.config.load_length ()

let predictor_for t thread =
  let key = if t.config.per_thread then thread else 0 in
  let p = Int_table.find t.predictors key in
  if p != Int_table.dummy t.predictors then p
  else begin
    let p = new_predictor t in
    Int_table.set t.predictors key p;
    p
  end

(* Refresh the head stream's pending window in place after an [Extend]:
   first keep the old pending pages that are still queued (checked
   against the enclave's per-vpage queue index, O(1) each, before any new
   request can start a load), then append the predictions
   [npn + dir * i], i = 1..LOADLENGTH, that are not negative and that the
   enclave accepted, each in order. *)
let refresh_pending predictor enclave ~now =
  let kept = ref 0 in
  for i = 0 to SP.head_pending_count predictor - 1 do
    let page = SP.head_pending predictor i in
    if Enclave.preload_queued enclave page then begin
      SP.set_head_pending predictor !kept page;
      incr kept
    end
  done;
  SP.truncate_head_pending predictor !kept;
  let npn = SP.head_tail predictor in
  let dir = SP.head_dir predictor in
  for i = 1 to SP.load_length predictor do
    let page = npn + (dir * i) in
    if page >= 0 && Enclave.request_preload enclave ~now page then
      SP.push_head_pending predictor page
  done

let abort_dropped predictor enclave ~now =
  ignore
    (Enclave.abort_pending_preloads_pages enclave ~now (SP.dropped predictor)
       (SP.dropped_count predictor))

let on_fault t enclave (ctx : Enclave.fault_ctx) =
  if not t.stopped then begin
    let now = ctx.handled_at in
    let predictor = predictor_for t ctx.fault_thread in
    match SP.on_fault predictor ctx.fault_vpage with
    | SP.Extend -> refresh_pending predictor enclave ~now
    | SP.Restart_within ->
      (* Always called, even when none of the dropped pages is still
         queued: the abort syncs the enclave at [now]. *)
      abort_dropped predictor enclave ~now
    | SP.New_stream ->
      (* Only a replaced stream with pending pages has anything to
         abort. *)
      if SP.dropped_count predictor > 0 then abort_dropped predictor enclave ~now
  end

(* The §4.2 stop decision, audited against the paper's semantics:
   [completed] is the PreloadCounter — pages actually brought into EPC
   (issued-but-aborted/taken-over/skipped requests never count against
   accuracy); [acc] is the AccPreloadCounter harvested by the service
   scan.  Both are cumulative over the whole run — the paper's counters
   are never reset and the stop is one-way — and the margin absorbs the
   harvest lag (preloads completed but not yet scanned). *)
let should_stop config ~acc ~completed =
  config.stop_enabled && acc + config.stop_margin < completed / 2

let check_stop t enclave ~now =
  if
    (not t.stopped)
    && should_stop t.config ~acc:t.acc_preload_counter
         ~completed:t.preload_counter
  then begin
    t.stopped <- true;
    ignore (Enclave.abort_pending_preloads enclave ~now)
  end

let create config =
  {
    config;
    (* The dummy marks an unseen thread and is never handed out. *)
    predictors =
      Int_table.create
        ~dummy:(SP.create ~stream_list_length:1 ~load_length:1 ());
    predictor_count = 0;
    acc_preload_counter = 0;
    preload_counter = 0;
    stopped = false;
  }

let attach enclave config =
  let t = create config in
  Enclave.set_on_fault enclave (fun enc ctx -> on_fault t enc ctx);
  Enclave.set_on_preload_complete enclave (fun _ _ ->
      t.preload_counter <- t.preload_counter + 1);
  Enclave.set_on_preload_hit enclave (fun _ _ ->
      t.acc_preload_counter <- t.acc_preload_counter + 1);
  Enclave.set_on_scan enclave (fun enc at -> check_stop t enc ~now:at);
  t

let stopped t = t.stopped
let counters t = (t.acc_preload_counter, t.preload_counter)
let predictor t = predictor_for t 0
let thread_count t = t.predictor_count
