module Enclave = Sgxsim.Enclave
module Page_lru = Repro_util.Page_lru

type t = { name : string }

let attach_next_line enclave ~degree =
  if degree <= 0 then invalid_arg "attach_next_line: degree must be positive";
  Enclave.set_on_fault enclave (fun enc (ctx : Enclave.fault_ctx) ->
      let now = ctx.handled_at in
      for i = 1 to degree do
        ignore (Enclave.request_preload enc ~now (ctx.fault_vpage + i))
      done);
  { name = Printf.sprintf "next-line(%d)" degree }

(* The last fault's page and the delta that led to it, as ints plus a
   count of faults seen (capped at 2): a delta exists from the second
   fault on, a repeat can be judged from the third.  Plain ints, so a
   fault stores nothing boxed. *)
type stride_state = {
  mutable seen : int;
  mutable last_page : int;
  mutable last_delta : int;
}

let attach_stride enclave ~degree =
  if degree <= 0 then invalid_arg "attach_stride: degree must be positive";
  let s = { seen = 0; last_page = 0; last_delta = 0 } in
  Enclave.set_on_fault enclave (fun enc (ctx : Enclave.fault_ctx) ->
      let now = ctx.handled_at in
      let page = ctx.fault_vpage in
      let delta = s.last_delta in
      if s.seen >= 2 && page - s.last_page = delta && delta <> 0 then
        for i = 1 to degree do
          let target = page + (delta * i) in
          if target >= 0 && target < Enclave.elrange_pages enc then
            ignore (Enclave.request_preload enc ~now target)
        done;
      if s.seen >= 1 then s.last_delta <- page - s.last_page;
      s.last_page <- page;
      if s.seen < 2 then s.seen <- s.seen + 1);
  { name = Printf.sprintf "stride(%d)" degree }

let attach_markov enclave ~table_pages ~degree =
  if degree <= 0 then invalid_arg "attach_markov: degree must be positive";
  if table_pages <= 0 then invalid_arg "attach_markov: table_pages must be positive";
  (* page -> most-recent-first successor list (bounded by [degree]);
     entries tracked in an LRU so the table stays bounded. *)
  let successors : (int, int list) Hashtbl.t = Hashtbl.create (2 * table_pages) in
  let recency =
    Page_lru.create ~capacity:table_pages ~pages:(Enclave.elrange_pages enclave)
  in
  let last_fault = ref None in
  Enclave.set_on_fault enclave (fun enc (ctx : Enclave.fault_ctx) ->
      let now = ctx.handled_at in
      let page = ctx.fault_vpage in
      (* Learn: the previous fault is followed by this one. *)
      (match !last_fault with
      | Some prev ->
        let olds = Option.value ~default:[] (Hashtbl.find_opt successors prev) in
        let news = page :: List.filter (fun p -> p <> page) olds in
        let news = List.filteri (fun i _ -> i < degree) news in
        ignore (Page_lru.touch recency prev);
        Hashtbl.replace successors prev news;
        (* Entries evicted from the recency set keep their successor
           lists until this amortised prune; the table stays O(size). *)
        if Hashtbl.length successors > 2 * table_pages then begin
          let dead =
            Hashtbl.fold
              (fun key _ acc ->
                if Page_lru.mem recency key then acc else key :: acc)
              successors []
          in
          List.iter (Hashtbl.remove successors) dead
        end
      | None -> ());
      last_fault := Some page;
      (* Predict: replay this page's remembered successors. *)
      match Hashtbl.find_opt successors page with
      | Some known ->
        List.iter (fun p -> ignore (Enclave.request_preload enc ~now p)) known
      | None -> ());
  { name = Printf.sprintf "markov(%d,%d)" table_pages degree }

let name t = t.name
