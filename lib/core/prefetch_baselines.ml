module Enclave = Sgxsim.Enclave

type t = { name : string }

let attach_next_line enclave ~degree =
  if degree <= 0 then invalid_arg "attach_next_line: degree must be positive";
  Enclave.set_on_fault enclave (fun enc (ctx : Enclave.fault_ctx) ->
      let now = ctx.handled_at in
      for i = 1 to degree do
        ignore (Enclave.request_preload enc ~now (ctx.fault_vpage + i))
      done);
  { name = Printf.sprintf "next-line(%d)" degree }

let attach_stride enclave ~degree =
  if degree <= 0 then invalid_arg "attach_stride: degree must be positive";
  let last_page = ref None in
  let last_delta = ref None in
  Enclave.set_on_fault enclave (fun enc (ctx : Enclave.fault_ctx) ->
      let now = ctx.handled_at in
      let page = ctx.fault_vpage in
      (match (!last_page, !last_delta) with
      | Some prev, Some delta when page - prev = delta && delta <> 0 ->
        for i = 1 to degree do
          let target = page + (delta * i) in
          if target >= 0 && target < Enclave.elrange_pages enc then
            ignore (Enclave.request_preload enc ~now target)
        done
      | _ -> ());
      (match !last_page with
      | Some prev -> last_delta := Some (page - prev)
      | None -> ());
      last_page := Some page);
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
