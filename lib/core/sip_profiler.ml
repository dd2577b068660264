module Trace = Workload.Trace
module Int_table = Repro_util.Int_table
module Page_lru = Repro_util.Page_lru

type access_class = Class1 | Class2 | Class3

type site_counts = { mutable c1 : int; mutable c2 : int; mutable c3 : int }

type config = {
  stream_list_length : int;
  load_length : int;
  residency_pages : int;
}

let default_config ~residency_pages =
  { stream_list_length = 30; load_length = 4; residency_pages }

type t = {
  workload : string;
  input : string;
  config : config;
  per_site : site_counts Int_table.t;
  mutable total_accesses : int;
}

let classify_one predictor cache page =
  if Page_lru.touch cache page then Class1
  else begin
    (* A non-resident access is a (simulated) fault: it is classified
       against the stream list as it stood, then enters the fault
       history exactly as the OS would record it. *)
    let cls = if Stream_predictor.covers predictor page then Class2 else Class3 in
    ignore (Stream_predictor.on_fault predictor page);
    cls
  end

let profile ?(input = "") config trace =
  let predictor =
    Stream_predictor.create ~stream_list_length:config.stream_list_length
      ~load_length:config.load_length ()
  in
  let cache =
    Page_lru.create ~capacity:config.residency_pages
      ~pages:trace.Trace.elrange_pages
  in
  let t =
    {
      workload = trace.Trace.name;
      input;
      config;
      per_site = Int_table.create ~dummy:{ c1 = 0; c2 = 0; c3 = 0 };
      total_accesses = 0;
    }
  in
  let arena = Workload.Trace_arena.compile trace in
  Workload.Trace_arena.iter arena ~f:(fun ~site ~vpage ~compute:_ ~thread:_ ->
      let counts =
        let c = Int_table.find t.per_site site in
        if c != Int_table.dummy t.per_site then c
        else begin
          let c = { c1 = 0; c2 = 0; c3 = 0 } in
          Int_table.set t.per_site site c;
          c
        end
      in
      t.total_accesses <- t.total_accesses + 1;
      match classify_one predictor cache vpage with
      | Class1 -> counts.c1 <- counts.c1 + 1
      | Class2 -> counts.c2 <- counts.c2 + 1
      | Class3 -> counts.c3 <- counts.c3 + 1);
  t

let site_counts t site =
  let c = Int_table.find t.per_site site in
  if c == Int_table.dummy t.per_site then None else Some c

let sites t =
  Int_table.fold (fun site counts acc -> (site, counts) :: acc) t.per_site []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let irregular_ratio c =
  let total = c.c1 + c.c2 + c.c3 in
  if total = 0 then 0.0 else float_of_int c.c3 /. float_of_int total

let totals t =
  let acc = { c1 = 0; c2 = 0; c3 = 0 } in
  Int_table.iter
    (fun _ c ->
      acc.c1 <- acc.c1 + c.c1;
      acc.c2 <- acc.c2 + c.c2;
      acc.c3 <- acc.c3 + c.c3)
    t.per_site;
  acc
