(* The queue-stress trace the randomized tests share: [threads] threads,
   each advancing [streams] concurrent sequential streams with one
   access per fresh page and compute gaps too short to drain the load
   channel.  The footprint is far larger than any test EPC, so every
   scheme faults, preloads, evicts and scans, and DFP's pending-preload
   queue stays deep. *)

module Pattern = Workload.Pattern

let make ?(threads = 3) ?(streams = 5) ?(events = 4_000) ?(seed = 4242) label =
  let pages = (events / (threads * streams)) + 1 in
  let footprint = threads * streams * pages in
  let thread_pattern t =
    Pattern.multi_stream ~site:t
      ~streams:
        (List.init streams (fun i -> (((t * streams) + i) * pages, pages)))
      ~events_per_page:1 ~compute:2_000 ~jitter:0.1
  in
  Workload.Trace.make
    ~name:("queue-stress-" ^ label)
    ~elrange_pages:footprint ~footprint_pages:footprint ~seed
    ~sites:(List.init threads (fun t -> (t, Printf.sprintf "thread%d" t)))
    (Pattern.take events
       (Pattern.parallel (List.init threads (fun t -> (t, thread_pattern t)))))
