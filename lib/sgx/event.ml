type t =
  | Access of { at : int; vpage : int }
  | Fault of { at : int; vpage : int }
  | Aex_done of { at : int; vpage : int }
  | Load_start of { at : int; vpage : int; kind : Load_channel.kind }
  | Load_done of { at : int; vpage : int; kind : Load_channel.kind }
  | Eresume of { at : int; vpage : int }
  | Evict of { at : int; vpage : int }
  | Preload_queued of { at : int; vpage : int }
  | Preload_aborted of { at : int; count : int }
  | Sip_check of { at : int; vpage : int; present : bool }
  | Sip_notify of { at : int; vpage : int }
  | Scan of { at : int }
  | Crash of { at : int; pages_lost : int }

let at = function
  | Access { at; _ }
  | Fault { at; _ }
  | Aex_done { at; _ }
  | Load_start { at; _ }
  | Load_done { at; _ }
  | Eresume { at; _ }
  | Evict { at; _ }
  | Preload_queued { at; _ }
  | Preload_aborted { at; _ }
  | Sip_check { at; _ }
  | Sip_notify { at; _ }
  | Scan { at }
  | Crash { at; _ } ->
    at

let vpage = function
  | Access { vpage; _ }
  | Fault { vpage; _ }
  | Aex_done { vpage; _ }
  | Load_start { vpage; _ }
  | Load_done { vpage; _ }
  | Eresume { vpage; _ }
  | Evict { vpage; _ }
  | Preload_queued { vpage; _ }
  | Sip_check { vpage; _ }
  | Sip_notify { vpage; _ } ->
    Some vpage
  | Preload_aborted _ | Scan _ | Crash _ -> None

let kind_str = function
  | Load_channel.Demand -> "demand"
  | Load_channel.Preload_dfp -> "dfp"
  | Load_channel.Preload_sip -> "sip"

let pp fmt = function
  | Access { at; vpage } -> Format.fprintf fmt "%10d access    p%d" at vpage
  | Fault { at; vpage } -> Format.fprintf fmt "%10d FAULT     p%d" at vpage
  | Aex_done { at; vpage } -> Format.fprintf fmt "%10d aex-done  p%d" at vpage
  | Load_start { at; vpage; kind } ->
    Format.fprintf fmt "%10d load      p%d (%s)" at vpage (kind_str kind)
  | Load_done { at; vpage; kind } ->
    Format.fprintf fmt "%10d load-done p%d (%s)" at vpage (kind_str kind)
  | Eresume { at; vpage } -> Format.fprintf fmt "%10d eresume   p%d" at vpage
  | Evict { at; vpage } -> Format.fprintf fmt "%10d evict     p%d" at vpage
  | Preload_queued { at; vpage } ->
    Format.fprintf fmt "%10d queued    p%d" at vpage
  | Preload_aborted { at; count } ->
    Format.fprintf fmt "%10d abort     %d queued preload(s)" at count
  | Sip_check { at; vpage; present } ->
    Format.fprintf fmt "%10d sip-check p%d (%s)" at vpage
      (if present then "present" else "absent")
  | Sip_notify { at; vpage } -> Format.fprintf fmt "%10d sip-notify p%d" at vpage
  | Scan { at } -> Format.fprintf fmt "%10d clock-scan" at
  | Crash { at; pages_lost } ->
    Format.fprintf fmt "%10d CRASH     %d resident page(s) lost" at pages_lost

type log = Null | Ring of { ring : t Repro_util.Ring.t; mutable recorded : int }

let make_log ~capacity = Ring { ring = Repro_util.Ring.create capacity; recorded = 0 }

let recording = function Null -> false | Ring _ -> true

let record log event =
  match log with
  | Null -> ()
  | Ring r ->
    r.recorded <- r.recorded + 1;
    Repro_util.Ring.push r.ring event

let events = function
  | Null -> []
  | Ring r ->
    (* Recording order can differ from event time: the lazy simulation
       backdates background work (e.g. a preload that started during an
       already-recorded ERESUME).  Present the timeline chronologically,
       keeping insertion order among equal timestamps. *)
    List.stable_sort
      (fun a b -> compare (at a) (at b))
      (Repro_util.Ring.to_list r.ring)

let recorded = function Null -> 0 | Ring r -> r.recorded

let truncated = function
  | Null -> false
  | Ring r -> r.recorded > Repro_util.Ring.length r.ring

let null_log = Null
