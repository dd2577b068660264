module Prng = Repro_util.Prng

type stats = { length : int; distinct_pages : int }

type t = {
  name : string;
  elrange_pages : int;
  footprint_pages : int;
  seed : int;
  pattern : Pattern.t;
  sites : (int * string) list;
  mutable stats : stats option;
  mutable arena_key : string option;
}

let make ~name ~elrange_pages ~footprint_pages ~seed ~sites pattern =
  if elrange_pages <= 0 then invalid_arg "Trace.make: elrange must be positive";
  {
    name;
    elrange_pages;
    footprint_pages;
    seed;
    pattern;
    sites;
    stats = None;
    arena_key = None;
  }

let cursor t slot = Pattern.cursor t.pattern (Prng.create t.seed) slot
let events t = Pattern.run t.pattern (Prng.create t.seed)

let site_name t site =
  match List.assoc_opt site t.sites with
  | Some name -> name
  | None -> Printf.sprintf "site%d" site

let note_stats t ~length ~distinct_pages =
  if t.stats = None then t.stats <- Some { length; distinct_pages }

let note_arena_key t key =
  if t.arena_key = None then t.arena_key <- Some key

let length t = Pattern.length t.pattern

(* [Trace_arena.compile] deposits the distinct-page count as a side
   effect of packing, so a trace that has been compiled (or measured
   once) never replays for it. *)
let count_distinct_pages t =
  match t.stats with
  | Some s -> s.distinct_pages
  | None ->
    let seen = Hashtbl.create 1024 in
    let slot = Pattern.slot () in
    let next = cursor t slot in
    while next () do
      Hashtbl.replace seen slot.vpage ()
    done;
    let distinct_pages = Hashtbl.length seen in
    note_stats t ~length:(length t) ~distinct_pages;
    distinct_pages
