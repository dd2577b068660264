(* Compile a trace once into packed parallel buffers and replay it from
   there.

   Generating a trace runs its pattern's PRNG-driven cursor, and the
   experiment matrix looks at the same stream once per scheme cell.  The
   arena pays the generation once: the cursor is drained into four
   Bigarray int columns (site, vpage, compute, thread) allocated at the
   pattern's exact length, replays become tight index loops with no
   per-access allocation, and compiled arenas are memoised process-wide
   and (optionally) persisted to a checksummed on-disk cache so forked
   workers and repeated CLI invocations decode instead of regenerating.

   Identity.  A pattern is a closure, so it has no hashable structure;
   the cache key is the trace's header (name, seed, elrange, footprint,
   sites) plus a fingerprint of the first [fingerprint_events] accesses
   the pattern actually generates.  Two traces that agree on all of that
   and diverge only deeper into the stream would collide — the shipped
   models never do (their streams are PRNG-seeded, so any difference
   shows immediately), and the cost of the fingerprint is a bounded
   prefix replay, not a full one.  A trace value records its key at its
   first compile, so compiling the same value again is a table lookup.

   Derived arenas.  [derive] rewrites one column of a compiled arena (a
   fault plan's corrupted vpages, say) and optionally keeps only a
   prefix.  The derived arena shares the other three columns with its
   base, is memoised beside it under the base key plus a tag, and is
   never persisted: deriving is cheap next to regenerating the stream. *)

module Codec = Trace_codec

type t = { trace : Trace.t; packed : Codec.packed; key : string }

let trace a = a.trace
let length a = Codec.length a.packed
let distinct_pages a = a.packed.Codec.distinct_pages

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let site a i = Bigarray.Array1.get a.packed.Codec.site i
let vpage a i = Bigarray.Array1.get a.packed.Codec.vpage i
let compute a i = Bigarray.Array1.get a.packed.Codec.compute i
let thread a i = Bigarray.Array1.get a.packed.Codec.thread i

let iter_range a ~lo ~hi ~f =
  let lo = max lo 0 and hi = min hi (length a) in
  let p = a.packed in
  let s = p.Codec.site and v = p.Codec.vpage in
  let c = p.Codec.compute and th = p.Codec.thread in
  for i = lo to hi - 1 do
    f
      ~site:(Bigarray.Array1.unsafe_get s i)
      ~vpage:(Bigarray.Array1.unsafe_get v i)
      ~compute:(Bigarray.Array1.unsafe_get c i)
      ~thread:(Bigarray.Array1.unsafe_get th i)
  done

let iter a ~f = iter_range a ~lo:0 ~hi:(length a) ~f

let fold a ~init ~f =
  let acc = ref init in
  iter a ~f:(fun ~site ~vpage ~compute ~thread ->
      acc := f !acc ~site ~vpage ~compute ~thread);
  !acc

let get a i : Access.t =
  { site = site a i; vpage = vpage a i; compute = compute a i; thread = thread a i }

let to_seq a =
  let n = length a in
  let rec from i () = if i >= n then Seq.Nil else Seq.Cons (get a i, from (i + 1)) in
  from 0

(* ------------------------------------------------------------------ *)
(* Identity                                                            *)
(* ------------------------------------------------------------------ *)

let fingerprint_events = 128

let fingerprint trace =
  let h = ref Codec.(mix (mix 0 0x5eed) (String.length trace.Trace.name)) in
  let slot = Pattern.slot () in
  let next = Trace.cursor trace slot in
  let i = ref 0 in
  while !i < fingerprint_events && next () do
    h :=
      Codec.mix
        (Codec.mix (Codec.mix (Codec.mix !h slot.site) slot.vpage) slot.compute)
        slot.thread;
    incr i
  done;
  Codec.mix !h !i

let key trace fp =
  Printf.sprintf "v%d|%s|%d|%d|%d|%s|%d" Codec.version trace.Trace.name
    trace.Trace.seed trace.Trace.elrange_pages trace.Trace.footprint_pages
    (String.concat ";"
       (List.map
          (fun (id, label) -> Printf.sprintf "%d:%s" id label)
          trace.Trace.sites))
    fp

(* ------------------------------------------------------------------ *)
(* On-disk cache                                                       *)
(* ------------------------------------------------------------------ *)

let cache_env_var = "SGX_PRELOAD_ARENA_CACHE"

let cache_dir () =
  match Sys.getenv_opt cache_env_var with
  | None | Some "" -> None
  | Some dir -> Some dir

let cache_file dir k = Filename.concat dir (Digest.to_hex (Digest.string k) ^ ".arena")

let matches trace fp (p : Codec.packed) =
  (* The filename already digests the key, so this only guards against a
     digest collision or a hand-copied file: never replay someone else's
     stream. *)
  p.Codec.name = trace.Trace.name
  && p.Codec.seed = trace.Trace.seed
  && p.Codec.elrange_pages = trace.Trace.elrange_pages
  && p.Codec.footprint_pages = trace.Trace.footprint_pages
  && p.Codec.fingerprint = fp

let load_cached trace fp k =
  match cache_dir () with
  | None -> None
  | Some dir -> (
    match Codec.read_file ~path:(cache_file dir k) with
    | Ok p when matches trace fp p -> Some p
    | Ok _ | Error _ ->
      (* Missing, truncated, corrupt, stale version, wrong identity:
         every failure mode is a cache miss, never a run failure. *)
      None)

let store_cached k p =
  match cache_dir () with
  | None -> ()
  | Some dir -> (
    try
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Codec.write_file ~path:(cache_file dir k) p
    with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let compilations_counter = ref 0
let compilations () = !compilations_counter

(* Distinct values of the column's first [n] entries: a bitmap over
   [0, max] when the values are pages of a plausible address space, a
   table otherwise (a hand-written trace file may name any page). *)
let count_distinct (col : Codec.buf) n =
  let lo = ref 0 and hi = ref (-1) in
  for i = 0 to n - 1 do
    let v = Bigarray.Array1.unsafe_get col i in
    if v < !lo then lo := v;
    if v > !hi then hi := v
  done;
  if !lo >= 0 && !hi < (4 * n) + 65536 then begin
    let seen = Repro_util.Bitset.create (!hi + 1) in
    for i = 0 to n - 1 do
      Repro_util.Bitset.set seen (Bigarray.Array1.unsafe_get col i)
    done;
    Repro_util.Bitset.cardinal seen
  end
  else begin
    let seen = Hashtbl.create 1024 in
    for i = 0 to n - 1 do
      Hashtbl.replace seen (Bigarray.Array1.unsafe_get col i) ()
    done;
    Hashtbl.length seen
  end

(* The pattern's length is exact, so each column is allocated once, at
   its final size, off-heap: a compile puts nothing on the major heap,
   and its cost does not depend on how much garbage earlier work left
   there.  The cursor writes each event into one slot, copied into the
   columns. *)
let build trace fp =
  incr compilations_counter;
  let n = Pattern.length trace.Trace.pattern in
  let column () : Codec.buf = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  let site = column () and vpage = column () in
  let compute = column () and thread = column () in
  let slot = Pattern.slot () in
  let next = Trace.cursor trace slot in
  let miscount delivered =
    invalid_arg
      (Printf.sprintf "Trace_arena.compile: %s: pattern length %d, stream %s"
         trace.Trace.name n delivered)
  in
  for i = 0 to n - 1 do
    if not (next ()) then miscount (Printf.sprintf "ended after %d events" i);
    Bigarray.Array1.unsafe_set site i slot.site;
    Bigarray.Array1.unsafe_set vpage i slot.vpage;
    Bigarray.Array1.unsafe_set compute i slot.compute;
    Bigarray.Array1.unsafe_set thread i slot.thread
  done;
  if next () then miscount "ran longer";
  {
    Codec.name = trace.Trace.name;
    seed = trace.Trace.seed;
    elrange_pages = trace.Trace.elrange_pages;
    footprint_pages = trace.Trace.footprint_pages;
    fingerprint = fp;
    distinct_pages = count_distinct vpage n;
    site;
    vpage;
    compute;
    thread;
  }

let memo : (string, t) Hashtbl.t = Hashtbl.create 16
let clear_memo () = Hashtbl.reset memo

let compile_keyed trace =
  let fp = fingerprint trace in
  let k = key trace fp in
  Trace.note_arena_key trace k;
  let a =
    match Hashtbl.find_opt memo k with
    | Some a -> a
    | None ->
      let packed =
        match load_cached trace fp k with
        | Some p -> p
        | None ->
          let p = build trace fp in
          store_cached k p;
          p
      in
      let a = { trace; packed; key = k } in
      Hashtbl.replace memo k a;
      a
  in
  Trace.note_stats trace ~length:(length a) ~distinct_pages:(distinct_pages a);
  a

(* A value that compiled before already carries its key and its stats:
   a memo hit on it skips the fingerprint's prefix replay. *)
let compile trace =
  match Option.bind trace.Trace.arena_key (Hashtbl.find_opt memo) with
  | Some a -> a
  | None -> compile_keyed trace

let derive a ~tag ~length:n ~vpage =
  let k = a.key ^ "|" ^ tag in
  match Hashtbl.find_opt memo k with
  | Some d -> d
  | None ->
    let p = a.packed in
    let n = Int.max 0 (Int.min n (length a)) in
    let prefix col =
      if n = Codec.length p then col else Bigarray.Array1.sub col 0 n
    in
    let src = p.Codec.vpage in
    let col = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set col i (vpage i (Bigarray.Array1.unsafe_get src i))
    done;
    let packed =
      {
        p with
        Codec.distinct_pages = count_distinct col n;
        site = prefix p.Codec.site;
        vpage = col;
        compute = prefix p.Codec.compute;
        thread = prefix p.Codec.thread;
      }
    in
    let d = { trace = a.trace; packed; key = k } in
    Hashtbl.replace memo k d;
    d

let cache_path trace =
  match cache_dir () with
  | None -> None
  | Some dir ->
    let fp = fingerprint trace in
    Some (cache_file dir (key trace fp))
