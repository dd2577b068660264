(* Tests of the compiled trace arena: the binary codec (round-trip,
   rejection of malformed files), the one-compilation-per-trace memo,
   the on-disk cache (cold store, warm decode, invalidation on
   seed/pattern/version change, corrupt-file regeneration), and the
   fault plan's perturbed arena against the [Seq] reference it
   replaces. *)

module Prng = Repro_util.Prng
module Access = Workload.Access
module Pattern = Workload.Pattern
module Trace = Workload.Trace
module Arena = Workload.Trace_arena
module Codec = Workload.Trace_codec
module Fault_plan = Sim.Fault_plan

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_error name needle = function
  | Ok _ -> Alcotest.fail (name ^ ": decode accepted a malformed file")
  | Error msg ->
    checkb
      (Printf.sprintf "%s: %S mentions %S" name msg needle)
      true (contains msg needle)

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let quad (a : Access.t) = (a.site, a.vpage, a.compute, a.thread)
let events_of trace = List.map quad (List.of_seq (Trace.events trace))
let arena_list a = List.map quad (List.of_seq (Arena.to_seq a))

(* A mixed deterministic/random pattern so the columns carry real
   variety (multiple sites, PRNG-drawn pages, jittered compute). *)
let mk ?(name = "arena") ~seed ~pages () =
  let pattern =
    Pattern.interleave
      [
        Pattern.sequential ~site:0 ~base:0 ~pages ~events_per_page:2
          ~compute:100 ~jitter:0.2;
        Pattern.uniform_random ~site:1 ~base:0 ~pages ~events:(3 * pages)
          ~compute:50 ~jitter:0.5;
      ]
  in
  Trace.make ~name ~elrange_pages:(2 * pages) ~footprint_pages:pages ~seed
    ~sites:[ (0, "seq"); (1, "rand") ]
    pattern

let buf_of_list l : Codec.buf =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (List.length l) in
  List.iteri (Bigarray.Array1.set a) l;
  a

let list_of_buf (b : Codec.buf) =
  List.init (Bigarray.Array1.dim b) (Bigarray.Array1.get b)

let packed ?(name = "p") ?(seed = 1) ?(fingerprint = 99) cols =
  let site, vpage, compute, thread = cols in
  {
    Codec.name;
    seed;
    elrange_pages = 64;
    footprint_pages = 32;
    fingerprint;
    distinct_pages = 5;
    site = buf_of_list site;
    vpage = buf_of_list vpage;
    compute = buf_of_list compute;
    thread = buf_of_list thread;
  }

let packed_equal a b =
  a.Codec.name = b.Codec.name
  && a.Codec.seed = b.Codec.seed
  && a.Codec.elrange_pages = b.Codec.elrange_pages
  && a.Codec.footprint_pages = b.Codec.footprint_pages
  && a.Codec.fingerprint = b.Codec.fingerprint
  && a.Codec.distinct_pages = b.Codec.distinct_pages
  && list_of_buf a.Codec.site = list_of_buf b.Codec.site
  && list_of_buf a.Codec.vpage = list_of_buf b.Codec.vpage
  && list_of_buf a.Codec.compute = list_of_buf b.Codec.compute
  && list_of_buf a.Codec.thread = list_of_buf b.Codec.thread

(* Codec's FNV offset basis, duplicated so the tests can re-seal a
   deliberately patched file and prove decode rejects it for the right
   reason (version, trailing garbage) instead of tripping the checksum
   first. *)
let hash_seed = 0x27d4eb2f165667c5

let reseal body =
  let h = ref hash_seed in
  String.iter (fun ch -> h := Codec.mix !h (Char.code ch)) body;
  let tail = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set tail i (Char.chr ((!h lsr (8 * i)) land 0xff))
  done;
  body ^ Bytes.to_string tail

let strip_checksum s = String.sub s 0 (String.length s - 8)

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_whole path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* Each cache test gets its own scratch directory (cleared of stale
   entries from previous runs) and restores the disabled-cache state on
   the way out, so test order never matters. *)
let dir_counter = ref 0

let with_cache_dir f =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sgx-arena-test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  Array.iter
    (fun fn -> try Sys.remove (Filename.concat dir fn) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  Unix.putenv Arena.cache_env_var dir;
  Fun.protect
    ~finally:(fun () -> Unix.putenv Arena.cache_env_var "")
    (fun () -> f dir)

let the_cache_path t =
  match Arena.cache_path t with
  | Some p -> p
  | None -> Alcotest.fail "cache should be enabled here"

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip_empty () =
  let p = packed ([], [], [], []) in
  match Codec.decode (Codec.encode p) with
  | Ok p' ->
    checkb "empty arena round-trips" true (packed_equal p p');
    checki "length" 0 (Codec.length p')
  | Error msg -> Alcotest.fail msg

let codec_roundtrip_prop =
  (* Columns mix tiny, mid-size and huge magnitudes of either sign so
     every LEB128 width and the zigzag mapping get exercised. *)
  let entry =
    QCheck2.Gen.(
      oneof
        [
          int_range (-4) 4;
          int_range (-1_000_000) 1_000_000;
          map (fun n -> n lsl 40) (int_range (-1000) 1000);
        ])
  in
  let gen =
    QCheck2.Gen.(
      pair
        (pair small_nat (string_size ~gen:printable (int_range 0 12)))
        (list_size (int_range 0 200) (quad entry entry entry entry)))
  in
  QCheck2.Test.make ~name:"encode/decode round-trips any columns" ~count:100
    gen
    (fun ((seed, name), rows) ->
      let col f = List.map f rows in
      let p =
        packed ~name ~seed ~fingerprint:(seed * 7919)
          ( col (fun (s, _, _, _) -> s),
            col (fun (_, v, _, _) -> v),
            col (fun (_, _, c, _) -> c),
            col (fun (_, _, _, t) -> t) )
      in
      match Codec.decode (Codec.encode p) with
      | Ok p' -> packed_equal p p'
      | Error _ -> false)

let test_codec_rejects_short_input () =
  check_error "short" "truncated file" (Codec.decode "hi")

let test_codec_rejects_bad_magic () =
  check_error "magic" "bad magic"
    (Codec.decode "NOTANARENAFILE..................")

let test_codec_rejects_bit_flip () =
  let enc = Codec.encode (packed ([ 1; 2 ], [ 3; 4 ], [ 5; 6 ], [ 0; 1 ])) in
  let mid = String.length enc / 2 in
  let b = Bytes.of_string enc in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x40));
  check_error "bit flip" "checksum mismatch" (Codec.decode (Bytes.to_string b))

let test_codec_rejects_truncation () =
  let enc = Codec.encode (packed ([ 1; 2; 3 ], [ 4; 5; 6 ], [ 7; 8; 9 ], [ 0; 0; 1 ])) in
  List.iter
    (fun keep ->
      match Codec.decode (String.sub enc 0 keep) with
      | Ok _ ->
        Alcotest.fail (Printf.sprintf "accepted a %d-byte prefix" keep)
      | Error _ -> ())
    [ String.length enc - 1; String.length enc - 5; 20; 16 ]

let test_codec_rejects_future_version () =
  let enc = Codec.encode (packed ([ 1 ], [ 2 ], [ 3 ], [ 0 ])) in
  let body = Bytes.of_string (strip_checksum enc) in
  (* The version varint sits right after the 8-byte magic; the current
     version is small enough to zigzag into one byte, so patching that
     byte to zigzag(version + 1) forges a future-format file. *)
  checki "version varint is one byte"
    ((Codec.version lsl 1) land 0x7f)
    (Char.code (Bytes.get body 8));
  Bytes.set body 8 (Char.chr ((Codec.version + 1) lsl 1));
  check_error "version"
    (Printf.sprintf "unsupported version %d" (Codec.version + 1))
    (Codec.decode (reseal (Bytes.to_string body)))

let test_codec_rejects_trailing_garbage () =
  let enc = Codec.encode (packed ([ 1 ], [ 2 ], [ 3 ], [ 0 ])) in
  let forged = reseal (strip_checksum enc ^ "\x00") in
  check_error "garbage" "trailing garbage" (Codec.decode forged)

let test_codec_write_read_file () =
  with_cache_dir (fun dir ->
      let p = packed ([ 9; -9 ], [ 1; 2 ], [ 0; 0 ], [ 1; 0 ]) in
      let path = Filename.concat dir "direct.arena" in
      Codec.write_file ~path p;
      (match Codec.read_file ~path with
      | Ok p' -> checkb "file round-trip" true (packed_equal p p')
      | Error msg -> Alcotest.fail msg);
      match Codec.read_file ~path:(Filename.concat dir "absent.arena") with
      | Ok _ -> Alcotest.fail "read a missing file"
      | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Arena replay                                                        *)
(* ------------------------------------------------------------------ *)

let arena_matches_events_prop =
  let gen = QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 40)) in
  QCheck2.Test.make ~name:"arena replay equals Trace.events" ~count:50 gen
    (fun (seed, pages) ->
      let t =
        mk ~name:(Printf.sprintf "arena-prop-%d-%d" seed pages) ~seed ~pages ()
      in
      let a = Arena.compile t in
      let evs = events_of t in
      arena_list a = evs
      && Arena.length a = List.length evs
      && Arena.distinct_pages a
         = List.length
             (List.sort_uniq compare (List.map (fun (_, v, _, _) -> v) evs)))

let test_arena_iter_fold_indexed_agree () =
  let t = mk ~name:"arena-views" ~seed:3 ~pages:16 () in
  let a = Arena.compile t in
  let via_iter = ref [] in
  Arena.iter a ~f:(fun ~site ~vpage ~compute ~thread ->
      via_iter := (site, vpage, compute, thread) :: !via_iter);
  checkb "iter = to_seq" true (List.rev !via_iter = arena_list a);
  let count =
    Arena.fold a ~init:0 ~f:(fun n ~site:_ ~vpage:_ ~compute:_ ~thread:_ ->
        n + 1)
  in
  checki "fold visits every event" (Arena.length a) count;
  List.iteri
    (fun i q ->
      checkb "indexed columns" true
        (q = (Arena.site a i, Arena.vpage a i, Arena.compute a i, Arena.thread a i));
      checkb "get record" true (quad (Arena.get a i) = q))
    (arena_list a);
  checkb "trace accessor" true (Arena.trace a == t)

let test_one_compilation_per_trace () =
  let t = mk ~name:"arena-once" ~seed:11 ~pages:16 () in
  let c0 = Arena.compilations () in
  let a = Arena.compile t in
  checki "first compile builds" 1 (Arena.compilations () - c0);
  ignore (Arena.compile t);
  checki "second compile memo-hits" 1 (Arena.compilations () - c0);
  checki "Trace.length from arena" (Arena.length a) (Trace.length t);
  checki "distinct pages from arena" (Arena.distinct_pages a)
    (Trace.count_distinct_pages t);
  checki "stats queries do not recompile" 1 (Arena.compilations () - c0);
  (* A structurally identical trace *value* keys to the same memo entry:
     the cache is keyed on identity (header + stream fingerprint), not
     on physical equality of the closure. *)
  let t' = mk ~name:"arena-once" ~seed:11 ~pages:16 () in
  ignore (Arena.compile t');
  checki "identical trace value memo-hits" 1 (Arena.compilations () - c0)

(* A hand-written trace may name pages far outside any plausible
   address space; counting them must not size a bitmap by the largest. *)
let test_distinct_pages_of_sparse_pages () =
  let ev vpage = Access.make ~site:0 ~vpage ~compute:1 () in
  let t =
    Trace.make ~name:"arena-sparse" ~elrange_pages:8 ~footprint_pages:4 ~seed:0
      ~sites:[]
      (Pattern.of_events [ ev 5; ev (1 lsl 40); ev 5; ev 0; ev (1 lsl 40) ])
  in
  let a = Arena.compile t in
  checki "length" 5 (Arena.length a);
  checki "distinct pages" 3 (Arena.distinct_pages a);
  checki "vpage kept" (1 lsl 40) (Arena.vpage a 1)

(* A repeated compile of the same trace value looks up the key it
   recorded the first time instead of replaying the stream prefix. *)
let test_compile_hit_is_a_lookup () =
  let t = mk ~name:"arena-hit" ~seed:12 ~pages:64 () in
  let a = Arena.compile t in
  let c0 = Arena.compilations () in
  let w0 = Gc.minor_words () in
  let a' = Arena.compile t in
  let words = Gc.minor_words () -. w0 in
  checkb "same arena" true (a == a');
  checki "no compilation" 0 (Arena.compilations () - c0);
  if not (words < 100.0) then
    Alcotest.failf "memo hit allocated %.0f words, contract is under 100" words;
  (* The recorded key never masks a dropped memo entry. *)
  Arena.clear_memo ();
  let a'' = Arena.compile t in
  checki "recompiled after clear_memo" 1 (Arena.compilations () - c0);
  checkb "to the same stream" true (arena_list a'' = arena_list a)

(* ------------------------------------------------------------------ *)
(* Perturbed arenas                                                    *)
(* ------------------------------------------------------------------ *)

let trace_plan ~seed ~corrupt ~truncate =
  {
    Fault_plan.none with
    name = "arena-perturb";
    seed;
    trace = Some { Fault_plan.corrupt_chance = corrupt; truncate_after = truncate };
  }

let perturbed_arena_prop =
  let cuts = [ "none"; "zero"; "mid"; "past" ] in
  let gen =
    QCheck2.Gen.(
      quad (int_range 0 1_000_000)
        (oneofl [ 0.0; 0.01; 0.5; 1.0 ])
        (oneofl cuts) (int_range 1 40))
  in
  QCheck2.Test.make ~name:"perturbed arena equals perturb_trace" ~count:80
    ~print:QCheck2.Print.(quad int float string int)
    gen
    (fun (seed, corrupt, cut, pages) ->
      let t =
        mk ~name:(Printf.sprintf "arena-perturb-%d" pages) ~seed:(seed mod 97)
          ~pages ()
      in
      let base = Arena.compile t in
      let n = Arena.length base in
      let truncate =
        match cut with
        | "zero" -> Some 0
        | "mid" -> Some (n / 2)
        | "past" -> Some (n + 7)
        | _ -> None
      in
      let plan = trace_plan ~seed ~corrupt ~truncate in
      let elrange_pages = t.Trace.elrange_pages in
      let reference =
        List.map quad
          (List.of_seq
             (Fault_plan.perturb_trace plan ~elrange_pages (Arena.to_seq base)))
      in
      let d = Fault_plan.perturb_arena plan ~elrange_pages base in
      Arena.length d = List.length reference && arena_list d = reference)

let test_perturbed_arena_memo () =
  let t = mk ~name:"arena-perturb-memo" ~seed:5 ~pages:32 () in
  let elrange_pages = t.Trace.elrange_pages in
  let full = Seq.length (Trace.events t) in
  let plan = trace_plan ~seed:9 ~corrupt:0.5 ~truncate:(Some 50) in
  let perturb plan = Fault_plan.perturb_arena plan ~elrange_pages (Arena.compile t) in
  let d = perturb plan in
  checkb "same trace and plan: one arena" true (d == perturb plan);
  checkb "another seed: another arena" true
    (d != perturb (Fault_plan.with_seed plan 10));
  checkb "no trace fault: the base itself" true
    (perturb Fault_plan.none == Arena.compile t);
  checki "truncated" 50 (Arena.length d);
  checkb "corrupted" true
    (arena_list d <> List.filteri (fun i _ -> i < 50) (arena_list (Arena.compile t)));
  checki "base Trace.length untouched" full (Trace.length t);
  checki "base distinct pages untouched"
    (Arena.distinct_pages (Arena.compile t))
    (Trace.count_distinct_pages t);
  checki "derived distinct pages count its own column"
    (List.length (List.sort_uniq compare (List.map (fun (_, v, _, _) -> v) (arena_list d))))
    (Arena.distinct_pages d);
  Arena.clear_memo ();
  let d' = perturb plan in
  checkb "clear_memo drops it" true (d' != d);
  checkb "and it derives again to the same stream" true (arena_list d' = arena_list d)

(* ------------------------------------------------------------------ *)
(* On-disk cache                                                       *)
(* ------------------------------------------------------------------ *)

let test_cache_disabled_without_env () =
  Unix.putenv Arena.cache_env_var "";
  checks "env var name" "SGX_PRELOAD_ARENA_CACHE" Arena.cache_env_var;
  checkb "empty value disables" true (Arena.cache_dir () = None);
  checkb "no path when disabled" true
    (Arena.cache_path (mk ~name:"arena-noenv" ~seed:1 ~pages:8 ()) = None)

let test_cache_cold_store_warm_decode () =
  with_cache_dir (fun dir ->
      let t = mk ~name:"arena-disk" ~seed:21 ~pages:24 () in
      let path = the_cache_path t in
      checks "entry lives under the cache dir" dir (Filename.dirname path);
      let c0 = Arena.compilations () in
      let a = Arena.compile t in
      checki "cold compile builds" 1 (Arena.compilations () - c0);
      checkb "cold compile stores" true (Sys.file_exists path);
      Arena.clear_memo ();
      let t' = mk ~name:"arena-disk" ~seed:21 ~pages:24 () in
      let a' = Arena.compile t' in
      checki "warm compile decodes, no rebuild" 1 (Arena.compilations () - c0);
      checkb "warm replay is bit-identical" true (arena_list a' = arena_list a);
      checki "decoded stats memoised" (Arena.length a) (Trace.length t'))

let test_cache_keyed_on_seed_and_pattern () =
  with_cache_dir (fun _dir ->
      let t1 = mk ~name:"arena-inv" ~seed:1 ~pages:24 () in
      let t2 = mk ~name:"arena-inv" ~seed:2 ~pages:24 () in
      checkb "seed change, different entry" true
        (the_cache_path t1 <> the_cache_path t2);
      (* Same header, different pattern: only the stream fingerprint can
         tell them apart. *)
      let t3 =
        Trace.make ~name:"arena-inv" ~elrange_pages:48 ~footprint_pages:24
          ~seed:1
          ~sites:[ (0, "seq"); (1, "rand") ]
          (Pattern.sequential ~site:0 ~base:0 ~pages:24 ~events_per_page:1
             ~compute:10 ~jitter:0.0)
      in
      checkb "pattern change, different entry" true
        (the_cache_path t1 <> the_cache_path t3);
      let c0 = Arena.compilations () in
      ignore (Arena.compile t1);
      ignore (Arena.compile t2);
      ignore (Arena.compile t3);
      checki "three identities, three builds" 3 (Arena.compilations () - c0);
      Arena.clear_memo ();
      ignore (Arena.compile t1);
      ignore (Arena.compile t2);
      ignore (Arena.compile t3);
      checki "all three decode warm" 3 (Arena.compilations () - c0))

let test_cache_rejects_damage_and_regenerates () =
  with_cache_dir (fun _dir ->
      let t = mk ~name:"arena-corrupt" ~seed:5 ~pages:24 () in
      let a = Arena.compile t in
      let path = the_cache_path t in
      let good = read_whole path in
      let expect_rebuild label damage =
        write_whole path damage;
        Arena.clear_memo ();
        let c0 = Arena.compilations () in
        let a' = Arena.compile t in
        checki (label ^ " forces a rebuild") 1 (Arena.compilations () - c0);
        checkb (label ^ " replay unchanged") true
          (arena_list a' = arena_list a);
        checks (label ^ " rewrites the entry byte-identically") good
          (read_whole path)
      in
      expect_rebuild "truncated entry"
        (String.sub good 0 (String.length good / 2));
      let flipped = Bytes.of_string good in
      let mid = Bytes.length flipped / 2 in
      Bytes.set flipped mid
        (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x01));
      expect_rebuild "corrupt entry" (Bytes.to_string flipped);
      let future = Bytes.of_string (strip_checksum good) in
      Bytes.set future 8 (Char.chr ((Codec.version + 1) lsl 1));
      expect_rebuild "stale-version entry" (reseal (Bytes.to_string future));
      expect_rebuild "garbage entry" "NOTANARENAFILE..................";
      (* A valid file for a *different* trace under this trace's name:
         the identity check must refuse to replay someone else's
         stream. *)
      let other = mk ~name:"arena-corrupt-other" ~seed:6 ~pages:24 () in
      ignore (Arena.compile other);
      expect_rebuild "foreign entry" (read_whole (the_cache_path other)))

(* ------------------------------------------------------------------ *)
(* Golden digests                                                      *)
(* ------------------------------------------------------------------ *)

(* Every shipped model's compiled stream at EPC 256, train and ref0,
   pinned to the digest the generator produced when these were recorded:
   any changed event, length or distinct-page count fails.  The digest
   is MD5 over the length, the distinct-page count and the four columns
   as little-endian 64-bit ints, chained in 64 KiB blocks. *)
let golden_epc = 256

let golden_models =
  List.map (fun (name, _, m) -> (name, m)) Workload.Spec.all
  @ Workload.Vision.all @ Workload.Parallel_apps.all @ Workload.Synthetic.all

let arena_digest a =
  let buf = Buffer.create 65_536 in
  let acc = ref (Digest.string "") in
  let flush () =
    acc := Digest.string (!acc ^ Buffer.contents buf);
    Buffer.clear buf
  in
  let add v =
    Buffer.add_int64_le buf (Int64.of_int v);
    if Buffer.length buf >= 65_536 then flush ()
  in
  let n = Arena.length a in
  add n;
  add (Arena.distinct_pages a);
  List.iter
    (fun col ->
      for i = 0 to n - 1 do
        add (col a i)
      done)
    [ Arena.site; Arena.vpage; Arena.compute; Arena.thread ];
  flush ();
  Digest.to_hex !acc

let golden_digests =
  [
    ("microbenchmark", "train", "674bcff333aebc7e3e1c25825d08a4b7");
    ("microbenchmark", "ref0", "337e3d903dd3bef67b821cf4c1f412d4");
    ("bwaves", "train", "fc8f51ce82ea4d590ededc361b3f0033");
    ("bwaves", "ref0", "c281bc1a81a383d07baa16d735c3b5df");
    ("lbm", "train", "1495f1fd9bfecd8461d3b00928522d39");
    ("lbm", "ref0", "39d5ed17f3dff98b52e365d92aef360d");
    ("wrf", "train", "7a77b2824a52718fa7de1cd991f1b8d5");
    ("wrf", "ref0", "5d5716b5032611682e9851f2e1f0894a");
    ("roms", "train", "04421231cf7f5b4d66bf4fa569955c5b");
    ("roms", "ref0", "58969228b71909e6e160eb3d02b5340c");
    ("mcf", "train", "1165064b0dfaae3b08fcf227f29b8fb3");
    ("mcf", "ref0", "4e0cae3e6c6459c8f9442e8bcb32a96a");
    ("mcf.2006", "train", "d4e6fd41ce63abcc32347c24eaecbedb");
    ("mcf.2006", "ref0", "de0fd281fe9d4af22ae46b1055454c3c");
    ("deepsjeng", "train", "4bb3ac8bc4ec2419d4d1b29eb8f5c1d5");
    ("deepsjeng", "ref0", "1e0ad97d2e884c890e16764d022b076c");
    ("omnetpp", "train", "1612891072cc5e99aaefbffd12fe33a7");
    ("omnetpp", "ref0", "2750c33f5b817f513ad49ce032b05ccf");
    ("xz", "train", "fb219023a4c3038d4457f8ff6c71ceeb");
    ("xz", "ref0", "22c4a91f79eec0e700446fbfd9fa0226");
    ("cactuBSSN", "train", "c772bc318a9bf8446c708ac20bc9405c");
    ("cactuBSSN", "ref0", "6ea867d0c8b3d105b89eb6a1c97ac9ec");
    ("imagick", "train", "1efdb6a58e8e4840a437da0ab999e9f9");
    ("imagick", "ref0", "75b4a3c1c0a9b56e2d8355aa9df6d95c");
    ("leela", "train", "0f93f4829306e5bd822fb1f28e1e6cda");
    ("leela", "ref0", "e6c15bc7c4dbd9cb22a8910819f6002d");
    ("nab", "train", "e2965eafec3416e5181967fa34a540d1");
    ("nab", "ref0", "c6afa1d873bbd3fe7fd23e729cd1748a");
    ("exchange2", "train", "f4ae867e342fc3a309d51f31b15b9b41");
    ("exchange2", "ref0", "eef3801937fba2ca4c878a61ef8809fb");
    ("SIFT", "train", "1b5f67ef4684af8a63d85fc86dca4e56");
    ("SIFT", "ref0", "49e6101fb5fefe7e7390b080eaeea64d");
    ("MSER", "train", "6661ead0ea793e465e3dcb61583f682f");
    ("MSER", "ref0", "66ba3306ec52d72b0016d740e561cac5");
    ("mixed-blood", "train", "b82754f7fb715f4217f15e2dac531927");
    ("mixed-blood", "ref0", "f33cf2145d353174cb5b71eaed9011dc");
    ("mt-scan", "train", "a28481d43c0a51669a1ba79c76d6509b");
    ("mt-scan", "ref0", "c37a1158b837dd63cfd12c9c6e1779d1");
    ("mt-zipf", "train", "324df77671f6cb3efbee3c024404b46b");
    ("mt-zipf", "ref0", "48d2231225cfc3693eae869c4b8efb63");
    ("oram", "train", "4b0d2b71a28f7094f7c7eb15dcce3bd6");
    ("oram", "ref0", "93c118a32bbfd6e18a65bfd67af9c471");
    ("adversarial-streams", "train", "6d86fd999590d52a5e27c5cef69ed9f0");
    ("adversarial-streams", "ref0", "76eeed9e69129d041932e9b7a08d2e9e");
    ("best-case", "train", "f94d65fb5ae8c989ae540c9e09ccebe9");
    ("best-case", "ref0", "91066d9274a83e0fb824f97f2adced84");
  ]

let test_golden_digests () =
  let actual =
    List.concat_map
      (fun (name, model) ->
        List.map
          (fun input ->
            let a = Arena.compile (model ~epc_pages:golden_epc ~input) in
            let d = arena_digest a in
            Arena.clear_memo ();
            (name, Workload.Input.to_string input, d))
          [ Workload.Input.Train; Workload.Input.Ref 0 ])
      golden_models
  in
  checki "23 models, two inputs each" 46 (List.length actual);
  if actual <> golden_digests then
    Alcotest.failf "golden digests moved; the generator now gives:\n%s"
      (String.concat "\n"
         (List.map
            (fun (n, i, d) -> Printf.sprintf "    (%S, %S, %S);" n i d)
            actual))

(* ------------------------------------------------------------------ *)

let () =
  (* The cache must start disabled regardless of the caller's
     environment: every cache test opts in via [with_cache_dir]. *)
  Unix.putenv Arena.cache_env_var "";
  let tc name f = Alcotest.test_case name `Quick f in
  let props = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "trace-arena"
    [
      ( "codec",
        [
          tc "empty round-trip" test_codec_roundtrip_empty;
          tc "rejects short input" test_codec_rejects_short_input;
          tc "rejects bad magic" test_codec_rejects_bad_magic;
          tc "rejects bit flip" test_codec_rejects_bit_flip;
          tc "rejects truncation" test_codec_rejects_truncation;
          tc "rejects future version" test_codec_rejects_future_version;
          tc "rejects trailing garbage" test_codec_rejects_trailing_garbage;
          tc "write/read file" test_codec_write_read_file;
        ]
        @ props [ codec_roundtrip_prop ] );
      ( "arena",
        [
          tc "iter/fold/indexed agree" test_arena_iter_fold_indexed_agree;
          tc "one compilation per trace" test_one_compilation_per_trace;
          tc "memo hit is a lookup" test_compile_hit_is_a_lookup;
          tc "distinct pages of sparse pages" test_distinct_pages_of_sparse_pages;
        ]
        @ props [ arena_matches_events_prop ] );
      ("golden", [ tc "model digests at EPC 256" test_golden_digests ]);
      ( "perturbed",
        [ tc "memoised beside its base" test_perturbed_arena_memo ]
        @ props [ perturbed_arena_prop ] );
      ( "cache",
        [
          tc "disabled without env" test_cache_disabled_without_env;
          tc "cold store, warm decode" test_cache_cold_store_warm_decode;
          tc "keyed on seed and pattern" test_cache_keyed_on_seed_and_pattern;
          tc "damage regenerates" test_cache_rejects_damage_and_regenerates;
        ] );
    ]
