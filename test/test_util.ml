(* Unit and property tests for the repro_util substrate. *)

module Prng = Repro_util.Prng
module Stats = Repro_util.Stats
module Histogram = Repro_util.Histogram
module Ring = Repro_util.Ring
module Bitset = Repro_util.Bitset
module Table = Repro_util.Table

let check = Alcotest.check
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  checkb "different seeds diverge" true (Prng.bits64 a <> Prng.bits64 b)

let test_prng_copy_replays () =
  let a = Prng.create 7 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  check Alcotest.int64 "copy replays" (Prng.bits64 a) (Prng.bits64 b)

let test_prng_split_independent () =
  let a = Prng.create 9 in
  let b = Prng.split a in
  checkb "split diverges" true (Prng.bits64 a <> Prng.bits64 b)

let test_prng_int_bounds () =
  let p = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.int p 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_rejects_bad_bound () =
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int (Prng.create 1) 0))

let test_prng_int_in () =
  let p = Prng.create 4 in
  for _ = 1 to 1000 do
    let v = Prng.int_in p (-3) 5 in
    checkb "in closed range" true (v >= -3 && v <= 5)
  done

let test_prng_float_bounds () =
  let p = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.float p 2.5 in
    checkb "in range" true (v >= 0.0 && v < 2.5)
  done

let test_prng_chance_extremes () =
  let p = Prng.create 6 in
  checkb "p=0 never" false (Prng.chance p 0.0);
  checkb "p=1 always" true (Prng.chance p 1.0)

let test_prng_geometric_mean () =
  let p = Prng.create 8 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Prng.geometric p 0.5
  done;
  let mean = float_of_int !sum /. float_of_int n in
  (* mean of geometric(0.5) failures-before-success is 1.0 *)
  checkb "mean near 1.0" true (mean > 0.9 && mean < 1.1)

let test_prng_zipf_bounds () =
  let p = Prng.create 10 in
  for _ = 1 to 2000 do
    let v = Prng.zipf p ~n:100 ~s:1.2 in
    checkb "in range" true (v >= 0 && v < 100)
  done

let test_prng_zipf_skew () =
  let p = Prng.create 11 in
  let head = ref 0 and n = 10_000 in
  for _ = 1 to n do
    if Prng.zipf p ~n:1000 ~s:1.3 < 10 then incr head
  done;
  (* With s=1.3 the first 10 of 1000 values should take far more than
     their uniform 1% share. *)
  checkb "head-heavy" true (float_of_int !head /. float_of_int n > 0.2)

let test_prng_shuffle_permutation () =
  let p = Prng.create 12 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle p a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "same multiset" (Array.init 50 Fun.id) sorted

let prng_qcheck =
  [
    QCheck2.Test.make ~name:"int always within bound" ~count:500
      QCheck2.Gen.(pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let v = Prng.int (Prng.create seed) bound in
        v >= 0 && v < bound);
    QCheck2.Test.make ~name:"equal seeds give equal ints" ~count:200
      QCheck2.Gen.(pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        Prng.int (Prng.create seed) bound = Prng.int (Prng.create seed) bound);
  ]

(* The generator against [Reference_prng], the boxed-state SplitMix64 it
   replaced: from one seed, the same call sequence must give the same
   outputs bit for bit, floats compared by their bits.  A [split] or
   [copy] must agree on the generator it returns and leave the two
   parents in step. *)
type prng_op =
  | Bits64
  | Int of int
  | Int_in of int * int
  | Float of float
  | Bool
  | Chance of float
  | Geometric of float
  | Zipf of int * float
  | Shuffle of int
  | Split
  | Copy

let show_prng_op = function
  | Bits64 -> "bits64"
  | Int b -> Printf.sprintf "int %d" b
  | Int_in (lo, hi) -> Printf.sprintf "int_in %d %d" lo hi
  | Float b -> Printf.sprintf "float %h" b
  | Bool -> "bool"
  | Chance p -> Printf.sprintf "chance %h" p
  | Geometric p -> Printf.sprintf "geometric %h" p
  | Zipf (n, s) -> Printf.sprintf "zipf %d %h" n s
  | Shuffle n -> Printf.sprintf "shuffle %d" n
  | Split -> "split"
  | Copy -> "copy"

let prng_op_gen =
  let open QCheck2.Gen in
  frequency
    [
      (1, pure Bits64);
      ( 4,
        map
          (fun b -> Int b)
          (oneof
             [
               int_range 1 100;
               int_range 1 1_000_000_000;
               oneofl [ max_int; (max_int / 3) + 1; 1 lsl 61 ];
             ]) );
      (2, map2 (fun lo w -> Int_in (lo, lo + w)) (int_range (-1000) 1000) (int_range 0 1000));
      (2, map (fun b -> Float b) (oneofl [ 1.0; 2.5; 1e9; 0.0 ]));
      (2, pure Bool);
      (2, map (fun p -> Chance p) (oneofl [ -0.5; 0.0; 0.3; 0.999; 1.0; 1.5 ]));
      (2, map (fun p -> Geometric p) (oneofl [ 0.01; 0.5; 0.9; 1.0 ]));
      ( 3,
        map2
          (fun n s -> Zipf (n, s))
          (oneofl [ 1; 2; 10; 1000; 1_000_000 ])
          (oneofl [ 0.5; 0.99; 1.0; 1.0 +. 1e-10; 1.1; 1.3; 2.0 ]) );
      (1, map (fun n -> Shuffle n) (int_range 0 10));
      (1, pure Split);
      (1, pure Copy);
    ]

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prng_agrees_with_reference (seed, ops) =
  let module R = Reference_prng in
  let p = Prng.create seed and r = R.create seed in
  let step = function
    | Bits64 -> Int64.equal (Prng.bits64 p) (R.bits64 r)
    | Int b -> Prng.int p b = R.int r b
    | Int_in (lo, hi) -> Prng.int_in p lo hi = R.int_in r lo hi
    | Float b -> same_float (Prng.float p b) (R.float r b)
    | Bool -> Bool.equal (Prng.bool p) (R.bool r)
    | Chance c -> Bool.equal (Prng.chance p c) (R.chance r c)
    | Geometric g -> Prng.geometric p g = R.geometric r g
    | Zipf (n, s) -> Prng.zipf p ~n ~s = R.zipf r ~n ~s
    | Shuffle n ->
      let a = Array.init n Fun.id and b = Array.init n Fun.id in
      Prng.shuffle p a;
      R.shuffle r b;
      a = b
    | Split ->
      let p' = Prng.split p and r' = R.split r in
      Int64.equal (Prng.bits64 p') (R.bits64 r')
      && Prng.int p' 1000 = R.int r' 1000
    | Copy ->
      let p' = Prng.copy p and r' = R.copy r in
      let a = Prng.bits64 p' in
      Int64.equal a (R.bits64 r') && Int64.equal a (Prng.bits64 p)
      && Int64.equal a (R.bits64 r)
  in
  List.for_all step ops && Int64.equal (Prng.bits64 p) (R.bits64 r)

let prng_reference_qcheck =
  QCheck2.Test.make ~name:"agrees with the boxed reference bit for bit"
    ~count:500
    ~print:
      QCheck2.Print.(
        pair int (fun ops -> String.concat "; " (List.map show_prng_op ops)))
    QCheck2.Gen.(pair (int_range (-1_000_000) 1_000_000) (list_size (int_range 0 40) prng_op_gen))
    prng_agrees_with_reference

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_empty () =
  let s = Stats.create () in
  checki "count" 0 (Stats.count s);
  checkf "mean" 0.0 (Stats.mean s);
  checkf "variance" 0.0 (Stats.variance s)

let test_stats_known_values () =
  let s = Stats.create () in
  Stats.add_many s [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  checki "count" 8 (Stats.count s);
  checkf "mean" 5.0 (Stats.mean s);
  checkf "total" 40.0 (Stats.total s);
  check (Alcotest.float 1e-6) "variance" (32.0 /. 7.0) (Stats.variance s);
  checkf "min" 2.0 (Stats.min s);
  checkf "max" 9.0 (Stats.max s)

let test_stats_merge_equals_combined () =
  let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
  let xs = [ 1.0; 2.0; 3.5 ] and ys = [ -4.0; 0.25; 10.0; 2.0 ] in
  Stats.add_many a xs;
  Stats.add_many b ys;
  Stats.add_many whole (xs @ ys);
  let m = Stats.merge a b in
  checki "count" (Stats.count whole) (Stats.count m);
  check (Alcotest.float 1e-9) "mean" (Stats.mean whole) (Stats.mean m);
  check (Alcotest.float 1e-9) "variance" (Stats.variance whole) (Stats.variance m);
  checkf "min" (Stats.min whole) (Stats.min m);
  checkf "max" (Stats.max whole) (Stats.max m)

let test_stats_merge_with_empty () =
  let a = Stats.create () and b = Stats.create () in
  Stats.add_many a [ 1.0; 2.0 ];
  let m = Stats.merge a b in
  checki "count" 2 (Stats.count m);
  checkf "mean" 1.5 (Stats.mean m)

let test_stats_empty_min_max_nan () =
  (* An empty accumulator has no extrema; pin the documented nan. *)
  let s = Stats.create () in
  checkb "min is nan" true (Float.is_nan (Stats.min s));
  checkb "max is nan" true (Float.is_nan (Stats.max s))

let test_stats_merge_empty_no_nan_poisoning () =
  (* The empty side's nan min/max must not leak into the merge, in
     either argument order, and merging two empties stays empty. *)
  let a = Stats.create () and b = Stats.create () in
  Stats.add_many b [ 3.0; 7.0 ];
  let m1 = Stats.merge a b and m2 = Stats.merge b a in
  checkf "min (empty left)" 3.0 (Stats.min m1);
  checkf "max (empty left)" 7.0 (Stats.max m1);
  checkf "min (empty right)" 3.0 (Stats.min m2);
  checkf "max (empty right)" 7.0 (Stats.max m2);
  checkf "mean unpoisoned" 5.0 (Stats.mean m1);
  let e = Stats.merge (Stats.create ()) (Stats.create ()) in
  checki "both empty: count" 0 (Stats.count e);
  checkf "both empty: mean" 0.0 (Stats.mean e)

let test_stats_merge_leaves_inputs_unchanged () =
  let a = Stats.create () and b = Stats.create () in
  Stats.add_many a [ 1.0 ];
  Stats.add_many b [ 9.0 ];
  let m = Stats.merge a b in
  Stats.add m 100.0;
  checki "a untouched" 1 (Stats.count a);
  checki "b untouched" 1 (Stats.count b);
  checkf "a mean" 1.0 (Stats.mean a);
  checkf "b max" 9.0 (Stats.max b)

let test_stats_percentile () =
  let xs = [| 15.0; 20.0; 35.0; 40.0; 50.0 |] in
  checkf "p0 = min" 15.0 (Stats.percentile xs 0.0);
  checkf "p100 = max" 50.0 (Stats.percentile xs 100.0);
  checkf "median" 35.0 (Stats.percentile xs 50.0);
  checkf "p25 interpolates" 20.0 (Stats.percentile xs 25.0)

let test_stats_percentile_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty array")
    (fun () -> ignore (Stats.percentile [||] 50.0))

let test_stats_percentile_clamps () =
  let xs = [| 15.0; 20.0; 35.0 |] in
  checkf "below 0 clamps to min" 15.0 (Stats.percentile xs (-10.0));
  checkf "above 100 clamps to max" 35.0 (Stats.percentile xs 1000.0)

let test_stats_percentile_rejects_nan () =
  (* nan would silently mis-sort (compare treats it inconsistently);
     reject it loudly instead. *)
  Alcotest.check_raises "nan percentile"
    (Invalid_argument "Stats.percentile: nan percentile") (fun () ->
      ignore (Stats.percentile [| 1.0; 2.0 |] Float.nan));
  Alcotest.check_raises "nan observation"
    (Invalid_argument "Stats.percentile: nan observation") (fun () ->
      ignore (Stats.percentile [| 1.0; Float.nan; 2.0 |] 50.0))

let test_stats_geometric_mean () =
  checkf "of equal" 3.0 (Stats.geometric_mean [ 3.0; 3.0; 3.0 ]);
  check (Alcotest.float 1e-9) "2,8" 4.0 (Stats.geometric_mean [ 2.0; 8.0 ])

let stats_qcheck =
  [
    QCheck2.Test.make ~name:"mean within min..max" ~count:300
      QCheck2.Gen.(list_size (int_range 1 50) (float_range (-1000.) 1000.))
      (fun xs ->
        let s = Stats.create () in
        Stats.add_many s xs;
        Stats.mean s >= Stats.min s -. 1e-9 && Stats.mean s <= Stats.max s +. 1e-9);
    QCheck2.Test.make ~name:"merge commutes" ~count:200
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 20) (float_range (-100.) 100.))
          (list_size (int_range 1 20) (float_range (-100.) 100.)))
      (fun (xs, ys) ->
        let build zs =
          let s = Stats.create () in
          Stats.add_many s zs;
          s
        in
        let m1 = Stats.merge (build xs) (build ys) in
        let m2 = Stats.merge (build ys) (build xs) in
        Float.abs (Stats.mean m1 -. Stats.mean m2) < 1e-9
        && Stats.count m1 = Stats.count m2);
    (* The merge identity the fleet/service aggregation rests on:
       merging two accumulators is indistinguishable from one bulk add,
       across every moment — including when either side is empty. *)
    QCheck2.Test.make ~name:"merge equals bulk add in every moment" ~count:300
      QCheck2.Gen.(
        pair
          (list_size (int_range 0 25) (float_range (-500.) 500.))
          (list_size (int_range 0 25) (float_range (-500.) 500.)))
      (fun (xs, ys) ->
        let build zs =
          let s = Stats.create () in
          Stats.add_many s zs;
          s
        in
        let m = Stats.merge (build xs) (build ys) in
        let whole = build (xs @ ys) in
        let eq a b =
          (Float.is_nan a && Float.is_nan b) || Float.abs (a -. b) < 1e-6
        in
        Stats.count m = Stats.count whole
        && eq (Stats.mean m) (Stats.mean whole)
        && eq (Stats.variance m) (Stats.variance whole)
        && eq (Stats.total m) (Stats.total whole)
        && eq (Stats.min m) (Stats.min whole)
        && eq (Stats.max m) (Stats.max whole));
    QCheck2.Test.make ~name:"percentile monotone with exact endpoints" ~count:300
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 40) (float_range (-100.) 100.))
          (pair (float_range 0.0 100.0) (float_range 0.0 100.0)))
      (fun (xs, (p1, p2)) ->
        let arr = Array.of_list xs in
        let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
        Stats.percentile arr lo <= Stats.percentile arr hi +. 1e-9
        && Stats.percentile arr 0.0 = List.fold_left Float.min Float.infinity xs
        && Stats.percentile arr 100.0
           = List.fold_left Float.max Float.neg_infinity xs);
  ]

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let test_histogram_bucketing () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:5 () in
  List.iter (Histogram.add h) [ 0.0; 1.9; 2.0; 9.99; -1.0; 10.0; 42.0 ];
  checki "total" 7 (Histogram.count h);
  checki "bucket 0" 2 (Histogram.bucket_count h 0);
  checki "bucket 1" 1 (Histogram.bucket_count h 1);
  checki "bucket 4" 1 (Histogram.bucket_count h 4);
  checki "underflow" 1 (Histogram.underflow h);
  checki "overflow" 2 (Histogram.overflow h)

let test_histogram_ranges () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:5 () in
  let lo, hi = Histogram.bucket_range h 2 in
  checkf "lo" 4.0 lo;
  checkf "hi" 6.0 hi

let test_histogram_mean () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:5 () in
  checkb "empty mean is nan" true (Float.is_nan (Histogram.mean h));
  (* 1.0 and 1.5 land in bucket [0,2) (midpoint 1), 5.0 in [4,6)
     (midpoint 5): midpoint approximation gives (1+1+5)/3. *)
  List.iter (Histogram.add h) [ 1.0; 1.5; 5.0 ];
  checkf "midpoint mean" (7.0 /. 3.0) (Histogram.mean h);
  (* Overflow pins to hi, underflow to lo. *)
  Histogram.add h 99.0;
  checkf "overflow at hi" ((7.0 +. 10.0) /. 4.0) (Histogram.mean h)

let test_histogram_fraction_below () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:10 () in
  List.iter (Histogram.add h) [ 0.5; 1.5; 2.5; 3.5 ];
  checkf "half below 2" 0.5 (Histogram.fraction_below h 2.0)

let bucket_total h buckets =
  let t = ref 0 in
  for i = 0 to buckets - 1 do
    t := !t + Histogram.bucket_count h i
  done;
  !t

let test_histogram_auto_expand () =
  let h = Histogram.create ~auto_expand:true ~lo:0.0 ~hi:8.0 ~buckets:4 () in
  List.iter (Histogram.add h) [ 1.0; 7.9 ];
  checki "in range, no overflow" 0 (Histogram.overflow h);
  (* At the bound: one doubling to [0, 16). *)
  Histogram.add h 8.0;
  checki "expanded, not overflowed" 0 (Histogram.overflow h);
  checkf "range doubled" 16.0 (snd (Histogram.bucket_range h 3));
  (* Far past the bound: several doublings at once. *)
  Histogram.add h 100.0;
  checki "still no overflow" 0 (Histogram.overflow h);
  checkb "range covers the sample" true
    (snd (Histogram.bucket_range h 3) > 100.0);
  checki "every observation kept" 4 (Histogram.count h);
  checki "every observation in a bucket" 4 (bucket_total h 4);
  checkf "extrema exact" 100.0 (Histogram.max_observed h)

let test_histogram_auto_expand_odd_buckets () =
  (* Doubling merges bucket pairs; with an odd bucket count the old top
     bucket has no partner and must still carry its count over. *)
  let h = Histogram.create ~auto_expand:true ~lo:0.0 ~hi:5.0 ~buckets:5 () in
  List.iter (Histogram.add h) [ 0.5; 1.5; 2.5; 3.5; 4.5 ];
  Histogram.add h 9.0;
  checki "count" 6 (Histogram.count h);
  checki "overflow" 0 (Histogram.overflow h);
  checki "no observation lost in the merge" 6 (bucket_total h 5)

let test_histogram_auto_expand_non_finite () =
  let h = Histogram.create ~auto_expand:true ~lo:0.0 ~hi:4.0 ~buckets:4 () in
  (* Infinity can never fit: it must overflow, not expand forever. *)
  Histogram.add h Float.infinity;
  checki "infinity overflows" 1 (Histogram.overflow h);
  checkf "range unchanged" 4.0 (snd (Histogram.bucket_range h 3))

let test_histogram_fixed_still_overflows () =
  let h = Histogram.create ~lo:0.0 ~hi:4.0 ~buckets:4 () in
  Histogram.add h 9.0;
  checki "fixed histogram overflows as before" 1 (Histogram.overflow h);
  checkf "fixed range unchanged" 4.0 (snd (Histogram.bucket_range h 3))

let test_histogram_bad_args () =
  Alcotest.check_raises "no buckets"
    (Invalid_argument "Histogram.create: buckets must be positive") (fun () ->
      ignore (Histogram.create ~lo:0.0 ~hi:1.0 ~buckets:0 ()))

let test_histogram_nan_quarantined () =
  (* nan used to land in bucket 0 ([int_of_float nan = 0]) and poison
     the extrema; it must be quarantined in its own counter. *)
  List.iter
    (fun auto_expand ->
      let h = Histogram.create ~auto_expand ~lo:0.0 ~hi:10.0 ~buckets:5 () in
      Histogram.add h Float.nan;
      checki "counted in total" 1 (Histogram.count h);
      checki "quarantined" 1 (Histogram.nan_count h);
      checki "bucket 0 untouched" 0 (Histogram.bucket_count h 0);
      checki "no underflow" 0 (Histogram.underflow h);
      checki "no overflow" 0 (Histogram.overflow h);
      checkf "no expansion" 10.0 (snd (Histogram.bucket_range h 4));
      checkb "max unpoisoned" true (Float.is_nan (Histogram.max_observed h));
      checkb "min unpoisoned" true (Float.is_nan (Histogram.min_observed h));
      checkb "mean of no real samples is nan" true
        (Float.is_nan (Histogram.mean h));
      (* Real observations alongside the nan stay exact: the nan is
         excluded from every derived statistic's denominator. *)
      Histogram.add h 5.0;
      checki "total counts both" 2 (Histogram.count h);
      checkf "mean excludes nan" 5.0 (Histogram.mean h);
      checkf "max exact" 5.0 (Histogram.max_observed h);
      checkf "fraction_below excludes nan" 1.0 (Histogram.fraction_below h 6.0))
    [ false; true ]

let test_histogram_infinities () =
  List.iter
    (fun auto_expand ->
      let h = Histogram.create ~auto_expand ~lo:0.0 ~hi:4.0 ~buckets:4 () in
      Histogram.add h Float.infinity;
      Histogram.add h Float.neg_infinity;
      checki "no nan" 0 (Histogram.nan_count h);
      (* +inf can never fit a finite range: overflow, never expand. *)
      checki "+inf overflows" 1 (Histogram.overflow h);
      (* -inf is below lo whatever the range: underflow. *)
      checki "-inf underflows" 1 (Histogram.underflow h);
      checkf "range unchanged" 4.0 (snd (Histogram.bucket_range h 3));
      checkf "max is +inf" Float.infinity (Histogram.max_observed h);
      checkf "min is -inf" Float.neg_infinity (Histogram.min_observed h))
    [ false; true ]

let test_histogram_fraction_below_overflow () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:10 () in
  Histogram.add h 5.0;
  Histogram.add h 15.0;
  checki "one overflowed" 1 (Histogram.overflow h);
  (* A threshold past [hi] covers the overflow bucket too — this used
     to report 0.5 forever, as if the overflowed sample did not exist. *)
  checkf "past hi counts overflow" 1.0 (Histogram.fraction_below h 20.0);
  checkf "at hi excludes overflow" 0.5 (Histogram.fraction_below h 10.0);
  checkf "infinity covers everything" 1.0 (Histogram.fraction_below h Float.infinity);
  checkf "in range unchanged" 0.5 (Histogram.fraction_below h 6.0)

let test_histogram_quantile () =
  let h = Histogram.create ~lo:0.0 ~hi:100.0 ~buckets:10 () in
  checkb "empty quantile is nan" true (Float.is_nan (Histogram.quantile h 0.5));
  (* One sample per bucket: 5, 15, ..., 95. *)
  for i = 0 to 9 do
    Histogram.add h (float_of_int (10 * i) +. 5.0)
  done;
  checkf "q0 is the exact minimum" 5.0 (Histogram.quantile h 0.0);
  checkf "q1 is the exact maximum" 95.0 (Histogram.quantile h 1.0);
  checkf "median interpolates its bucket" 50.0 (Histogram.quantile h 0.5);
  checkf "p95 interpolates the top bucket" 95.0 (Histogram.quantile h 0.95);
  (* Out-of-range quantiles clamp rather than extrapolate. *)
  checkf "clamps above" 95.0 (Histogram.quantile h 2.0);
  checkf "clamps below" 5.0 (Histogram.quantile h (-1.0));
  Alcotest.check_raises "nan quantile"
    (Invalid_argument "Histogram.quantile: nan quantile") (fun () ->
      ignore (Histogram.quantile h Float.nan))

let histogram_qcheck =
  [
    (* [Histogram.quantile] against ground truth: for k = ceil(q*n) the
       k-th smallest sample shares the interpolation bucket (cumulative
       counts are integers), so the two can differ by at most one bucket
       width.  [Stats.percentile] at p = 100(k-1)/(n-1) hits the k-th
       order statistic exactly. *)
    QCheck2.Test.make ~name:"quantile within a bucket of the order statistic"
      ~count:300
      QCheck2.Gen.(
        pair
          (list_size (int_range 2 60) (float_range 0.0 99.9))
          (float_range 0.01 0.99))
      (fun (xs, q) ->
        let h = Histogram.create ~lo:0.0 ~hi:100.0 ~buckets:20 () in
        List.iter (Histogram.add h) xs;
        let n = List.length xs in
        let k = int_of_float (Float.ceil (q *. float_of_int n)) in
        let kth =
          Stats.percentile (Array.of_list xs)
            (100.0 *. float_of_int (k - 1) /. float_of_int (n - 1))
        in
        let width = 100.0 /. 20.0 in
        Float.abs (Histogram.quantile h q -. kth) <= width +. 1e-6);
    QCheck2.Test.make ~name:"quantile monotone with exact endpoints" ~count:200
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 40) (float_range 0.0 99.9))
          (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
      (fun (xs, (q1, q2)) ->
        let h = Histogram.create ~lo:0.0 ~hi:100.0 ~buckets:16 () in
        List.iter (Histogram.add h) xs;
        let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
        Histogram.quantile h lo <= Histogram.quantile h hi +. 1e-9
        && Histogram.quantile h 0.0 = List.fold_left Float.min Float.infinity xs
        && Histogram.quantile h 1.0
           = List.fold_left Float.max Float.neg_infinity xs);
  ]

(* [add_int n] must be [add (float_of_int n)] to every reader: the
   runner's fault latencies and the service's request latencies moved to
   the int entry point, and their digests must not notice. *)
let histogram_int_qcheck =
  [
    QCheck2.Test.make ~name:"add_int equals add of the float" ~count:300
      QCheck2.Gen.(
        pair bool (list_size (int_range 0 80) (int_range (-50) 5000)))
      (fun (auto_expand, xs) ->
        let make () =
          Histogram.create ~auto_expand ~lo:0.0 ~hi:1000.0 ~buckets:16 ()
        in
        let hi = make () and hf = make () in
        List.iter (Histogram.add_int hi) xs;
        List.iter (fun x -> Histogram.add hf (float_of_int x)) xs;
        let same_float a b = (Float.is_nan a && Float.is_nan b) || a = b in
        Histogram.count hi = Histogram.count hf
        && Histogram.underflow hi = Histogram.underflow hf
        && Histogram.overflow hi = Histogram.overflow hf
        && List.for_all
             (fun i ->
               Histogram.bucket_count hi i = Histogram.bucket_count hf i
               && Histogram.bucket_range hi i = Histogram.bucket_range hf i)
             (List.init 16 Fun.id)
        && same_float (Histogram.max_observed hi) (Histogram.max_observed hf)
        && same_float (Histogram.min_observed hi) (Histogram.min_observed hf)
        && same_float (Histogram.mean hi) (Histogram.mean hf)
        && same_float (Histogram.quantile hi 0.9) (Histogram.quantile hf 0.9));
  ]

let test_histogram_observed_extremes () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~buckets:5 () in
  checkb "empty max is nan" true (Float.is_nan (Histogram.max_observed h));
  checkb "empty min is nan" true (Float.is_nan (Histogram.min_observed h));
  List.iter (Histogram.add h) [ 3.0; 7.5 ];
  checkf "max in range" 7.5 (Histogram.max_observed h);
  checkf "min in range" 3.0 (Histogram.min_observed h);
  (* Overflow/underflow samples are clamped into the edge buckets for
     counting, but the observed extremes keep the exact values — the
     whole point of the overflow surfacing. *)
  Histogram.add h 1234.5;
  Histogram.add h (-2.0);
  checkf "overflow max exact" 1234.5 (Histogram.max_observed h);
  checkf "underflow min exact" (-2.0) (Histogram.min_observed h);
  checki "overflow counted" 1 (Histogram.overflow h);
  checki "underflow counted" 1 (Histogram.underflow h)

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let test_ring_basics () =
  let r = Ring.create 3 in
  checki "empty" 0 (Ring.length r);
  Ring.push r 1;
  Ring.push r 2;
  check Alcotest.(list int) "ordered" [ 1; 2 ] (Ring.to_list r);
  Ring.push r 3;
  Ring.push r 4;
  check Alcotest.(list int) "evicts oldest" [ 2; 3; 4 ] (Ring.to_list r);
  check Alcotest.(option int) "newest" (Some 4) (Ring.newest r);
  check Alcotest.(option int) "oldest" (Some 2) (Ring.oldest r)

let test_ring_get () =
  let r = Ring.create 2 in
  Ring.push r 10;
  Ring.push r 20;
  Ring.push r 30;
  checki "get 0" 20 (Ring.get r 0);
  checki "get 1" 30 (Ring.get r 1);
  Alcotest.check_raises "out of range" (Invalid_argument "Ring.get: index out of range")
    (fun () -> ignore (Ring.get r 2))

let test_ring_clear () =
  let r = Ring.create 2 in
  Ring.push r 1;
  Ring.clear r;
  checki "empty again" 0 (Ring.length r);
  check Alcotest.(option int) "no newest" None (Ring.newest r)

let ring_qcheck =
  [
    QCheck2.Test.make ~name:"ring keeps the last capacity items" ~count:300
      QCheck2.Gen.(pair (int_range 1 10) (list small_int))
      (fun (cap, xs) ->
        let r = Ring.create cap in
        List.iter (Ring.push r) xs;
        let expected =
          let n = List.length xs in
          if n <= cap then xs
          else List.filteri (fun i _ -> i >= n - cap) xs
        in
        Ring.to_list r = expected);
  ]

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitset_basics () =
  let b = Bitset.create 100 in
  checkb "initially clear" false (Bitset.mem b 7);
  Bitset.set b 7;
  checkb "set" true (Bitset.mem b 7);
  checkb "neighbour untouched" false (Bitset.mem b 8);
  Bitset.clear b 7;
  checkb "cleared" false (Bitset.mem b 7)

let test_bitset_cardinal () =
  let b = Bitset.create 64 in
  List.iter (Bitset.set b) [ 0; 1; 8; 63 ];
  checki "cardinal" 4 (Bitset.cardinal b);
  Bitset.clear_all b;
  checki "cleared all" 0 (Bitset.cardinal b)

let test_bitset_iter_set () =
  let b = Bitset.create 20 in
  List.iter (Bitset.set b) [ 3; 9; 17 ];
  let collected = ref [] in
  Bitset.iter_set (fun i -> collected := i :: !collected) b;
  check Alcotest.(list int) "ascending" [ 3; 9; 17 ] (List.rev !collected)

let test_bitset_bounds () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "oob set"
    (Invalid_argument "Bitset.set: index 8 out of [0,8)") (fun () ->
      Bitset.set b 8)

let test_bitset_copy_equal () =
  let b = Bitset.create 30 in
  Bitset.set b 11;
  let c = Bitset.copy b in
  checkb "copies equal" true (Bitset.equal b c);
  Bitset.set c 12;
  checkb "diverge after write" false (Bitset.equal b c)

let bitset_qcheck =
  [
    QCheck2.Test.make ~name:"bitset agrees with a set model" ~count:300
      QCheck2.Gen.(list (pair bool (int_range 0 63)))
      (fun ops ->
        let b = Bitset.create 64 in
        let model = Hashtbl.create 16 in
        List.iter
          (fun (set, i) ->
            if set then begin
              Bitset.set b i;
              Hashtbl.replace model i ()
            end
            else begin
              Bitset.clear b i;
              Hashtbl.remove model i
            end)
          ops;
        Bitset.cardinal b = Hashtbl.length model
        && List.for_all
             (fun i -> Bitset.mem b i = Hashtbl.mem model i)
             (List.init 64 Fun.id));
  ]

(* ------------------------------------------------------------------ *)
(* Int_table                                                           *)
(* ------------------------------------------------------------------ *)

module Int_table = Repro_util.Int_table

let test_int_table_basics () =
  let t = Int_table.create ~dummy:"" in
  check Alcotest.string "unbound is the dummy" "" (Int_table.find t 3);
  List.iter
    (fun (k, v) -> Int_table.set t k v)
    [ (3, "a"); (-5, "b"); (1 lsl 40, "c"); (4095, "d"); (4096, "e"); (3, "f") ];
  checki "one binding per key" 5 (Int_table.fold (fun _ _ n -> n + 1) t 0);
  check Alcotest.(list (pair int string)) "iter: dense ascending first"
    [ (3, "f"); (4095, "d") ]
    (List.filteri (fun i _ -> i < 2)
       (List.rev (Int_table.fold (fun k v acc -> (k, v) :: acc) t [])));
  check Alcotest.string "negative" "b" (Int_table.find t (-5));
  check Alcotest.string "large" "c" (Int_table.find t (1 lsl 40));
  check Alcotest.string "past the dense range" "e" (Int_table.find t 4096);
  check Alcotest.string "min_int unbound" "" (Int_table.find t min_int);
  Alcotest.check_raises "the dummy cannot be bound"
    (Invalid_argument "Int_table.set: value is the dummy") (fun () ->
      Int_table.set t 7 (Int_table.dummy t))

let int_table_qcheck =
  [
    QCheck2.Test.make ~name:"int table agrees with a Hashtbl model"
      ~count:300
      QCheck2.Gen.(
        list_size (int_range 0 60)
          (pair
             (frequency
                [
                  (6, int_range 0 100);
                  (2, int_range (-50) (-1));
                  (2, int_range 4090 5000);
                  (1, int);
                ])
             (int_range 0 1000)))
      (fun sets ->
        let t = Int_table.create ~dummy:(-1) in
        let model = Hashtbl.create 16 in
        List.for_all
          (fun (k, v) ->
            Int_table.set t k v;
            Hashtbl.replace model k v;
            (* Every key ever set, and its neighbours, reads as the
               model does; the bindings are the model's. *)
            List.for_all
              (fun (k', _) ->
                List.for_all
                  (fun probe ->
                    Int_table.find t probe
                    = Option.value ~default:(-1) (Hashtbl.find_opt model probe))
                  [ k'; k' + 1; k' - 1 ])
              sets
            && List.sort compare (Int_table.fold (fun k v acc -> (k, v) :: acc) t [])
               = List.sort compare
                   (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []))
          sets);
  ]

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t = Table.create ~headers:[ ("name", Table.Left); ("n", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "23" ];
  let rendered = Table.render t in
  check Alcotest.string "aligned"
    "name    n\n-----  --\nalpha   1\nb      23\n" rendered

let test_table_row_width_checked () =
  let t = Table.create ~headers:[ ("a", Table.Left) ] in
  Alcotest.check_raises "wrong width"
    (Invalid_argument "Table.add_row: expected 1 cells, got 2") (fun () ->
      Table.add_row t [ "x"; "y" ])

let test_table_cells () =
  check Alcotest.string "pct" "11.4%" (Table.cell_pct 0.114);
  check Alcotest.string "float" "1.50" (Table.cell_float 1.5);
  check Alcotest.string "int" "1,234,567" (Table.cell_int 1234567);
  check Alcotest.string "negative int" "-1,000" (Table.cell_int (-1000))

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let props = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "repro_util"
    [
      ( "prng",
        [
          tc "determinism" test_prng_determinism;
          tc "seed sensitivity" test_prng_seed_sensitivity;
          tc "copy replays" test_prng_copy_replays;
          tc "split independent" test_prng_split_independent;
          tc "int bounds" test_prng_int_bounds;
          tc "int rejects bad bound" test_prng_int_rejects_bad_bound;
          tc "int_in bounds" test_prng_int_in;
          tc "float bounds" test_prng_float_bounds;
          tc "chance extremes" test_prng_chance_extremes;
          tc "geometric mean" test_prng_geometric_mean;
          tc "zipf bounds" test_prng_zipf_bounds;
          tc "zipf skew" test_prng_zipf_skew;
          tc "shuffle permutation" test_prng_shuffle_permutation;
        ]
        @ props (prng_qcheck @ [ prng_reference_qcheck ]) );
      ( "stats",
        [
          tc "empty" test_stats_empty;
          tc "known values" test_stats_known_values;
          tc "merge equals combined" test_stats_merge_equals_combined;
          tc "merge with empty" test_stats_merge_with_empty;
          tc "empty min/max are nan" test_stats_empty_min_max_nan;
          tc "merge with empty: no nan poisoning" test_stats_merge_empty_no_nan_poisoning;
          tc "merge leaves inputs unchanged" test_stats_merge_leaves_inputs_unchanged;
          tc "percentile" test_stats_percentile;
          tc "percentile empty" test_stats_percentile_empty;
          tc "percentile clamps" test_stats_percentile_clamps;
          tc "percentile rejects nan" test_stats_percentile_rejects_nan;
          tc "geometric mean" test_stats_geometric_mean;
        ]
        @ props stats_qcheck );
      ( "histogram",
        [
          tc "bucketing" test_histogram_bucketing;
          tc "ranges" test_histogram_ranges;
          tc "mean" test_histogram_mean;
          tc "fraction below" test_histogram_fraction_below;
          tc "auto-expand" test_histogram_auto_expand;
          tc "auto-expand odd buckets" test_histogram_auto_expand_odd_buckets;
          tc "auto-expand non-finite" test_histogram_auto_expand_non_finite;
          tc "fixed bound still overflows" test_histogram_fixed_still_overflows;
          tc "bad args" test_histogram_bad_args;
          tc "nan quarantined" test_histogram_nan_quarantined;
          tc "infinities" test_histogram_infinities;
          tc "fraction below overflow" test_histogram_fraction_below_overflow;
          tc "quantile" test_histogram_quantile;
          tc "observed extremes" test_histogram_observed_extremes;
        ]
        @ props histogram_qcheck @ props histogram_int_qcheck );
      ( "int_table",
        [ tc "basics" test_int_table_basics ] @ props int_table_qcheck );
      ( "ring",
        [
          tc "basics" test_ring_basics;
          tc "get" test_ring_get;
          tc "clear" test_ring_clear;
        ]
        @ props ring_qcheck );
      ( "bitset",
        [
          tc "basics" test_bitset_basics;
          tc "cardinal" test_bitset_cardinal;
          tc "iter_set" test_bitset_iter_set;
          tc "bounds" test_bitset_bounds;
          tc "copy equal" test_bitset_copy_equal;
        ]
        @ props bitset_qcheck );
      ( "table",
        [
          tc "render" test_table_render;
          tc "row width checked" test_table_row_width_checked;
          tc "cells" test_table_cells;
        ] );
    ]
