type t = {
  lo : float;
  mutable hi : float;
  mutable width : float;
  auto_expand : bool;
  counts : int array;
  mutable underflow : int;
  mutable overflow : int;
  mutable total : int;
  mutable nans : int;
  extrema : float array;
      (* [| least; greatest |] real observation: a flat float array, so an
         update stores the double in place where a float field of this
         mixed record would box it. *)
}

let least = 0
let greatest = 1

let create ?(auto_expand = false) ~lo ~hi ~buckets () =
  if buckets <= 0 then invalid_arg "Histogram.create: buckets must be positive";
  if hi <= lo then invalid_arg "Histogram.create: hi must exceed lo";
  {
    lo;
    hi;
    width = (hi -. lo) /. float_of_int buckets;
    auto_expand;
    counts = Array.make buckets 0;
    underflow = 0;
    overflow = 0;
    total = 0;
    nans = 0;
    extrema = [| Float.infinity; Float.neg_infinity |];
  }

(* Double the range in place: bucket pairs merge downwards, the top half
   empties.  Each expansion is O(buckets) and the range grows
   geometrically, so the amortized cost per observation stays O(1)
   however far past the initial bound the tail reaches. *)
let expand t =
  let n = Array.length t.counts in
  let merged = Array.make n 0 in
  Array.iteri (fun i c -> merged.(i / 2) <- merged.(i / 2) + c) t.counts;
  Array.blit merged 0 t.counts 0 n;
  t.width <- t.width *. 2.0;
  t.hi <- t.lo +. (t.width *. float_of_int n)

(* Inlined wherever it is called — into [add_int] here, and into callers
   in other modules when the build inlines across modules — so [x] stays
   an unboxed double: a caller's [float_of_int n] is never boxed. *)
let[@inline always] add t x =
  t.total <- t.total + 1;
  (* nan compares false against every bound below, which used to drop it
     into bucket 0 via [int_of_float nan = 0]; quarantine it instead so
     the buckets and extrema describe only real observations. *)
  if Float.is_nan x then t.nans <- t.nans + 1
  else begin
    if x > t.extrema.(greatest) then t.extrema.(greatest) <- x;
    if x < t.extrema.(least) then t.extrema.(least) <- x;
    if x < t.lo then t.underflow <- t.underflow + 1
    else begin
      if t.auto_expand && Float.is_finite x then
        while x >= t.hi do
          expand t
        done;
      if x >= t.hi then t.overflow <- t.overflow + 1
      else begin
        let i = int_of_float ((x -. t.lo) /. t.width) in
        let i = Int.min i (Array.length t.counts - 1) in
        t.counts.(i) <- t.counts.(i) + 1
      end
    end
  end

let add_int t n = add t (float_of_int n)

let count t = t.total
let nan_count t = t.nans

(* Observations that landed somewhere on the real line: the denominator
   for every distributional summary. *)
let real_count t = t.total - t.nans

let bucket_count t i =
  if i < 0 || i >= Array.length t.counts then
    invalid_arg "Histogram.bucket_count: index out of range";
  t.counts.(i)

let underflow t = t.underflow
let overflow t = t.overflow

let max_observed t = if real_count t = 0 then Float.nan else t.extrema.(greatest)
let min_observed t = if real_count t = 0 then Float.nan else t.extrema.(least)

let bucket_range t i =
  if i < 0 || i >= Array.length t.counts then
    invalid_arg "Histogram.bucket_range: index out of range";
  let lo = t.lo +. (float_of_int i *. t.width) in
  (lo, lo +. t.width)

let mean t =
  if real_count t = 0 then Float.nan
  else begin
    (* Bucket-midpoint approximation; under/overflow observations are
       pinned to the histogram's edges.  nan observations are excluded. *)
    let sum = ref (float_of_int t.underflow *. t.lo) in
    sum := !sum +. (float_of_int t.overflow *. t.hi);
    Array.iteri
      (fun i c ->
        let lo, hi = bucket_range t i in
        sum := !sum +. (float_of_int c *. ((lo +. hi) /. 2.0)))
      t.counts;
    !sum /. float_of_int (real_count t)
  end

let fraction_below t x =
  if real_count t = 0 then 0.0
  else begin
    let below = ref t.underflow in
    Array.iteri
      (fun i c ->
        let _, hi = bucket_range t i in
        if hi <= x then below := !below + c)
      t.counts;
    (* Overflow observations live in [hi, ∞); once the threshold has
       cleared the histogram's upper bound they are all below it under
       the whole-bucket approximation, so fraction_below t infinity is
       1.0 even with a nonzero overflow count. *)
    if x > t.hi then below := !below + t.overflow;
    float_of_int !below /. float_of_int (real_count t)
  end

let quantile t q =
  if Float.is_nan q then invalid_arg "Histogram.quantile: nan quantile";
  let q = Float.max 0.0 (Float.min 1.0 q) in
  let n = real_count t in
  if n = 0 then Float.nan
  else if q = 0.0 then t.extrema.(least)
  else if q = 1.0 then t.extrema.(greatest)
  else begin
    (* Find the bucket holding the ceil(q*n)-th smallest observation and
       interpolate linearly inside it; the result is exact to within one
       bucket width.  Clamping to the observed extrema keeps the edges
       honest when the target falls in under/overflow (whose true spread
       the buckets do not record). *)
    let target = q *. float_of_int n in
    let lo_seen = t.extrema.(least) and hi_seen = t.extrema.(greatest) in
    let clamp v = Float.max lo_seen (Float.min hi_seen v) in
    if target <= float_of_int t.underflow then lo_seen
    else begin
      let cum = ref (float_of_int t.underflow) in
      let result = ref Float.nan in
      (try
         Array.iteri
           (fun i c ->
             let fc = float_of_int c in
             if c > 0 && target <= !cum +. fc then begin
               let lo, _ = bucket_range t i in
               let frac = (target -. !cum) /. fc in
               result := clamp (lo +. (frac *. t.width));
               raise Exit
             end;
             cum := !cum +. fc)
           t.counts
       with Exit -> ());
      if Float.is_nan !result then hi_seen else !result
    end
  end

let pp fmt t =
  let glyphs = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#' |] in
  let peak = Array.fold_left max 1 t.counts in
  let cells =
    Array.map
      (fun c ->
        let level = c * (Array.length glyphs - 1) / peak in
        glyphs.(level))
      t.counts
  in
  Format.fprintf fmt "[%s] n=%d under=%d over=%d"
    (String.init (Array.length cells) (Array.get cells))
    t.total t.underflow t.overflow;
  if t.nans > 0 then Format.fprintf fmt " nan=%d" t.nans
