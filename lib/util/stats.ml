type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable total : float;
  mutable min : float;
  mutable max : float;
}

let create () =
  { n = 0; mean = 0.0; m2 = 0.0; total = 0.0; min = Float.nan; max = Float.nan }

let add t x =
  t.n <- t.n + 1;
  t.total <- t.total +. x;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if t.n = 1 then begin
    t.min <- x;
    t.max <- x
  end
  else begin
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x
  end

let add_many t xs = List.iter (add t) xs

let count t = t.n
let total t = t.total
let mean t = if t.n = 0 then 0.0 else t.mean
let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
let min t = t.min
let max t = t.max

let merge a b =
  if a.n = 0 then { b with n = b.n }
  else if b.n = 0 then { a with n = a.n }
  else begin
    let n = a.n + b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. float_of_int b.n /. float_of_int n) in
    let m2 =
      a.m2 +. b.m2
      +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. float_of_int n)
    in
    {
      n;
      mean;
      m2;
      total = a.total +. b.total;
      min = Float.min a.min b.min;
      max = Float.max a.max b.max;
    }
  end

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if Float.is_nan p then invalid_arg "Stats.percentile: nan percentile";
  (* A nan observation would poison the interpolation silently (and sort
     to an arbitrary position); reject it loudly instead. *)
  if Array.exists Float.is_nan xs then
    invalid_arg "Stats.percentile: nan observation";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  if n = 1 then sorted.(0)
  else begin
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let geometric_mean xs =
  match xs with
  | [] -> invalid_arg "Stats.geometric_mean: empty list"
  | _ ->
    let log_sum =
      List.fold_left
        (fun acc x ->
          if x <= 0.0 then invalid_arg "Stats.geometric_mean: non-positive value"
          else acc +. Float.log x)
        0.0 xs
    in
    Float.exp (log_sum /. float_of_int (List.length xs))
