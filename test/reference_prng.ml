(* The PRNG as it was before its state was unboxed: SplitMix64 over a
   mutable boxed [int64], every draw a fresh closure or box.  Kept only
   as the reference the unboxed [Repro_util.Prng] must agree with bit
   for bit (test_util's "prng reference" property), and as the
   generator of [Reference_pattern]. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let copy t = { state = t.state }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = bits64 t in
  { state = s }

(* Non-negative 62-bit int from the top bits; OCaml ints are 63-bit. *)
let bits t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let rec draw () =
    let r = bits t in
    let v = r mod bound in
    if r - v + (bound - 1) < 0 then draw () else v
  in
  draw ()

let int_in t lo hi =
  if lo > hi then invalid_arg "Prng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random bits into [0,1). *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int r /. 9007199254740992.0 *. bound

let bool t = Int64.compare (Int64.logand (bits64 t) 1L) 0L <> 0

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Prng.geometric: p not in (0,1]";
  if p >= 1.0 then 0
  else
    let u = float t 1.0 in
    (* Guard against log 0. *)
    let u = if u <= 0.0 then epsilon_float else u in
    int_of_float (Float.floor (Float.log u /. Float.log (1.0 -. p)))

let zipf t ~n ~s =
  if n <= 0 then invalid_arg "Prng.zipf: n must be positive";
  if n = 1 then 0
  else begin
    (* Rejection method of Jason Crease / Devroye for the Zipf distribution;
       no O(n) table, so it works for very large supports. *)
    let nf = float_of_int n in
    let if_exponent x = Float.pow x (1.0 -. s) in
    let inv_if x =
      if Float.abs (s -. 1.0) < 1e-9 then Float.exp x else Float.pow x (1.0 /. (1.0 -. s))
    in
    let h x =
      if Float.abs (s -. 1.0) < 1e-9 then Float.log x else (if_exponent x -. 1.0) /. (1.0 -. s)
    in
    let hmax = h (nf +. 0.5) in
    let hmin = h 0.5 in
    let rec draw () =
      let u = hmin +. (float t 1.0 *. (hmax -. hmin)) in
      let x =
        if Float.abs (s -. 1.0) < 1e-9 then inv_if u
        else inv_if (1.0 +. ((1.0 -. s) *. u))
      in
      let k = Float.round x in
      let k = Float.max 1.0 (Float.min nf k) in
      let accept =
        (* Accept with probability proportional to k^-s over the envelope. *)
        let ratio = Float.pow (k /. x) (-.s) in
        let ratio = if Float.is_nan ratio then 1.0 else Float.min 1.0 ratio in
        chance t ratio
      in
      if accept then int_of_float k - 1 else draw ()
    in
    draw ()
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
