(* SplitMix64.  The 64-bit state lives unboxed in an 8-byte buffer, read
   and written in place, so a draw that returns an int or a bool
   allocates nothing: the [int64] temporaries of [next] stay in
   registers once it is inlined into its caller. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let bits64 t = next t

let split t = of_state (next t)

(* Non-negative 62-bit int from the top bits; OCaml ints are 63-bit. *)
let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let r = ref (bits t) in
  let v = ref (!r mod bound) in
  while !r - !v + (bound - 1) < 0 do
    r := bits t;
    v := !r mod bound
  done;
  !v

let int_in t lo hi =
  if lo > hi then invalid_arg "Prng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  (* 53 random bits into [0,1). *)
  let r = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int r /. 9007199254740992.0 *. bound

let bool t = Int64.to_int (Int64.logand (next t) 1L) <> 0

let[@inline] chance t p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t 1.0 < p

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Prng.geometric: p not in (0,1]";
  if p >= 1.0 then 0
  else
    let u = float t 1.0 in
    (* Guard against log 0. *)
    let u = if u <= 0.0 then epsilon_float else u in
    int_of_float (Float.floor (Float.log u /. Float.log (1.0 -. p)))

(* Rejection method of Jason Crease / Devroye for the Zipf distribution:
   no O(n) table, so it works for very large supports.  The envelope
   H(x) = (x^(1-s) - 1) / (1-s) (log x when s = 1) and its inverse fix
   two constants per (n, s), H(n + 1/2) and H(1/2), which a sampler
   computes once.  Every field is a float, so the record is flat and a
   draw reads them unboxed. *)
type zipf = {
  nf : float;  (** [n]. *)
  s : float;
  one_minus_s : float;
  inv_exponent : float;  (** [1 / (1 - s)]. *)
  hmin : float;
  span : float;  (** [H(n + 1/2) - H(1/2)]. *)
}

(* [s] within 1e-9 of 1: the log/exp envelope. *)
let[@inline] unit_exponent s = Float.abs (s -. 1.0) < 1e-9

let zipf_sampler ~n ~s =
  if n <= 0 then invalid_arg "Prng.zipf: n must be positive";
  let nf = float_of_int n in
  let h x =
    if unit_exponent s then Float.log x
    else (Float.pow x (1.0 -. s) -. 1.0) /. (1.0 -. s)
  in
  let hmax = h (nf +. 0.5) in
  let hmin = h 0.5 in
  {
    nf;
    s;
    one_minus_s = 1.0 -. s;
    inv_exponent = 1.0 /. (1.0 -. s);
    hmin;
    span = hmax -. hmin;
  }

let zipf_draw t z =
  if z.nf = 1.0 then 0
  else begin
    let result = ref 0 and accepted = ref false in
    while not !accepted do
      let u = z.hmin +. (float t 1.0 *. z.span) in
      let x =
        if unit_exponent z.s then Float.exp u
        else Float.pow (1.0 +. (z.one_minus_s *. u)) z.inv_exponent
      in
      let k = Float.max 1.0 (Float.min z.nf (Float.round x)) in
      (* Accept with probability proportional to k^-s over the envelope. *)
      let ratio = Float.pow (k /. x) (-.z.s) in
      let ratio = if Float.is_nan ratio then 1.0 else Float.min 1.0 ratio in
      if chance t ratio then begin
        result := int_of_float k - 1;
        accepted := true
      end
    done;
    !result
  end

let zipf t ~n ~s = zipf_draw t (zipf_sampler ~n ~s)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
