(* Capacity is kept a power of two, so a ring index is a mask rather
   than a division. *)
type 'a t = {
  dummy : 'a;
  mutable buf : 'a array;
  mutable head : int;
  mutable len : int;
}

let create ?(capacity = 8) ~dummy () =
  let rec pow2 n = if n >= capacity then n else pow2 (2 * n) in
  { dummy; buf = Array.make (pow2 1) dummy; head = 0; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let mask t = Array.length t.buf - 1

let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (2 * cap) t.dummy in
  for i = 0 to t.len - 1 do
    buf.(i) <- t.buf.((t.head + i) land (cap - 1))
  done;
  t.buf <- buf;
  t.head <- 0

let push_back t x =
  if t.len = Array.length t.buf then grow t;
  t.buf.((t.head + t.len) land mask t) <- x;
  t.len <- t.len + 1

let front t = if t.len = 0 then t.dummy else t.buf.(t.head)

let pop_front t =
  if t.len = 0 then t.dummy
  else begin
    let x = t.buf.(t.head) in
    (* Release the slot so popped elements are not retained. *)
    t.buf.(t.head) <- t.dummy;
    t.head <- (t.head + 1) land mask t;
    t.len <- t.len - 1;
    x
  end

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) t.dummy;
  t.head <- 0;
  t.len <- 0

let iter f t =
  let m = mask t in
  for i = 0 to t.len - 1 do
    f t.buf.((t.head + i) land m)
  done

let fold f acc t =
  let acc = ref acc in
  iter (fun x -> acc := f !acc x) t;
  !acc

let to_list t = List.rev (fold (fun acc x -> x :: acc) [] t)
