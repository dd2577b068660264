type t = { size : int; words : Bytes.t }

let create size =
  if size < 0 then invalid_arg "Bitset.create: negative size";
  { size; words = Bytes.make ((size + 7) / 8) '\000' }

let size t = t.size

(* The raise lives out of line so that the bounds check is a compare and
   a branch, and [set]/[clear]/[mem] stay small enough to inline.  Past
   the check every byte index is in range. *)
let[@inline never] out_of_range t i op =
  invalid_arg (Printf.sprintf "Bitset.%s: index %d out of [0,%d)" op i t.size)

let set t i =
  if i < 0 || i >= t.size then out_of_range t i "set"
  else
    let b = Char.code (Bytes.unsafe_get t.words (i lsr 3)) in
    Bytes.unsafe_set t.words (i lsr 3) (Char.unsafe_chr (b lor (1 lsl (i land 7))))

let clear t i =
  if i < 0 || i >= t.size then out_of_range t i "clear"
  else
    let b = Char.code (Bytes.unsafe_get t.words (i lsr 3)) in
    Bytes.unsafe_set t.words (i lsr 3)
      (Char.unsafe_chr (b land lnot (1 lsl (i land 7)) land 0xff))

let mem t i =
  if i < 0 || i >= t.size then out_of_range t i "mem"
  else
    let b = Char.code (Bytes.unsafe_get t.words (i lsr 3)) in
    b land (1 lsl (i land 7)) <> 0

let popcount8 =
  let table = Array.make 256 0 in
  for i = 1 to 255 do
    table.(i) <- table.(i lsr 1) + (i land 1)
  done;
  fun c -> table.(Char.code c)

let cardinal t =
  let n = ref 0 in
  Bytes.iter (fun c -> n := !n + popcount8 c) t.words;
  !n

let clear_all t = Bytes.fill t.words 0 (Bytes.length t.words) '\000'

let iter_set f t =
  for w = 0 to Bytes.length t.words - 1 do
    let b = Char.code (Bytes.get t.words w) in
    if b <> 0 then
      for bit = 0 to 7 do
        if b land (1 lsl bit) <> 0 then begin
          let i = (w lsl 3) + bit in
          if i < t.size then f i
        end
      done
  done

let copy t = { size = t.size; words = Bytes.copy t.words }

let equal a b = a.size = b.size && Bytes.equal a.words b.words
