(* Keys in [0, dense_limit) index [dense] directly; the array grows by
   doubling to cover the largest such key bound so far, so a key in
   [Array.length dense, dense_limit) is unbound without a lookup.  Every
   other key lives in [sparse], a table specialised to ints, so even the
   fallback hashes and compares without the polymorphic C primitives. *)
let dense_limit = 4096

module Sparse = Hashtbl.Make (Int)

type 'a t = {
  dummy : 'a;
  mutable dense : 'a array;
  sparse : 'a Sparse.t;
}

let create ~dummy = { dummy; dense = [||]; sparse = Sparse.create 8 }

let dummy t = t.dummy

let find_sparse t key =
  if key >= 0 && key < dense_limit then t.dummy
  else match Sparse.find t.sparse key with v -> v | exception Not_found -> t.dummy

let find t key =
  if key >= 0 && key < Array.length t.dense then Array.unsafe_get t.dense key
  else find_sparse t key

let grow t key =
  let n = ref (Int.max 1 (Array.length t.dense)) in
  while !n <= key do
    n := 2 * !n
  done;
  let dense = Array.make !n t.dummy in
  Array.blit t.dense 0 dense 0 (Array.length t.dense);
  t.dense <- dense

let set t key v =
  if v == t.dummy then invalid_arg "Int_table.set: value is the dummy";
  if key >= 0 && key < dense_limit then begin
    if key >= Array.length t.dense then grow t key;
    t.dense.(key) <- v
  end
  else Sparse.replace t.sparse key v

(* Loops rather than closures: the online controller walks its sites
   at every window close. *)
let iter f t =
  let dense = t.dense in
  for key = 0 to Array.length dense - 1 do
    let v = Array.unsafe_get dense key in
    if v != t.dummy then f key v
  done;
  if Sparse.length t.sparse > 0 then Sparse.iter f t.sparse

let fold f t acc =
  let dense = t.dense in
  let acc = ref acc in
  for key = 0 to Array.length dense - 1 do
    let v = Array.unsafe_get dense key in
    if v != t.dummy then acc := f key v !acc
  done;
  if Sparse.length t.sparse > 0 then Sparse.fold f t.sparse !acc else !acc
