(* An intrusive doubly linked list over the page domain: [prev.(p)] and
   [next.(p)] link page [p] towards the MRU head and the LRU tail, [nil]
   ends the list, and [absent] in [prev] marks a page not in the set.
   Every operation is a few int loads and stores: no hashing and no
   boxes. *)

let nil = -1
let absent = -2

type t = {
  capacity : int;
  prev : int array;
  next : int array;
  mutable head : int; (* most recently touched, [nil] when empty *)
  mutable tail : int; (* least recently touched, [nil] when empty *)
  mutable size : int;
}

let create ~capacity ~pages =
  if capacity <= 0 then invalid_arg "Page_lru.create: capacity must be positive";
  if pages <= 0 then invalid_arg "Page_lru.create: pages must be positive";
  {
    capacity;
    prev = Array.make pages absent;
    next = Array.make pages nil;
    head = nil;
    tail = nil;
    size = 0;
  }

let capacity t = t.capacity
let size t = t.size

let out_of_range t page =
  invalid_arg
    (Printf.sprintf "Page_lru: page %d outside [0, %d)" page
       (Array.length t.prev))

let mem t page =
  if page < 0 || page >= Array.length t.prev then out_of_range t page;
  Array.unsafe_get t.prev page <> absent

let unlink t page =
  let p = t.prev.(page) and n = t.next.(page) in
  if p = nil then t.head <- n else t.next.(p) <- n;
  if n = nil then t.tail <- p else t.prev.(n) <- p

let push_head t page =
  t.prev.(page) <- nil;
  t.next.(page) <- t.head;
  if t.head = nil then t.tail <- page else t.prev.(t.head) <- page;
  t.head <- page

let touch t page =
  let was_in = mem t page in
  if was_in then begin
    if t.head <> page then begin
      unlink t page;
      push_head t page
    end
  end
  else begin
    push_head t page;
    if t.size = t.capacity then begin
      (* The new page is at the head and capacity >= 1, so the tail is
         an older page. *)
      let victim = t.tail in
      unlink t victim;
      t.prev.(victim) <- absent
    end
    else t.size <- t.size + 1
  end;
  was_in

let clear t =
  Array.fill t.prev 0 (Array.length t.prev) absent;
  t.head <- nil;
  t.tail <- nil;
  t.size <- 0
