(* Frames are packed (owner, vpage) words: a shared EPC hosts pages from
   several enclaves at once, and the sweep must know whose page table to
   consult for each frame's access bit.  The single-enclave case is
   owner 0 throughout and costs one mask per probe. *)

let owner_bits = 16
let owner_mask = (1 lsl owner_bits) - 1
let max_owner = owner_mask - 1

type t = {
  slots : int array; (* (vpage lsl owner_bits) lor owner, -1 when free *)
  free : int array;
      (* Stack of free slot indices, top at [free_top - 1].  Popped on
         insert, pushed on remove: the last-freed slot is reused first,
         and a fresh pool hands out 0, 1, 2, ...  Slot order is what the
         hand sweeps, so this order is part of the simulated result. *)
  mutable free_top : int;
  mutable hand : int;
  mutable used : int;
}

type verdict = Pass | Spare | Take

exception No_evictable_page

let create ~capacity =
  if capacity <= 0 then invalid_arg "Clock_evictor.create: capacity must be positive";
  {
    slots = Array.make capacity (-1);
    free = Array.init capacity (fun i -> capacity - 1 - i);
    free_top = capacity;
    hand = 0;
    used = 0;
  }

let capacity t = Array.length t.slots
let used t = t.used
let is_full t = t.used >= Array.length t.slots

let pack ~owner vpage = (vpage lsl owner_bits) lor owner
let frame_owner w = w land owner_mask
let frame_vpage w = w lsr owner_bits

let insert t ~owner vpage =
  if owner < 0 || owner > max_owner then
    invalid_arg "Clock_evictor.insert: owner out of range";
  if vpage < 0 then invalid_arg "Clock_evictor.insert: negative vpage";
  if t.free_top = 0 then invalid_arg "Clock_evictor.insert: EPC full";
  t.free_top <- t.free_top - 1;
  let slot = t.free.(t.free_top) in
  t.slots.(slot) <- pack ~owner vpage;
  t.used <- t.used + 1;
  slot

let remove t ~slot =
  if slot < 0 || slot >= Array.length t.slots then
    invalid_arg "Clock_evictor.remove: slot out of range";
  if t.slots.(slot) = -1 then invalid_arg "Clock_evictor.remove: slot already free";
  t.slots.(slot) <- -1;
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1;
  t.used <- t.used - 1

let check_slot t slot op =
  if slot < 0 || slot >= Array.length t.slots || t.slots.(slot) = -1 then
    invalid_arg ("Clock_evictor." ^ op ^ ": slot not in use")

let slot_owner t slot =
  check_slot t slot "slot_owner";
  frame_owner t.slots.(slot)

let slot_vpage t slot =
  check_slot t slot "slot_vpage";
  frame_vpage t.slots.(slot)

let advance t =
  let h = t.hand + 1 in
  t.hand <- (if h = Array.length t.slots then 0 else h)

(* At most two revolutions: the first may clear every bit, the second
   must then find a victim.  A pinned frame is passed over without a
   clear, so it never ages toward victimhood; if every resident frame is
   pinned the budget runs dry and the typed error surfaces.  A loop over
   plain ints: the sweep runs once per eviction and allocates nothing. *)
let rec sweep t probe budget =
  if budget <= 0 then raise No_evictable_page
  else begin
    let slot = t.hand in
    let w = t.slots.(slot) in
    if w = -1 then begin
      advance t;
      sweep t probe (budget - 1)
    end
    else
      match probe ~owner:(frame_owner w) ~vpage:(frame_vpage w) with
      | Take ->
        advance t;
        slot
      | Pass | Spare ->
        advance t;
        sweep t probe (budget - 1)
  end

let choose_victim t probe =
  if t.used = 0 then invalid_arg "Clock_evictor.choose_victim: EPC empty";
  sweep t probe (2 * Array.length t.slots)

let scan t f =
  Array.iter (fun w -> if w <> -1 then f (frame_vpage w)) t.slots

let scan_owned t f =
  Array.iter
    (fun w -> if w <> -1 then f ~owner:(frame_owner w) ~vpage:(frame_vpage w))
    t.slots

let resident t =
  Array.fold_right
    (fun w acc -> if w = -1 then acc else frame_vpage w :: acc)
    t.slots []

let resident_by_owner t =
  let counts = Hashtbl.create 8 in
  Array.iter
    (fun w ->
      if w <> -1 then
        let o = frame_owner w in
        Hashtbl.replace counts o
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts o)))
    t.slots;
  List.sort compare (Hashtbl.fold (fun o n acc -> (o, n) :: acc) counts [])
