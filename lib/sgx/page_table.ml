(* Packed page table: one integer word per page, stored off-heap.

   The obvious representation — an array of records with mutable fields —
   is what this module used to be, and it is hostile to both the GC and
   the cache at ELRANGE scale: a million-page table is a million-pointer
   array plus a million 4-field records (plus one more box per preloaded
   page for the counted flag), all of which every major-GC mark pass must
   walk, for every live enclave.  A fused replay keeps several enclaves
   live at once, multiplying that marking cost into the dominant term of
   the whole run.  Packing each entry into one [Bigarray] int makes the
   table invisible to the GC and turns an entry probe into a single
   indexed load.

   Word layout (low to high):
     bit 0   present    resident in EPC
     bit 1   accessed   PTE access bit, cleared by the service scan
     bit 2   preloaded  provenance: came in via DFP speculation
     bit 3   counted    scan already credited this page (AccPreloadCounter)
     bit 4   pinned     mid-return to a faulting thread; not evictable
     bits 5+ slot + 1   EPC frame index, 0 meaning "no slot" (-1) *)

type provenance = Demand | Preloaded

let bit_present = 0b00001
let bit_accessed = 0b00010
let bit_preloaded = 0b00100
let bit_counted = 0b01000
let bit_pinned = 0b10000
let slot_shift = 5

type words = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  words : words;
  mutable resident : int;
  (* Pages whose access bit went 0 -> 1 since the last {!drain_touched}:
     the service scan only cares about set bits (harvesting a clear bit
     and clearing a clear bit are both no-ops), so draining this stack is
     equivalent to sweeping every resident frame — at O(touched) instead
     of O(EPC capacity).  Entries whose bit was cleared in the meantime
     (eviction, CLOCK sweep) are skipped at drain time; a page is pushed
     again only after its bit was cleared, so the stack holds at most one
     live entry per page. *)
  mutable touched : int array;
  mutable touched_len : int;
}

let create ~pages =
  if pages <= 0 then invalid_arg "Page_table.create: pages must be positive";
  let words = Bigarray.Array1.create Bigarray.int Bigarray.c_layout pages in
  Bigarray.Array1.fill words 0;
  { words; resident = 0; touched = Array.make (min pages 64) 0; touched_len = 0 }

let pages t = Bigarray.Array1.dim t.words

(* The raise lives out of line so that [word] — a compare and a load —
   stays small enough to inline into every accessor below. *)
let[@inline never] out_of_range t vpage =
  invalid_arg
    (Printf.sprintf "Page_table: page %d outside ELRANGE [0,%d)" vpage
       (Bigarray.Array1.dim t.words))

let word t vpage =
  if vpage < 0 || vpage >= Bigarray.Array1.dim t.words then out_of_range t vpage
  else Bigarray.Array1.unsafe_get t.words vpage

let set_word t vpage w = Bigarray.Array1.unsafe_set t.words vpage w

let present t vpage = word t vpage land bit_present <> 0
let accessed t vpage = word t vpage land bit_accessed <> 0
let pinned t vpage = word t vpage land bit_pinned <> 0
let preloaded t vpage = word t vpage land bit_preloaded <> 0
let counted t vpage = word t vpage land bit_counted <> 0
let slot t vpage = (word t vpage lsr slot_shift) - 1

let provenance t vpage =
  if preloaded t vpage then Preloaded else Demand

let resident_count t = t.resident

let push_touched t vpage =
  if t.touched_len = Array.length t.touched then begin
    let bigger = Array.make (2 * Array.length t.touched) 0 in
    Array.blit t.touched 0 bigger 0 t.touched_len;
    t.touched <- bigger
  end;
  t.touched.(t.touched_len) <- vpage;
  t.touched_len <- t.touched_len + 1

let drain_touched t ~f =
  for i = 0 to t.touched_len - 1 do
    let vpage = t.touched.(i) in
    let w = Bigarray.Array1.unsafe_get t.words vpage in
    if w land bit_accessed <> 0 then begin
      f vpage;
      (* Re-read: [f] may have flipped other bits (counted). *)
      set_word t vpage
        (Bigarray.Array1.unsafe_get t.words vpage land lnot bit_accessed)
    end
  done;
  t.touched_len <- 0

let mark_loaded t vpage ~prov ~slot =
  let w = word t vpage in
  if w land bit_present <> 0 then
    invalid_arg
      (Printf.sprintf "Page_table.mark_loaded: page %d already present" vpage);
  (* Demand-loaded pages are hot by construction; preloaded pages start
     with a clear bit so the scan can tell whether they were ever used.
     Either way the provenance bits are rewritten: a reloaded page starts
     a fresh counted life. *)
  (match prov with
  | Demand ->
    set_word t vpage
      (bit_present lor bit_accessed lor ((slot + 1) lsl slot_shift));
    push_touched t vpage
  | Preloaded ->
    set_word t vpage
      (bit_present lor bit_preloaded lor ((slot + 1) lsl slot_shift)));
  t.resident <- t.resident + 1

let mark_evicted t vpage =
  let w = word t vpage in
  if w land bit_present = 0 then
    invalid_arg
      (Printf.sprintf "Page_table.mark_evicted: page %d not present" vpage);
  (* Presence, access bit and slot go; provenance survives until the next
     load rewrites it (nothing reads it while the page is out). *)
  set_word t vpage (w land (bit_preloaded lor bit_counted));
  t.resident <- t.resident - 1

let touch t vpage =
  let w = word t vpage in
  if w land bit_present = 0 then
    invalid_arg (Printf.sprintf "Page_table.touch: page %d not present" vpage);
  if w land bit_accessed = 0 then begin
    set_word t vpage (w lor bit_accessed);
    push_touched t vpage
  end

let clear_accessed t vpage =
  let w = word t vpage in
  set_word t vpage (w land lnot bit_accessed)

let pin t vpage =
  let w = word t vpage in
  if w land bit_present = 0 then
    invalid_arg (Printf.sprintf "Page_table.pin: page %d not present" vpage);
  set_word t vpage (w lor bit_pinned)

let unpin t vpage =
  let w = word t vpage in
  set_word t vpage (w land lnot bit_pinned)

let set_counted t vpage =
  let w = word t vpage in
  set_word t vpage (w lor bit_counted)
