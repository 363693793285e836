(* Words are OCaml native ints used as 62-bit vectors (the top bit of the
   63-bit int is left unused to keep all arithmetic positive). *)
let bits_per_word = 62

type t = { len : int; words : int array }

let words_for len = (len + bits_per_word - 1) / bits_per_word

let create len =
  if len < 0 then invalid_arg "Bitset.create: negative capacity";
  { len; words = Array.make (words_for len) 0 }

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Bitset: element out of range"

let add t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let remove t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let mem t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

let full len =
  let t = create len in
  for i = 0 to len - 1 do
    add t i
  done;
  t

let singleton len i =
  let t = create len in
  add t i;
  t

let of_list len l =
  let t = create len in
  List.iter (add t) l;
  t

let capacity t = t.len

let copy t = { len = t.len; words = Array.copy t.words }

(* Kernighan's bit-clear loop: one iteration per set bit, not per bit
   position. *)
let popcount word =
  let rec loop acc w = if w = 0 then acc else loop (acc + 1) (w land (w - 1)) in
  loop 0 word

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

(* Module-level recursion instead of [Array.for_all] with a lambda —
   the closure allocated per call showed up in the engine's
   validate-every-placement loop. *)
let rec words_zero words k =
  k >= Array.length words || (words.(k) = 0 && words_zero words (k + 1))

let is_empty t = words_zero t.words 0

(* Word-level scan: zero words are skipped outright, and within a word
   the set bits are peeled off the low end by shifting — a byte at a
   time across zero bytes, a bit at a time otherwise — so the cost is
   one step per member plus a few per word, never one bounds-checked
   [mem] per position. Bits at or above [len] are never set ([add]
   checks), so no member is out of range. *)
let iter f t =
  let words = t.words in
  for k = 0 to Array.length words - 1 do
    let w = ref words.(k) and i = ref (k * bits_per_word) in
    while !w <> 0 do
      if !w land 0xff = 0 then begin
        w := !w lsr 8;
        i := !i + 8
      end
      else begin
        if !w land 1 <> 0 then f !i;
        w := !w lsr 1;
        incr i
      end
    done
  done

let fold f init t =
  let acc = ref init in
  iter (fun i -> acc := f !acc i) t;
  !acc

(* [w <> 0]; zero bytes are skipped a byte at a time, as in [iter]. *)
let rec lowest_bit w i =
  if w land 0xff = 0 then lowest_bit (w lsr 8) (i + 8)
  else if w land 1 <> 0 then i
  else lowest_bit (w lsr 1) (i + 1)

(* The smallest member in words [k ..], or -1. *)
let rec first_from words k =
  if k >= Array.length words then -1
  else if words.(k) = 0 then first_from words (k + 1)
  else lowest_bit words.(k) (k * bits_per_word)

let choose t =
  let i = first_from t.words 0 in
  if i < 0 then raise Not_found else i

let next t i =
  if i < 0 then invalid_arg "Bitset.next: negative start";
  if i >= t.len then -1
  else
    let k = i / bits_per_word in
    let w = t.words.(k) lsr (i mod bits_per_word) in
    if w <> 0 then lowest_bit w i else first_from t.words (k + 1)

let check_same_capacity a b =
  if a.len <> b.len then invalid_arg "Bitset: capacity mismatch"

let inter a b =
  check_same_capacity a b;
  { len = a.len; words = Array.map2 ( land ) a.words b.words }

(* Word-level intersection queries, allocation-free (no intermediate
   set) — the engine's strand scans and the healer's degree checks call
   these per task per event. *)
let rec words_disjoint aw bw k =
  k >= Array.length aw || (aw.(k) land bw.(k) = 0 && words_disjoint aw bw (k + 1))

let inter_is_empty a b =
  check_same_capacity a b;
  words_disjoint a.words b.words 0

let rec words_inter_count aw bw k acc =
  if k >= Array.length aw then acc
  else words_inter_count aw bw (k + 1) (acc + popcount (aw.(k) land bw.(k)))

let inter_cardinal a b =
  check_same_capacity a b;
  words_inter_count a.words b.words 0 0

let subset a b =
  check_same_capacity a b;
  Array.for_all2 (fun wa wb -> wa land lnot wb = 0) a.words b.words

let rec words_equal aw bw k =
  k >= Array.length aw || (aw.(k) = bw.(k) && words_equal aw bw (k + 1))

let equal a b = a.len = b.len && words_equal a.words b.words 0

(* Every word is folded in, and each step shifts high bits down before
   the odd multiplier spreads them up again, so the low bits a table
   indexes by depend on every member: sets whose members all sit high
   in a word, or in a late word, still spread. *)
let rec words_hash words k h =
  if k >= Array.length words then h lxor (h lsr 29)
  else
    let h = h lxor words.(k) in
    words_hash words (k + 1) ((h lxor (h lsr 31)) * 0x2545F4914F6CDD1D)

let hash t = words_hash t.words 0 t.len land max_int
