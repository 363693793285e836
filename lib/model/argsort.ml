(* Stable merge sorts of task ids by a float key column, monomorphic.

   [Array.sort] and [Array.stable_sort] with a closure comparator pay a
   closure call per comparison and a [caml_modify] per store, since
   their arrays are polymorphic; at 10^6 ids that is most of a second
   per sort. The loops below compare unboxed reads of the key column
   and store into int arrays directly.

   The sort is the standard library's [stable_sort] specialised: sort
   the right half into a scratch array of n/2 ids, the left half into
   the array's right half, and merge the two into place, with insertion
   sort below [cutoff]. A merge takes from the left run on ties, so
   equal keys keep their input order. *)

(* [before desc keys a b]: id [a] goes strictly before id [b] — under
   [Float.compare], [keys.(a)] is greater when [desc], smaller
   otherwise (NaN is below every number) — without the C call. *)
let[@inline] before desc (keys : float array) a b =
  let x = keys.(a) and y = keys.(b) in
  if desc then x > y || (y <> y && x = x) else x < y || (x <> x && y = y)

let cutoff = 12

(* Merge src1[s1 .. s1 + l1) and src2[s2 .. s2 + l2) into dst from [d]. *)
let merge desc keys (src1 : int array) s1 l1 (src2 : int array) s2 l2 (dst : int array) d =
  let e1 = s1 + l1 and e2 = s2 + l2 in
  let i1 = ref s1 and i2 = ref s2 and d = ref d in
  while !i1 < e1 && !i2 < e2 do
    let a = src1.(!i1) and b = src2.(!i2) in
    if before desc keys b a then begin
      dst.(!d) <- b;
      incr i2
    end
    else begin
      dst.(!d) <- a;
      incr i1
    end;
    incr d
  done;
  if !i1 < e1 then Array.blit src1 !i1 dst !d (e1 - !i1)
  else Array.blit src2 !i2 dst !d (e2 - !i2)

(* Insertion-sort src[s .. s + len) into dst[d .. d + len); [src] and
   [dst] may be the same range. *)
let isortto desc keys (src : int array) s (dst : int array) d len =
  for i = 0 to len - 1 do
    let e = src.(s + i) in
    let j = ref (d + i - 1) in
    while !j >= d && before desc keys e dst.(!j) do
      dst.(!j + 1) <- dst.(!j);
      decr j
    done;
    dst.(!j + 1) <- e
  done

(* Sort src[s .. s + len) into dst[d .. d + len), using the source
   range as scratch. *)
let rec sortto desc keys src s dst d len =
  if len <= cutoff then isortto desc keys src s dst d len
  else begin
    let l1 = len / 2 in
    let l2 = len - l1 in
    sortto desc keys src (s + l1) dst (d + l1) l2;
    sortto desc keys src s src (s + l2) l1;
    merge desc keys src (s + l2) l1 dst (d + l1) l2 dst d
  end

let sort desc keys ids =
  let len = Array.length ids in
  if len <= cutoff then isortto desc keys ids 0 ids 0 len
  else begin
    let l1 = len / 2 in
    let l2 = len - l1 in
    let scratch = Array.make l2 0 in
    sortto desc keys ids l1 scratch 0 l2;
    sortto desc keys ids 0 ids l2 l1;
    merge desc keys ids l2 l1 scratch 0 l2 ids 0
  end

let decreasing keys =
  let ids = Array.make (Array.length keys) 0 in
  for j = 0 to Array.length ids - 1 do
    ids.(j) <- j
  done;
  sort true keys ids;
  ids

let rec ordered keys (ids : int array) k =
  k >= Array.length ids
  || ((not (before false keys ids.(k) ids.(k - 1))) && ordered keys ids (k + 1))

let increasing keys ids = if not (ordered keys ids 1) then sort false keys ids
