(* In-place descending introsort specialized to float arrays.

   [Array.sort] with a [fun a b -> Float.compare b a] comparator boxes
   both floats at every comparison (the closure call is a generic
   two-argument application); on the million-task instances phase 1
   sorts, that is tens of megabytes of minor garbage per sort. The
   loops below compare unboxed array reads directly and allocate
   nothing.

   Median-of-three quicksort does the bulk of the work, insertion sort
   finishes ranges of at most [cutoff] elements, and a range still
   being split after 2·log₂ n levels is heapsorted instead, so the worst
   case stays O(n log n). The order is [Float.compare]'s total order,
   reversed: NaNs sort below every number, exactly where the generic
   comparator puts them, so callers see the array [Array.sort] would
   have produced (elements that compare equal are indistinguishable, so
   instability is unobservable). *)

(* [before x y]: [x] goes strictly before [y], i.e.
   [Float.compare x y > 0] — without the C call. *)
let[@inline] before (x : float) y = x > y || (y <> y && x = x)

let[@inline] swap (a : float array) i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

let cutoff = 16

let insertion (a : float array) lo hi =
  for k = lo + 1 to hi do
    let x = a.(k) in
    let j = ref (k - 1) in
    while !j >= lo && before x a.(!j) do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Heap on [a.(lo) .. a.(lo + size - 1)] whose root is the element that
   goes last; extracting roots to the back yields descending order. *)
let rec sift_down (a : float array) lo size i =
  let l = (2 * i) + 1 in
  if l < size then begin
    let r = l + 1 in
    let c = if r < size && before a.(lo + l) a.(lo + r) then r else l in
    if before a.(lo + i) a.(lo + c) then begin
      swap a (lo + i) (lo + c);
      sift_down a lo size c
    end
  end

let heapsort a lo hi =
  let size = hi - lo + 1 in
  for i = (size / 2) - 1 downto 0 do
    sift_down a lo size i
  done;
  for last = size - 1 downto 1 do
    swap a lo (lo + last);
    sift_down a lo last 0
  done

let rec introsort (a : float array) lo hi depth =
  if hi - lo < cutoff then insertion a lo hi
  else if depth = 0 then heapsort a lo hi
  else begin
    (* Order the first, middle and last elements; the middle one is the
       pivot and the outer two bound both scans. *)
    let mid = lo + ((hi - lo) / 2) in
    if before a.(mid) a.(lo) then swap a lo mid;
    if before a.(hi) a.(mid) then begin
      swap a mid hi;
      if before a.(mid) a.(lo) then swap a lo mid
    end;
    let pivot = a.(mid) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while before a.(!i) pivot do
        incr i
      done;
      while before pivot a.(!j) do
        decr j
      done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    let j = !j and i = !i in
    (* Recurse into the smaller side; the tail call keeps the stack at
       O(log n). *)
    if j - lo < hi - i then begin
      introsort a lo j (depth - 1);
      introsort a i hi (depth - 1)
    end
    else begin
      introsort a i hi (depth - 1);
      introsort a lo j (depth - 1)
    end
  end

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

let descending a =
  let n = Array.length a in
  if n > 1 then introsort a 0 (n - 1) (2 * log2 n)
