(* The 256-bit state [s0 s1 s2 s3] lives in a 32-byte buffer, read and
   written with unboxed 64-bit loads and stores: mutable [int64] record
   fields would box a fresh value on every store. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let create seed =
  let sm = Splitmix64.create seed in
  let t = Bytes.create 32 in
  for w = 0 to 3 do
    set t (8 * w) (Splitmix64.next sm)
  done;
  t

let copy = Bytes.copy

let[@inline] next t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set t 8 (Int64.logxor s1 s2);
  set t 0 (Int64.logxor s0 s3);
  set t 16 (Int64.logxor s2 tmp);
  set t 24 (rotl s3 45);
  result

let next_bits t = Int64.to_int (Int64.shift_right_logical (next t) 2)

(* Jump polynomial for 2^128 steps, from the reference implementation. *)
let jump_poly = [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump t =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun word ->
      for b = 0 to 63 do
        if Int64.logand word (Int64.shift_left 1L b) <> 0L then
          for w = 0 to 3 do
            set acc (8 * w) (Int64.logxor (get acc (8 * w)) (get t (8 * w)))
          done;
        ignore (next t)
      done)
    jump_poly;
  Bytes.blit acc 0 t 0 32
