type t = {
  mutable s0 : int64;
  mutable s1 : int64;
  mutable s2 : int64;
  mutable s3 : int64;
}

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let create seed =
  let sm = Splitmix64.create seed in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  { s0; s1; s2; s3 }

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let next t =
  let result = Int64.add (rotl (Int64.add t.s0 t.s3) 23) t.s0 in
  let tmp = Int64.shift_left t.s1 17 in
  t.s2 <- Int64.logxor t.s2 t.s0;
  t.s3 <- Int64.logxor t.s3 t.s1;
  t.s1 <- Int64.logxor t.s1 t.s2;
  t.s0 <- Int64.logxor t.s0 t.s3;
  t.s2 <- Int64.logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let two_pow_minus_53 = 1.0 /. 9007199254740992.0

let next_float t =
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. two_pow_minus_53

(* Jump polynomial for 2^128 steps, from the reference implementation. *)
let jump_poly = [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump t =
  let s0 = ref 0L and s1 = ref 0L and s2 = ref 0L and s3 = ref 0L in
  Array.iter
    (fun word ->
      for b = 0 to 63 do
        if Int64.logand word (Int64.shift_left 1L b) <> 0L then begin
          s0 := Int64.logxor !s0 t.s0;
          s1 := Int64.logxor !s1 t.s1;
          s2 := Int64.logxor !s2 t.s2;
          s3 := Int64.logxor !s3 t.s3
        end;
        ignore (next t)
      done)
    jump_poly;
  t.s0 <- !s0;
  t.s1 <- !s1;
  t.s2 <- !s2;
  t.s3 <- !s3
