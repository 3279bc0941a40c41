(* ChaCha20 stream cipher (RFC 8439 §2). Verified against the RFC vectors
   in the test suite.

   Assumes a 64-bit target. The block keeps each 32-bit word in the top
   half of a nativeint, low 32 bits zero, so sums wrap mod 2^32 with no
   mask, and its 16 working words, refs that never escape, stay unboxed in
   registers or stack slots. A state is one 128-byte buffer: the last
   keystream block in bytes 0-63, then the 16 input words (constants, key,
   counter, nonce), little-endian. XOR runs 8 bytes at a time. *)

type t = bytes

let init_state ~key ~nonce ~counter =
  if Bytes.length key <> 32 then invalid_arg "Chacha20: key must be 32 bytes";
  if Bytes.length nonce <> 12 then invalid_arg "Chacha20: nonce must be 12 bytes";
  let t = Bytes.create 128 in
  Bytes.blit_string "expand 32-byte k" 0 t 64 16;
  Bytes.blit key 0 t 80 32;
  Bytes.set_int32_le t 112 counter;
  Bytes.blit nonce 0 t 116 12;
  t

(* The helpers are top-level and inlined: a local function would box the
   nativeints passed to it. *)
let[@inline] rotl x n = Nativeint.(logor (shift_left x n) (shift_left (shift_right_logical x (64 - n)) 32))

let[@inline] word t i = Nativeint.shift_left (Nativeint.of_int32 (Bytes.get_int32_le t (64 + (4 * i)))) 32

(* Keystream bytes 8i..8i+7: working words [lo] and [hi] plus input words
   2i and 2i+1, stored little-endian. *)
let[@inline] store t i lo hi =
  let lo = Nativeint.add lo (word t (2 * i)) and hi = Nativeint.add hi (word t ((2 * i) + 1)) in
  Bytes.set_int64_le t (8 * i) (Int64.of_nativeint Nativeint.(logor hi (shift_right_logical lo 32)))

(* The keystream block for [t]'s counter, into bytes 0-63 of [t], which is
   returned; the counter then advances, wrapping at 2^32. *)
let next_block t =
  let x0 = ref (word t 0) and x1 = ref (word t 1) and x2 = ref (word t 2) and x3 = ref (word t 3) in
  let x4 = ref (word t 4) and x5 = ref (word t 5) and x6 = ref (word t 6) and x7 = ref (word t 7) in
  let x8 = ref (word t 8) and x9 = ref (word t 9) and x10 = ref (word t 10) and x11 = ref (word t 11) in
  let x12 = ref (word t 12) and x13 = ref (word t 13) and x14 = ref (word t 14) and x15 = ref (word t 15) in
  let open Nativeint in
  for _ = 1 to 10 do
    (* Columns. *)
    x0 := add !x0 !x4; x12 := rotl (logxor !x12 !x0) 16; x8 := add !x8 !x12; x4 := rotl (logxor !x4 !x8) 12;
    x0 := add !x0 !x4; x12 := rotl (logxor !x12 !x0) 8; x8 := add !x8 !x12; x4 := rotl (logxor !x4 !x8) 7;
    x1 := add !x1 !x5; x13 := rotl (logxor !x13 !x1) 16; x9 := add !x9 !x13; x5 := rotl (logxor !x5 !x9) 12;
    x1 := add !x1 !x5; x13 := rotl (logxor !x13 !x1) 8; x9 := add !x9 !x13; x5 := rotl (logxor !x5 !x9) 7;
    x2 := add !x2 !x6; x14 := rotl (logxor !x14 !x2) 16; x10 := add !x10 !x14; x6 := rotl (logxor !x6 !x10) 12;
    x2 := add !x2 !x6; x14 := rotl (logxor !x14 !x2) 8; x10 := add !x10 !x14; x6 := rotl (logxor !x6 !x10) 7;
    x3 := add !x3 !x7; x15 := rotl (logxor !x15 !x3) 16; x11 := add !x11 !x15; x7 := rotl (logxor !x7 !x11) 12;
    x3 := add !x3 !x7; x15 := rotl (logxor !x15 !x3) 8; x11 := add !x11 !x15; x7 := rotl (logxor !x7 !x11) 7;
    (* Diagonals. *)
    x0 := add !x0 !x5; x15 := rotl (logxor !x15 !x0) 16; x10 := add !x10 !x15; x5 := rotl (logxor !x5 !x10) 12;
    x0 := add !x0 !x5; x15 := rotl (logxor !x15 !x0) 8; x10 := add !x10 !x15; x5 := rotl (logxor !x5 !x10) 7;
    x1 := add !x1 !x6; x12 := rotl (logxor !x12 !x1) 16; x11 := add !x11 !x12; x6 := rotl (logxor !x6 !x11) 12;
    x1 := add !x1 !x6; x12 := rotl (logxor !x12 !x1) 8; x11 := add !x11 !x12; x6 := rotl (logxor !x6 !x11) 7;
    x2 := add !x2 !x7; x13 := rotl (logxor !x13 !x2) 16; x8 := add !x8 !x13; x7 := rotl (logxor !x7 !x8) 12;
    x2 := add !x2 !x7; x13 := rotl (logxor !x13 !x2) 8; x8 := add !x8 !x13; x7 := rotl (logxor !x7 !x8) 7;
    x3 := add !x3 !x4; x14 := rotl (logxor !x14 !x3) 16; x9 := add !x9 !x14; x4 := rotl (logxor !x4 !x9) 12;
    x3 := add !x3 !x4; x14 := rotl (logxor !x14 !x3) 8; x9 := add !x9 !x14; x4 := rotl (logxor !x4 !x9) 7
  done;
  store t 0 !x0 !x1; store t 1 !x2 !x3; store t 2 !x4 !x5; store t 3 !x6 !x7;
  store t 4 !x8 !x9; store t 5 !x10 !x11; store t 6 !x12 !x13; store t 7 !x14 !x15;
  Bytes.set_int32_le t 112 (Int32.add (Bytes.get_int32_le t 112) 1l);
  t

let xor t src ~src_off dst ~dst_off ~len =
  if len < 0 || src_off < 0 || dst_off < 0
     || src_off > Bytes.length src - len || dst_off > Bytes.length dst - len
  then invalid_arg "Chacha20.xor: range out of bounds";
  let pos = ref 0 in
  while !pos < len do
    let ks = next_block t in
    let n = if len - !pos < 64 then len - !pos else 64 in
    let s = src_off + !pos and d = dst_off + !pos in
    for w = 0 to (n / 8) - 1 do
      let i = 8 * w in
      Bytes.set_int64_le dst (d + i) (Int64.logxor (Bytes.get_int64_le src (s + i)) (Bytes.get_int64_le ks i))
    done;
    for i = n land lnot 7 to n - 1 do
      Bytes.set dst (d + i) (Char.chr (Char.code (Bytes.get src (s + i)) lxor Char.code (Bytes.get ks i)))
    done;
    pos := !pos + n
  done

let xor_into ?(counter = 1l) ~key ~nonce src ~src_off dst ~dst_off ~len =
  xor (init_state ~key ~nonce ~counter) src ~src_off dst ~dst_off ~len
