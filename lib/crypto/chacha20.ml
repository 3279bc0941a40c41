(* ChaCha20 stream cipher (RFC 8439 §2). Verified against the RFC vectors
   in the test suite.

   Words are native ints whose low 32 bits hold the value, so the rounds
   allocate nothing: a call owns two 16-word int arrays (input state and
   keystream) and XORs whole 32-bit words, the tail byte by byte. *)

let mask32 = 0xFFFF_FFFF

(* Sums are left unmasked: native ints wrap mod 2^63, so their low 32 bits
   stay exact. [rotl] masks its input, the only place the high bits could
   leak into the low 32. *)
let rotl x n = let x = x land mask32 in (x lsl n) lor (x lsr (32 - n))

let u32 b off = Int32.to_int (Bytes.get_int32_le b off) land mask32

let init_state ~key ~nonce ~counter =
  if Bytes.length key <> 32 then invalid_arg "Chacha20: key must be 32 bytes";
  if Bytes.length nonce <> 12 then invalid_arg "Chacha20: nonce must be 12 bytes";
  let st =
    [| 0x61707865; 0x3320646e; 0x79622d32; 0x6b206574; 0; 0; 0; 0; 0; 0; 0; 0;
       Int32.to_int counter land mask32; 0; 0; 0 |]
  in
  for i = 0 to 7 do st.(4 + i) <- u32 key (4 * i) done;
  for i = 0 to 2 do st.(13 + i) <- u32 nonce (4 * i) done;
  st

(* The keystream block for [st] into [ks]; [st]'s counter then advances,
   wrapping at 2^32. The working state is 16 local refs that never escape,
   so ocamlopt keeps them in registers or stack slots, not on the heap. *)
let next_block st ks =
  let x0 = ref st.(0) and x1 = ref st.(1) and x2 = ref st.(2) and x3 = ref st.(3) in
  let x4 = ref st.(4) and x5 = ref st.(5) and x6 = ref st.(6) and x7 = ref st.(7) in
  let x8 = ref st.(8) and x9 = ref st.(9) and x10 = ref st.(10) and x11 = ref st.(11) in
  let x12 = ref st.(12) and x13 = ref st.(13) and x14 = ref st.(14) and x15 = ref st.(15) in
  for _ = 1 to 10 do
    (* Columns. *)
    x0 := !x0 + !x4; x12 := rotl (!x12 lxor !x0) 16; x8 := !x8 + !x12; x4 := rotl (!x4 lxor !x8) 12;
    x0 := !x0 + !x4; x12 := rotl (!x12 lxor !x0) 8; x8 := !x8 + !x12; x4 := rotl (!x4 lxor !x8) 7;
    x1 := !x1 + !x5; x13 := rotl (!x13 lxor !x1) 16; x9 := !x9 + !x13; x5 := rotl (!x5 lxor !x9) 12;
    x1 := !x1 + !x5; x13 := rotl (!x13 lxor !x1) 8; x9 := !x9 + !x13; x5 := rotl (!x5 lxor !x9) 7;
    x2 := !x2 + !x6; x14 := rotl (!x14 lxor !x2) 16; x10 := !x10 + !x14; x6 := rotl (!x6 lxor !x10) 12;
    x2 := !x2 + !x6; x14 := rotl (!x14 lxor !x2) 8; x10 := !x10 + !x14; x6 := rotl (!x6 lxor !x10) 7;
    x3 := !x3 + !x7; x15 := rotl (!x15 lxor !x3) 16; x11 := !x11 + !x15; x7 := rotl (!x7 lxor !x11) 12;
    x3 := !x3 + !x7; x15 := rotl (!x15 lxor !x3) 8; x11 := !x11 + !x15; x7 := rotl (!x7 lxor !x11) 7;
    (* Diagonals. *)
    x0 := !x0 + !x5; x15 := rotl (!x15 lxor !x0) 16; x10 := !x10 + !x15; x5 := rotl (!x5 lxor !x10) 12;
    x0 := !x0 + !x5; x15 := rotl (!x15 lxor !x0) 8; x10 := !x10 + !x15; x5 := rotl (!x5 lxor !x10) 7;
    x1 := !x1 + !x6; x12 := rotl (!x12 lxor !x1) 16; x11 := !x11 + !x12; x6 := rotl (!x6 lxor !x11) 12;
    x1 := !x1 + !x6; x12 := rotl (!x12 lxor !x1) 8; x11 := !x11 + !x12; x6 := rotl (!x6 lxor !x11) 7;
    x2 := !x2 + !x7; x13 := rotl (!x13 lxor !x2) 16; x8 := !x8 + !x13; x7 := rotl (!x7 lxor !x8) 12;
    x2 := !x2 + !x7; x13 := rotl (!x13 lxor !x2) 8; x8 := !x8 + !x13; x7 := rotl (!x7 lxor !x8) 7;
    x3 := !x3 + !x4; x14 := rotl (!x14 lxor !x3) 16; x9 := !x9 + !x14; x4 := rotl (!x4 lxor !x9) 12;
    x3 := !x3 + !x4; x14 := rotl (!x14 lxor !x3) 8; x9 := !x9 + !x14; x4 := rotl (!x4 lxor !x9) 7
  done;
  ks.(0) <- !x0; ks.(1) <- !x1; ks.(2) <- !x2; ks.(3) <- !x3;
  ks.(4) <- !x4; ks.(5) <- !x5; ks.(6) <- !x6; ks.(7) <- !x7;
  ks.(8) <- !x8; ks.(9) <- !x9; ks.(10) <- !x10; ks.(11) <- !x11;
  ks.(12) <- !x12; ks.(13) <- !x13; ks.(14) <- !x14; ks.(15) <- !x15;
  for i = 0 to 15 do ks.(i) <- (ks.(i) + st.(i)) land mask32 done;
  st.(12) <- (st.(12) + 1) land mask32

let xor_into ?(counter = 1l) ~key ~nonce src ~src_off dst ~dst_off ~len =
  let st = init_state ~key ~nonce ~counter in
  if len < 0 || src_off < 0 || dst_off < 0
     || src_off > Bytes.length src - len || dst_off > Bytes.length dst - len
  then invalid_arg "Chacha20.xor_into: range out of bounds";
  let ks = Array.make 16 0 in
  let pos = ref 0 in
  while !pos < len do
    next_block st ks;
    let n = if len - !pos < 64 then len - !pos else 64 in
    let s = src_off + !pos and d = dst_off + !pos in
    for w = 0 to (n / 4) - 1 do
      Bytes.set_int32_le dst (d + (4 * w))
        (Int32.logxor (Bytes.get_int32_le src (s + (4 * w))) (Int32.of_int ks.(w)))
    done;
    for i = n land lnot 3 to n - 1 do
      let k = (ks.(i lsr 2) lsr (8 * (i land 3))) land 0xFF in
      Bytes.set dst (d + i) (Char.chr (Char.code (Bytes.get src (s + i)) lxor k))
    done;
    pos := !pos + n
  done
