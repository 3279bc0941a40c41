(* ChaCha20 stream cipher (RFC 8439 §2). Verified against the RFC vectors
   in the test suite.

   Words are native ints masked to 32 bits, so the rounds allocate
   nothing: a call owns two 16-word int arrays (input state and working
   keystream) and XORs whole 32-bit words, the tail byte by byte. *)

let mask32 = 0xFFFF_FFFF

let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

let[@inline] quarter_round x a b c d =
  let va = (x.(a) + x.(b)) land mask32 in
  let vd = rotl (x.(d) lxor va) 16 in
  let vc = (x.(c) + vd) land mask32 in
  let vb = rotl (x.(b) lxor vc) 12 in
  let va = (va + vb) land mask32 in
  let vd = rotl (vd lxor va) 8 in
  let vc = (vc + vd) land mask32 in
  x.(b) <- rotl (vb lxor vc) 7;
  x.(a) <- va;
  x.(c) <- vc;
  x.(d) <- vd

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
   wrapping at 2^32. *)
let next_block st ks =
  Array.blit st 0 ks 0 16;
  for _ = 1 to 10 do
    quarter_round ks 0 4 8 12;
    quarter_round ks 1 5 9 13;
    quarter_round ks 2 6 10 14;
    quarter_round ks 3 7 11 15;
    quarter_round ks 0 5 10 15;
    quarter_round ks 1 6 11 12;
    quarter_round ks 2 7 8 13;
    quarter_round ks 3 4 9 14
  done;
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

let encrypt ?counter ~key ~nonce data =
  let n = Bytes.length data in
  let out = Bytes.create n in
  xor_into ?counter ~key ~nonce data ~src_off:0 out ~dst_off:0 ~len:n;
  out

let decrypt = encrypt

let block ~key ~nonce ~counter = encrypt ~counter ~key ~nonce (Bytes.make 64 '\000')
