(* Poly1305 one-time authenticator (RFC 8439 §2.5).

   Arithmetic over 2^130 - 5 with five 26-bit limbs in native ints: limb
   products are at most 52 bits and a row of five fits comfortably in
   OCaml's 63-bit ints, so no big-number library is needed. Blocks are
   absorbed straight from the caller's bytes; only a trailing partial
   block is staged in [buf]. Nothing is allocated per block. *)

type t = {
  r0 : int; r1 : int; r2 : int; r3 : int; r4 : int;  (* clamped key limbs *)
  s1 : int; s2 : int; s3 : int; s4 : int;            (* 5 * r1 .. 5 * r4 *)
  pad0 : int; pad1 : int; pad2 : int; pad3 : int;  (* final addend s, 32-bit words *)
  mutable h0 : int; mutable h1 : int; mutable h2 : int; mutable h3 : int; mutable h4 : int;
  buf : bytes;                  (* staged partial block *)
  mutable fill : int;
}

let mask26 = (1 lsl 26) - 1
let mask32 = 0xFFFF_FFFF
let u32 b off = Int32.to_int (Bytes.get_int32_le b off) land mask32
let sel m h g = (h land lnot m) lor (g land mask26 land m)

let init key ~off =
  if off < 0 || off > Bytes.length key - 32 then invalid_arg "Poly1305.init: key must be 32 bytes";
  (* Clamp r per the RFC. *)
  let k0 = u32 key off land 0x0FFFFFFF in
  let k1 = u32 key (off + 4) land 0x0FFFFFFC in
  let k2 = u32 key (off + 8) land 0x0FFFFFFC in
  let k3 = u32 key (off + 12) land 0x0FFFFFFC in
  let r1 = ((k0 lsr 26) lor (k1 lsl 6)) land mask26 in
  let r2 = ((k1 lsr 20) lor (k2 lsl 12)) land mask26 in
  let r3 = ((k2 lsr 14) lor (k3 lsl 18)) land mask26 in
  let r4 = k3 lsr 8 in
  {
    r0 = k0 land mask26; r1; r2; r3; r4;
    s1 = 5 * r1; s2 = 5 * r2; s3 = 5 * r3; s4 = 5 * r4;
    pad0 = u32 key (off + 16); pad1 = u32 key (off + 20);
    pad2 = u32 key (off + 24); pad3 = u32 key (off + 28);
    h0 = 0; h1 = 0; h2 = 0; h3 = 0; h4 = 0;
    buf = Bytes.create 16;
    fill = 0;
  }

(* Absorb the 16 bytes of [b] at [off]; [hibit] is the 2^128 pad bit of a
   full block (1 lsl 24 in the top limb), 0 for the padded final block. *)
let block t b off ~hibit =
  let w0 = u32 b off and w1 = u32 b (off + 4) and w2 = u32 b (off + 8) and w3 = u32 b (off + 12) in
  let h0 = t.h0 + (w0 land mask26) in
  let h1 = t.h1 + (((w0 lsr 26) lor (w1 lsl 6)) land mask26) in
  let h2 = t.h2 + (((w1 lsr 20) lor (w2 lsl 12)) land mask26) in
  let h3 = t.h3 + (((w2 lsr 14) lor (w3 lsl 18)) land mask26) in
  let h4 = t.h4 + ((w3 lsr 8) lor hibit) in
  (* h <- h * r mod 2^130-5, schoolbook with 5*r folding. *)
  let d0 = (h0 * t.r0) + (h1 * t.s4) + (h2 * t.s3) + (h3 * t.s2) + (h4 * t.s1) in
  let d1 = (h0 * t.r1) + (h1 * t.r0) + (h2 * t.s4) + (h3 * t.s3) + (h4 * t.s2) in
  let d2 = (h0 * t.r2) + (h1 * t.r1) + (h2 * t.r0) + (h3 * t.s4) + (h4 * t.s3) in
  let d3 = (h0 * t.r3) + (h1 * t.r2) + (h2 * t.r1) + (h3 * t.r0) + (h4 * t.s4) in
  let d4 = (h0 * t.r4) + (h1 * t.r3) + (h2 * t.r2) + (h3 * t.r1) + (h4 * t.r0) in
  (* Carry propagation. *)
  let d1 = d1 + (d0 lsr 26) in
  let d2 = d2 + (d1 lsr 26) in
  let d3 = d3 + (d2 lsr 26) in
  let d4 = d4 + (d3 lsr 26) in
  let h0 = (d0 land mask26) + (5 * (d4 lsr 26)) in
  t.h0 <- h0 land mask26;
  t.h1 <- (d1 land mask26) + (h0 lsr 26);
  t.h2 <- d2 land mask26;
  t.h3 <- d3 land mask26;
  t.h4 <- d4 land mask26

let feed t src ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length src - len then
    invalid_arg "Poly1305.feed: range out of bounds";
  let pos = ref pos and stop = pos + len in
  if t.fill > 0 then begin
    let take = min len (16 - t.fill) in
    Bytes.blit src !pos t.buf t.fill take;
    t.fill <- t.fill + take;
    pos := !pos + take;
    if t.fill = 16 then begin
      block t t.buf 0 ~hibit:(1 lsl 24);
      t.fill <- 0
    end
  end;
  while stop - !pos >= 16 do
    block t src !pos ~hibit:(1 lsl 24);
    pos := !pos + 16
  done;
  if !pos < stop then begin
    Bytes.blit src !pos t.buf t.fill (stop - !pos);
    t.fill <- t.fill + (stop - !pos)
  end

let finish t out ~off =
  if t.fill > 0 then begin
    (* The final partial block carries its own 0x01 pad byte. *)
    Bytes.set t.buf t.fill '\001';
    Bytes.fill t.buf (t.fill + 1) (15 - t.fill) '\000';
    block t t.buf 0 ~hibit:0;
    t.fill <- 0
  end;
  (* Full carry, then conditional subtraction of p = 2^130 - 5. *)
  let h1 = t.h1 + (t.h0 lsr 26) in
  let h2 = t.h2 + (h1 lsr 26) in
  let h3 = t.h3 + (h2 lsr 26) in
  let h4 = t.h4 + (h3 lsr 26) in
  let h0 = (t.h0 land mask26) + (5 * (h4 lsr 26)) in
  let h1 = (h1 land mask26) + (h0 lsr 26) in
  let h0 = h0 land mask26 and h2 = h2 land mask26 and h3 = h3 land mask26 and h4 = h4 land mask26 in
  let g0 = h0 + 5 in
  let g1 = h1 + (g0 lsr 26) in
  let g2 = h2 + (g1 lsr 26) in
  let g3 = h3 + (g2 lsr 26) in
  let g4 = h4 + (g3 lsr 26) in
  (* If h + 5 overflowed 2^130, g = h - p: select it without branching. *)
  let m = -(g4 lsr 26) in
  let h0 = sel m h0 g0 and h1 = sel m h1 g1 and h2 = sel m h2 g2 and h3 = sel m h3 g3 and h4 = sel m h4 g4 in
  (* Serialise to 128 bits and add s with 32-bit carries. *)
  let f0 = ((h0 lor (h1 lsl 26)) land mask32) + t.pad0 in
  let f1 = (((h1 lsr 6) lor (h2 lsl 20)) land mask32) + t.pad1 + (f0 lsr 32) in
  let f2 = (((h2 lsr 12) lor (h3 lsl 14)) land mask32) + t.pad2 + (f1 lsr 32) in
  let f3 = (((h3 lsr 18) lor (h4 lsl 8)) land mask32) + t.pad3 + (f2 lsr 32) in
  Bytes.set_int64_le out off Int64.(logor (of_int (f0 land mask32)) (shift_left (of_int f1) 32));
  Bytes.set_int64_le out (off + 8) Int64.(logor (of_int (f2 land mask32)) (shift_left (of_int f3) 32))
