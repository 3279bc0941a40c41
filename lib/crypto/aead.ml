(* ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).

   The L5 record layer's only cipher. A record is sealed into one buffer
   (ciphertext, then the tag written in place) and opened straight from
   its range of the caller's bytes into one plaintext buffer. Each record
   derives one keystream state: its block 0 keys Poly1305, and the same
   state goes on from counter 1 for the data. Opening verifies the tag in
   place with a branch-free comparison before any plaintext is produced. *)

let tag_len = 16
let key_len = 32
let nonce_len = 12

let zeros = Bytes.make 16 '\000'

let pad16 p n = Poly1305.feed p zeros ~pos:0 ~len:((16 - (n land 15)) land 15)

(* The tag over [aad] and the [len] ciphertext bytes of [c] at [off],
   written to [out] at [out_off]. The lengths block is staged in [ks], the
   record's keystream block, which the cipher only ever overwrites. *)
let mac p ~aad c ~off ~len ks out ~out_off =
  Poly1305.feed p aad ~pos:0 ~len:(Bytes.length aad);
  pad16 p (Bytes.length aad);
  Poly1305.feed p c ~pos:off ~len;
  pad16 p len;
  Bytes.set_int64_le ks 0 (Int64.of_int (Bytes.length aad));
  Bytes.set_int64_le ks 8 (Int64.of_int len);
  Poly1305.feed p ks ~pos:0 ~len:16;
  Poly1305.finish p out ~off:out_off

let seal_into ~key ~nonce ~aad plaintext dst ~off =
  let c = Chacha20.init_state ~key ~nonce ~counter:0l in
  let n = Bytes.length plaintext in
  if off < 0 || off > Bytes.length dst - n - tag_len then
    invalid_arg "Aead.seal_into: range out of bounds";
  let ks = Chacha20.next_block c in
  let p = Poly1305.init ks ~off:0 in
  Chacha20.xor c plaintext ~src_off:0 dst ~dst_off:off ~len:n;
  mac p ~aad dst ~off ~len:n ks dst ~out_off:(off + n)

let seal ~key ~nonce ~aad plaintext =
  let out = Bytes.create (Bytes.length plaintext + tag_len) in
  seal_into ~key ~nonce ~aad plaintext out ~off:0;
  out

let open_ ?(off = 0) ?len ~key ~nonce ~aad sealed =
  let c = Chacha20.init_state ~key ~nonce ~counter:0l in
  let len = match len with Some l -> l | None -> Bytes.length sealed - off in
  if off < 0 || len < 0 || off > Bytes.length sealed - len then
    invalid_arg "Aead.open_: range out of bounds";
  if len < tag_len then None
  else begin
    let n = len - tag_len in
    let ks = Chacha20.next_block c in
    mac (Poly1305.init ks ~off:0) ~aad sealed ~off ~len:n ks ks ~out_off:0;
    if Ct.equal_at ks 0 sealed (off + n) ~len:tag_len then begin
      let plaintext = Bytes.create n in
      Chacha20.xor c sealed ~src_off:off plaintext ~dst_off:0 ~len:n;
      Some plaintext
    end
    else None
  end
