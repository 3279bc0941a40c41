(* ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).

   The L5 record layer's only cipher. A record is sealed into one buffer
   (ciphertext, then the tag written in place) and opened straight from
   its range of the caller's bytes into one plaintext buffer. Opening
   verifies the tag with a branch-free comparison before any plaintext is
   produced. *)

let tag_len = 16
let key_len = 32
let nonce_len = 12

let zeros = Bytes.make 32 '\000'

let check ~key ~nonce =
  if Bytes.length key <> key_len then invalid_arg "Aead: bad key length";
  if Bytes.length nonce <> nonce_len then invalid_arg "Aead: bad nonce length"

let pad16 p n = Poly1305.feed p zeros ~pos:0 ~len:((16 - (n land 15)) land 15)

(* The tag over [aad] and the [len] ciphertext bytes of [c] at [off]. *)
let compute_tag ~key ~nonce ~aad c ~off ~len =
  let otk = Bytes.make 32 '\000' in
  Chacha20.xor_into ~counter:0l ~key ~nonce otk ~src_off:0 otk ~dst_off:0 ~len:32;
  let p = Poly1305.init ~key:otk in
  Poly1305.feed_bytes p aad;
  pad16 p (Bytes.length aad);
  Poly1305.feed p c ~pos:off ~len;
  pad16 p len;
  let lens = Bytes.create 16 in
  Bytes.set_int64_le lens 0 (Int64.of_int (Bytes.length aad));
  Bytes.set_int64_le lens 8 (Int64.of_int len);
  Poly1305.feed_bytes p lens;
  Poly1305.finish p

let seal_into ~key ~nonce ~aad plaintext dst ~off =
  check ~key ~nonce;
  let n = Bytes.length plaintext in
  if off < 0 || off > Bytes.length dst - n - tag_len then
    invalid_arg "Aead.seal_into: range out of bounds";
  Chacha20.xor_into ~key ~nonce plaintext ~src_off:0 dst ~dst_off:off ~len:n;
  Bytes.blit (compute_tag ~key ~nonce ~aad dst ~off ~len:n) 0 dst (off + n) tag_len

let seal ~key ~nonce ~aad plaintext =
  let out = Bytes.create (Bytes.length plaintext + tag_len) in
  seal_into ~key ~nonce ~aad plaintext out ~off:0;
  out

let open_ ?(off = 0) ?len ~key ~nonce ~aad sealed =
  check ~key ~nonce;
  let len = match len with Some l -> l | None -> Bytes.length sealed - off in
  if off < 0 || len < 0 || off > Bytes.length sealed - len then
    invalid_arg "Aead.open_: range out of bounds";
  if len < tag_len then None
  else begin
    let n = len - tag_len in
    let tag = Bytes.sub sealed (off + n) tag_len in
    if Ct.equal (compute_tag ~key ~nonce ~aad sealed ~off ~len:n) tag then begin
      let plaintext = Bytes.create n in
      Chacha20.xor_into ~key ~nonce sealed ~src_off:off plaintext ~dst_off:0 ~len:n;
      Some plaintext
    end
    else None
  end
