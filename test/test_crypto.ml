(* Crypto tests: published RFC/FIPS vectors plus properties. *)

open Cio_util
open Cio_crypto

let hex = Helpers.hex

(* --- SHA-256 (FIPS 180-4 / RFC 6234 vectors) -------------------------- *)

let sha_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
  ]

let test_sha256_vectors () =
  List.iter
    (fun (msg, want) -> Alcotest.(check string) msg want (Sha256.hex_digest_string msg))
    sha_vectors

let test_sha256_million_a () =
  (* RFC 6234 test 3: one million 'a's, exercised through the streaming
     interface in uneven chunks. *)
  let t = Sha256.init () in
  let chunk = Bytes.make 997 'a' in
  let remaining = ref 1_000_000 in
  while !remaining > 0 do
    let n = min 997 !remaining in
    Sha256.feed t chunk ~pos:0 ~len:n;
    remaining := !remaining - n
  done;
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Hex.of_bytes (Sha256.finish t))

let test_sha256_streaming_equals_oneshot () =
  let msg = "the quick brown fox jumps over the lazy dog, repeatedly and at length" in
  let t = Sha256.init () in
  String.iter (fun c -> Sha256.feed_string t (String.make 1 c)) msg;
  Alcotest.(check string) "streaming == one-shot"
    (Hex.of_bytes (Sha256.digest_string msg))
    (Hex.of_bytes (Sha256.finish t))

(* --- HMAC-SHA256 (RFC 4231) ------------------------------------------ *)

let test_hmac_rfc4231_case1 () =
  let key = hex "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b" in
  let tag = Hmac.digest_bytes ~key (Bytes.of_string "Hi There") in
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" (Hex.of_bytes tag)

let test_hmac_rfc4231_case2 () =
  let tag = Hmac.digest_string ~key:"Jefe" "what do ya want for nothing?" in
  Alcotest.(check string) "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" (Hex.of_bytes tag)

let test_hmac_rfc4231_long_key () =
  (* Case 6: 131-byte key, forcing the key-hash path. *)
  let key = Bytes.make 131 '\xaa' in
  let tag =
    Hmac.digest_bytes ~key (Bytes.of_string "Test Using Larger Than Block-Size Key - Hash Key First")
  in
  Alcotest.(check string) "case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" (Hex.of_bytes tag)

(* --- HKDF (RFC 5869) --------------------------------------------------- *)

let test_hkdf_rfc5869_case1 () =
  let ikm = hex "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b" in
  let salt = hex "000102030405060708090a0b0c" in
  let info = hex "f0f1f2f3f4f5f6f7f8f9" in
  let prk = Hkdf.extract ~salt ~ikm () in
  Alcotest.(check string) "prk"
    "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5" (Hex.of_bytes prk);
  let okm = Hkdf.expand ~prk ~info ~len:42 in
  Alcotest.(check string) "okm"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    (Hex.of_bytes okm)

let test_hkdf_rfc5869_case3_no_salt () =
  let ikm = hex "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b" in
  let okm = Hkdf.derive ~ikm ~info:Bytes.empty ~len:42 () in
  Alcotest.(check string) "okm without salt"
    "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
    (Hex.of_bytes okm)

let test_hkdf_expand_limit () =
  let prk = Bytes.make 32 'k' in
  Alcotest.check_raises "over limit" (Invalid_argument "Hkdf.expand: invalid length") (fun () ->
      ignore (Hkdf.expand ~prk ~info:Bytes.empty ~len:(255 * 32 + 1)))

let test_hkdf_expand_label_distinct () =
  let prk = Bytes.make 32 'k' in
  let a = Hkdf.expand_label ~prk ~label:"one" ~context:Bytes.empty ~len:32 in
  let b = Hkdf.expand_label ~prk ~label:"two" ~context:Bytes.empty ~len:32 in
  Alcotest.(check bool) "labels separate domains" false (Bytes.equal a b)

(* --- ChaCha20 (RFC 8439 §2.3.2 / §2.4.2) ----------------------------- *)

(* [data] XORed with the keystream from [counter] into a fresh buffer: the
   one-shot cipher, built on [Chacha20.xor_into]. *)
let chacha20 ?counter ~key ~nonce data =
  let n = Bytes.length data in
  let out = Bytes.create n in
  Chacha20.xor_into ?counter ~key ~nonce data ~src_off:0 out ~dst_off:0 ~len:n;
  out

let test_chacha20_block_vector () =
  let key = hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = hex "000000090000004a00000000" in
  let block = chacha20 ~counter:1l ~key ~nonce (Bytes.make 64 '\000') in
  Alcotest.(check string) "first 16 bytes" "10f1e7e4d13b5915500fdd1fa32071c4"
    (Hex.of_bytes (Bytes.sub block 0 16))

let sunscreen =
  "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it."

let test_chacha20_encrypt_vector () =
  let key = hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = hex "000000000000004a00000000" in
  let ct = chacha20 ~counter:1l ~key ~nonce (Bytes.of_string sunscreen) in
  Alcotest.(check string) "ciphertext head" "6e2e359a2568f98041ba0728dd0d6981"
    (Hex.of_bytes (Bytes.sub ct 0 16));
  Alcotest.(check int) "ciphertext length" 114 (Bytes.length ct);
  (* Decrypting with the same parameters must restore the plaintext. *)
  Helpers.check_bytes "decrypts back" (Bytes.of_string sunscreen)
    (chacha20 ~counter:1l ~key ~nonce ct)

let test_chacha20_involution () =
  let key = Bytes.make 32 'K' and nonce = Bytes.make 12 'N' in
  let pt = Bytes.of_string "round trip data of odd length.." in
  let back = chacha20 ~key ~nonce (chacha20 ~key ~nonce pt) in
  Helpers.check_bytes "involution" pt back

let test_chacha20_key_validation () =
  Alcotest.check_raises "short key" (Invalid_argument "Chacha20: key must be 32 bytes") (fun () ->
      ignore (chacha20 ~key:(Bytes.make 16 'k') ~nonce:(Bytes.make 12 'n') Bytes.empty))

(* --- Poly1305 (RFC 8439 §2.5.2) -------------------------------------- *)

(* [b] fed whole, and the tag [t] finishes into a fresh buffer. *)
let poly1305_feed t b = Poly1305.feed t b ~pos:0 ~len:(Bytes.length b)

let poly1305_tag t =
  let tag = Bytes.create 16 in
  Poly1305.finish t tag ~off:0;
  tag

(* The tag of [msg] fed in one piece. *)
let poly1305_mac ~key msg =
  let t = Poly1305.init key ~off:0 in
  poly1305_feed t msg;
  poly1305_tag t

let test_poly1305_vector () =
  let key = hex "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b" in
  let tag = poly1305_mac ~key (Bytes.of_string "Cryptographic Forum Research Group") in
  Alcotest.(check string) "tag" "a8061dc1305136c6c22b8baf0c0127a9" (Hex.of_bytes tag)

let test_poly1305_streaming () =
  let key = hex "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b" in
  let t = Poly1305.init key ~off:0 in
  poly1305_feed t (Bytes.of_string "Cryptographic Forum ");
  poly1305_feed t (Bytes.of_string "Research Group");
  Alcotest.(check string) "streaming tag" "a8061dc1305136c6c22b8baf0c0127a9"
    (Hex.of_bytes (poly1305_tag t))

(* RFC 8439 appendix A.3 vectors #5-#11: carries across limbs, the sum of
   s wrapping mod 2^128, and a polynomial result at or just below
   p = 2^130 - 5, the only inputs that take the final subtraction of p. *)
let poly1305_edge_vectors =
  let z = String.make 32 '0' in
  [
    ("02" ^ String.make 30 '0' ^ z, String.make 32 'f', "03" ^ String.make 30 '0');
    ("02" ^ String.make 30 '0' ^ String.make 32 'f', "02" ^ String.make 30 '0', "03" ^ String.make 30 '0');
    ( "01" ^ String.make 30 '0' ^ z,
      String.make 32 'f' ^ "f0" ^ String.make 30 'f' ^ "11" ^ String.make 30 '0',
      "05" ^ String.make 30 '0' );
    ( "01" ^ String.make 30 '0' ^ z,
      String.make 32 'f' ^ "fb" ^ String.concat "" (List.init 15 (fun _ -> "fe"))
      ^ String.concat "" (List.init 16 (fun _ -> "01")),
      z );
    ("02" ^ String.make 30 '0' ^ z, "fd" ^ String.make 30 'f', "fa" ^ String.make 30 'f');
    ( "0100000000000000" ^ "0400000000000000" ^ z,
      "e33594d7505e43b9" ^ "0000000000000000" ^ "3394d7505e4379cd" ^ "0100000000000000" ^ z
      ^ "01" ^ String.make 30 '0',
      "1400000000000000" ^ "5500000000000000" );
    ( "0100000000000000" ^ "0400000000000000" ^ z,
      "e33594d7505e43b9" ^ "0000000000000000" ^ "3394d7505e4379cd" ^ "0100000000000000" ^ z,
      "13" ^ String.make 30 '0' );
  ]

let test_poly1305_edge_vectors () =
  List.iteri
    (fun i (key, msg, tag) ->
      Alcotest.(check string) (Printf.sprintf "vector #%d" (i + 5)) tag
        (Hex.of_bytes (poly1305_mac ~key:(hex key) (hex msg))))
    poly1305_edge_vectors

(* --- AEAD (RFC 8439 §2.8.2) ------------------------------------------ *)

let aead_key = hex "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
let aead_nonce = hex "070000004041424344454647"
let aead_aad = hex "50515253c0c1c2c3c4c5c6c7"

(* [seal] output split into ciphertext and tag. *)
let seal_split ?(aad = aead_aad) ?(nonce = aead_nonce) pt =
  let s = Aead.seal ~key:aead_key ~nonce ~aad pt in
  let n = Bytes.length s - Aead.tag_len in
  (Bytes.sub s 0 n, Bytes.sub s n Aead.tag_len)

let open_parts ?(aad = aead_aad) ?(nonce = aead_nonce) ct tag =
  Aead.open_ ~key:aead_key ~nonce ~aad (Bytes.cat ct tag)

let test_aead_vector () =
  let ct, tag = seal_split (Bytes.of_string sunscreen) in
  Alcotest.(check string) "tag" "1ae10b594f09e26a7e902ecbd0600691" (Hex.of_bytes tag);
  Alcotest.(check string) "ct head" "d31a8d34648e60db7b86afbc53ef7ec2"
    (Hex.of_bytes (Bytes.sub ct 0 16))

let test_aead_roundtrip () =
  let pt = Bytes.of_string "attack at dawn" in
  let ct, tag = seal_split pt in
  match open_parts ct tag with
  | Some back -> Helpers.check_bytes "roundtrip" pt back
  | None -> Alcotest.fail "decrypt failed"

let test_aead_rejects_tampered_ciphertext () =
  let ct, tag = seal_split (Bytes.of_string "data") in
  Bytes.set ct 0 (Char.chr (Char.code (Bytes.get ct 0) lxor 1));
  Alcotest.(check bool) "rejected" true (open_parts ct tag = None)

let test_aead_rejects_tampered_aad () =
  let ct, tag = seal_split (Bytes.of_string "data") in
  let bad_aad = Bytes.copy aead_aad in
  Bytes.set bad_aad 0 'X';
  Alcotest.(check bool) "rejected" true (open_parts ~aad:bad_aad ct tag = None)

let test_aead_rejects_wrong_nonce () =
  let ct, tag = seal_split (Bytes.of_string "data") in
  let other = Bytes.copy aead_nonce in
  Bytes.set other 0 '\xFF';
  Alcotest.(check bool) "rejected" true (open_parts ~nonce:other ct tag = None)

let test_aead_seal_open () =
  let pt = Bytes.of_string "sealed message" in
  let sealed = Aead.seal ~key:aead_key ~nonce:aead_nonce ~aad:Bytes.empty pt in
  Alcotest.(check int) "sealed length" (Bytes.length pt + Aead.tag_len) (Bytes.length sealed);
  match Aead.open_ ~key:aead_key ~nonce:aead_nonce ~aad:Bytes.empty sealed with
  | Some back -> Helpers.check_bytes "open" pt back
  | None -> Alcotest.fail "open failed"

let test_aead_open_too_short () =
  Alcotest.(check bool) "short input rejected" true
    (Aead.open_ ~key:aead_key ~nonce:aead_nonce ~aad:Bytes.empty (Bytes.make 8 'x') = None)

let test_ct_equal () =
  Alcotest.(check bool) "equal" true (Ct.equal (Bytes.of_string "same") (Bytes.of_string "same"));
  Alcotest.(check bool) "different" false (Ct.equal (Bytes.of_string "same") (Bytes.of_string "sam_"));
  Alcotest.(check bool) "length mismatch" false (Ct.equal (Bytes.of_string "a") (Bytes.of_string "ab"))

let bytes_gen = QCheck.Gen.(map Bytes.of_string (string_size (int_range 0 300)))
let bytes_arb = QCheck.make ~print:(fun b -> Hex.of_bytes b) bytes_gen

let prop_aead_roundtrip =
  QCheck.Test.make ~name:"AEAD decrypt . encrypt = id" ~count:200 bytes_arb (fun pt ->
      match Aead.open_ ~key:aead_key ~nonce:aead_nonce ~aad:aead_aad
              (Aead.seal ~key:aead_key ~nonce:aead_nonce ~aad:aead_aad pt) with
      | Some back -> Bytes.equal back pt
      | None -> false)

let prop_aead_tamper_detected =
  QCheck.Test.make ~name:"AEAD rejects any single-bit flip" ~count:200
    QCheck.(pair bytes_arb small_nat)
    (fun (pt, pos) ->
      QCheck.assume (Bytes.length pt > 0);
      let sealed = Aead.seal ~key:aead_key ~nonce:aead_nonce ~aad:Bytes.empty pt in
      let i = pos mod Bytes.length sealed in
      Bytes.set sealed i (Char.chr (Char.code (Bytes.get sealed i) lxor 0x10));
      Aead.open_ ~key:aead_key ~nonce:aead_nonce ~aad:Bytes.empty sealed = None)

(* Golden digest: SHA-256 over the concatenated [Aead.seal] outputs of a
   seeded sweep (plaintexts of 0-1100 B, crossing every 16- and 64-byte
   boundary, each with a random key, nonce and aad of 0-47 B), followed by
   a ChaCha20 encryption of 3 blocks from counter 0xFFFFFFFF, so the block
   counter wraps to 0. The constant was computed with the earlier Int32-
   array ChaCha20 and copy-per-block Poly1305, before the kernels moved to
   native ints: the rewrite must be byte-for-byte the same cipher. *)
let golden_sweep_digest =
  "46e51877dcd9b8cdcf50c24a5972db7c8958353df5be7016bb6a39c2a11a4a35"

let test_aead_golden_sweep () =
  let rng = Rng.create 0x5EA1L in
  let acc = Buffer.create (1 lsl 20) in
  for len = 0 to 1100 do
    let key = Rng.bytes rng 32 in
    let nonce = Rng.bytes rng 12 in
    let aad = Rng.bytes rng (Rng.int rng 48) in
    let pt = Rng.bytes rng len in
    Buffer.add_bytes acc (Aead.seal ~key ~nonce ~aad pt)
  done;
  let key = Rng.bytes rng 32 in
  let nonce = Rng.bytes rng 12 in
  let pt = Rng.bytes rng 192 in
  Buffer.add_bytes acc (chacha20 ~counter:0xFFFFFFFFl ~key ~nonce pt);
  Alcotest.(check string) "sweep digest" golden_sweep_digest
    (Sha256.hex_digest_string (Buffer.contents acc))

let prop_poly1305_split_feeds =
  QCheck.Test.make ~name:"poly1305 split feeds at an offset equal one feed" ~count:300
    QCheck.(triple bytes_arb (int_range 0 40) (pair small_nat small_nat))
    (fun (msg, pos, (a, b)) ->
      let n = Bytes.length msg in
      let buf = Bytes.make (pos + n + 7) '\xEE' in
      Bytes.blit msg 0 buf pos n;
      let i = if n = 0 then 0 else a mod (n + 1) in
      let j = i + (if n - i = 0 then 0 else b mod (n - i + 1)) in
      let key = Sha256.digest_bytes (Bytes.of_string "poly1305 split key") in
      let t = Poly1305.init key ~off:0 in
      Poly1305.feed t buf ~pos ~len:i;
      Poly1305.feed t buf ~pos:(pos + i) ~len:(j - i);
      Poly1305.feed t buf ~pos:(pos + j) ~len:(n - j);
      Bytes.equal (poly1305_tag t) (poly1305_mac ~key msg))

let prop_chacha20_xor_into_offsets =
  QCheck.Test.make ~name:"chacha20 xor_into at offsets equals offset 0" ~count:300
    QCheck.(triple bytes_arb (int_range 0 70) (int_range 0 70))
    (fun (pt, src_off, dst_off) ->
      let key = Bytes.make 32 'K' and nonce = Bytes.make 12 'N' in
      let n = Bytes.length pt in
      let src = Bytes.make (src_off + n + 3) '\x55' in
      Bytes.blit pt 0 src src_off n;
      let dst = Bytes.make (dst_off + n + 5) '\xAA' in
      Chacha20.xor_into ~counter:7l ~key ~nonce src ~src_off dst ~dst_off ~len:n;
      Bytes.equal (Bytes.sub dst dst_off n) (chacha20 ~counter:7l ~key ~nonce pt)
      && Bytes.for_all (fun c -> c = '\xAA') (Bytes.sub dst 0 dst_off)
      && Bytes.for_all (fun c -> c = '\xAA') (Bytes.sub dst (dst_off + n) 5))

(* --- ChaCha20 against the array-based block ---------------------------- *)

(* The block [Chacha20] computed before its state moved into local refs:
   the working state is an int array and every step masks to 32 bits. It
   stays here as an oracle for the block on unboxed nativeint words, which
   shares none of its arithmetic. *)
let oracle_mask32 = 0xFFFF_FFFF

let oracle_rotl x n = ((x lsl n) lor (x lsr (32 - n))) land oracle_mask32

let oracle_quarter_round x a b c d =
  let va = (x.(a) + x.(b)) land oracle_mask32 in
  let vd = oracle_rotl (x.(d) lxor va) 16 in
  let vc = (x.(c) + vd) land oracle_mask32 in
  let vb = oracle_rotl (x.(b) lxor vc) 12 in
  let va = (va + vb) land oracle_mask32 in
  let vd = oracle_rotl (vd lxor va) 8 in
  let vc = (vc + vd) land oracle_mask32 in
  x.(b) <- oracle_rotl (vb lxor vc) 7;
  x.(a) <- va;
  x.(c) <- vc;
  x.(d) <- vd

let oracle_next_block st ks =
  Array.blit st 0 ks 0 16;
  for _ = 1 to 10 do
    oracle_quarter_round ks 0 4 8 12;
    oracle_quarter_round ks 1 5 9 13;
    oracle_quarter_round ks 2 6 10 14;
    oracle_quarter_round ks 3 7 11 15;
    oracle_quarter_round ks 0 5 10 15;
    oracle_quarter_round ks 1 6 11 12;
    oracle_quarter_round ks 2 7 8 13;
    oracle_quarter_round ks 3 4 9 14
  done;
  for i = 0 to 15 do ks.(i) <- (ks.(i) + st.(i)) land oracle_mask32 done;
  st.(12) <- (st.(12) + 1) land oracle_mask32

(* [len] bytes of [src] XORed byte by byte with the oracle's keystream. *)
let oracle_xor ~counter ~key ~nonce src ~src_off ~len =
  let u32 b off = Int32.to_int (Bytes.get_int32_le b off) land oracle_mask32 in
  let st =
    Array.concat
      [ [| 0x61707865; 0x3320646e; 0x79622d32; 0x6b206574 |];
        Array.init 8 (fun i -> u32 key (4 * i));
        [| Int32.to_int counter land oracle_mask32 |];
        Array.init 3 (fun i -> u32 nonce (4 * i)) ]
  in
  let ks = Array.make 16 0 in
  let out = Bytes.create len in
  for i = 0 to len - 1 do
    if i land 63 = 0 then oracle_next_block st ks;
    let k = (ks.((i land 63) lsr 2) lsr (8 * (i land 3))) land 0xFF in
    Bytes.set out i (Char.chr (Char.code (Bytes.get src (src_off + i)) lxor k))
  done;
  out

(* Counters next to 0 and next to the 2^32 wrap, lengths up to one 16 KiB
   record, offsets that misalign the word XOR, and in-place runs. *)
let chacha20_case_gen =
  let open QCheck.Gen in
  let counter = map Int32.of_int (oneof [ int_range 0 3; int_range 0xFFFFFFF0 0xFFFFFFFF ]) in
  let len = oneof [ int_range 0 300; int_range 0 16384 ] in
  let bytes n = map Bytes.of_string (string_size (return n)) in
  map
    (fun ((key, nonce, counter), (len, src_off, dst_off, in_place), seed) ->
      (key, nonce, counter, len, src_off, dst_off, in_place, seed))
    (triple (triple (bytes 32) (bytes 12) counter)
       (quad len (int_range 0 70) (int_range 0 70) bool)
       int)

let prop_chacha20_matches_oracle =
  QCheck.Test.make ~name:"chacha20 xor_into equals the array-based block" ~count:200
    (QCheck.make
       ~print:(fun (key, nonce, counter, len, src_off, dst_off, in_place, _) ->
         Printf.sprintf "key=%s nonce=%s counter=%lx len=%d src_off=%d dst_off=%d in_place=%b"
           (Hex.of_bytes key) (Hex.of_bytes nonce) counter len src_off dst_off in_place)
       chacha20_case_gen)
    (fun (key, nonce, counter, len, src_off, dst_off, in_place, seed) ->
      let rng = Rng.create (Int64.of_int seed) in
      let src = Rng.bytes rng (src_off + len + 3) in
      let want = oracle_xor ~counter ~key ~nonce src ~src_off ~len in
      if in_place then begin
        Chacha20.xor_into ~counter ~key ~nonce src ~src_off src ~dst_off:src_off ~len;
        Bytes.equal (Bytes.sub src src_off len) want
      end
      else begin
        let dst = Bytes.make (dst_off + len + 5) '\xAA' in
        Chacha20.xor_into ~counter ~key ~nonce src ~src_off dst ~dst_off ~len;
        Bytes.equal (Bytes.sub dst dst_off len) want
        && Bytes.for_all (fun c -> c = '\xAA') (Bytes.sub dst 0 dst_off)
        && Bytes.for_all (fun c -> c = '\xAA') (Bytes.sub dst (dst_off + len) 5)
      end)

(* Minor words one in-place [xor_into] over [len] bytes allocates. *)
let xor_into_minor_words len =
  let key = Bytes.make 32 'K' and nonce = Bytes.make 12 'N' in
  let buf = Bytes.make len 'x' in
  let before = Gc.minor_words () in
  Chacha20.xor_into ~key ~nonce buf ~src_off:0 buf ~dst_off:0 ~len;
  int_of_float (Gc.minor_words () -. before)

(* A call allocates its 128-byte state and nothing per block: 64 B and
   16 KiB cost the same words. A working word that escaped, or a helper
   that boxed the nativeint passed to it, would add words for each of the
   256 blocks. *)
let test_chacha20_allocation_flat () =
  let small = xor_into_minor_words 64 and large = xor_into_minor_words 16384 in
  Alcotest.(check int) "16 KiB allocates what 64 B does" small large;
  if large > 18 then Alcotest.failf "xor_into allocated %d minor words (> 18)" large

(* Words [f ()] allocates, on the minor heap or straight on the major one
   (where a 16 KiB buffer goes). *)
let words_allocated f =
  let _, p0, j0 = Gc.counters () in
  let m0 = Gc.minor_words () in
  f ();
  let m1 = Gc.minor_words () in
  let _, p1, j1 = Gc.counters () in
  int_of_float (m1 -. m0 +. (j1 -. j0) -. (p1 -. p0))

(* [seal_into] a preallocated buffer and [open_] at 64 B and at 16 KiB:
   the words of one record's fixed state, the same at both lengths once
   [open_]'s plaintext (header and n / 8 + 1 words) is taken off. Measured
   43 for [seal_into] (the 128-byte ChaCha20 state and the Poly1305 state)
   and 45 for [open_] (its [Some]); 114 and 120 before one keystream
   state served the whole record. *)
let test_aead_allocation_flat () =
  let key = Bytes.make 32 'K' and nonce = Bytes.make 12 'N' and aad = Bytes.make 5 'A' in
  let measure n =
    let pt = Bytes.make n 'p' and sealed = Bytes.create (n + Aead.tag_len) in
    let seal = words_allocated (fun () -> Aead.seal_into ~key ~nonce ~aad pt sealed ~off:0) in
    let opened = words_allocated (fun () -> ignore (Sys.opaque_identity (Aead.open_ ~key ~nonce ~aad sealed))) in
    (seal, opened - ((n / 8) + 2))
  in
  let seal_small, open_small = measure 64 and seal_large, open_large = measure 16384 in
  Alcotest.(check int) "seal_into: 16 KiB allocates what 64 B does" seal_small seal_large;
  Alcotest.(check int) "open_: 16 KiB allocates what 64 B does" open_small open_large;
  if seal_large > 45 || open_large > 45 then
    Alcotest.failf "seal_into allocated %d words, open_ %d besides its plaintext (> 45)" seal_large open_large

let kib_record = Bytes.init 1024 (fun i -> Char.chr (i * 7 land 0xFF))
let kib_sealed = Aead.seal ~key:aead_key ~nonce:aead_nonce ~aad:aead_aad kib_record

let prop_aead_kib_bit_flip =
  QCheck.Test.make ~name:"AEAD rejects every bit flip of a 1 KiB record" ~count:500
    QCheck.(int_range 0 ((8 * (1024 + 16)) - 1))
    (fun bit ->
      let sealed = Bytes.copy kib_sealed in
      let i = bit / 8 in
      Bytes.set sealed i (Char.chr (Char.code (Bytes.get sealed i) lxor (1 lsl (bit land 7))));
      Aead.open_ ~key:aead_key ~nonce:aead_nonce ~aad:aead_aad sealed = None)

let prop_sha256_streaming_chunking_invariant =
  QCheck.Test.make ~name:"sha256 independent of chunk boundaries" ~count:100
    QCheck.(pair bytes_arb (int_range 1 64))
    (fun (msg, chunk) ->
      let t = Sha256.init () in
      let n = Bytes.length msg in
      let rec feed off =
        if off < n then begin
          let len = min chunk (n - off) in
          Sha256.feed t msg ~pos:off ~len;
          feed (off + len)
        end
      in
      feed 0;
      Bytes.equal (Sha256.finish t) (Sha256.digest_bytes msg))

let prop_hmac_key_sensitivity =
  QCheck.Test.make ~name:"hmac differs under different keys" ~count:100 bytes_arb (fun msg ->
      let a = Hmac.digest_bytes ~key:(Bytes.of_string "key-one") msg in
      let b = Hmac.digest_bytes ~key:(Bytes.of_string "key-two") msg in
      not (Bytes.equal a b))

let suite =
  [
    Alcotest.test_case "sha256: FIPS vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "sha256: million a (streamed)" `Slow test_sha256_million_a;
    Alcotest.test_case "sha256: streaming equals one-shot" `Quick test_sha256_streaming_equals_oneshot;
    Alcotest.test_case "hmac: RFC 4231 case 1" `Quick test_hmac_rfc4231_case1;
    Alcotest.test_case "hmac: RFC 4231 case 2" `Quick test_hmac_rfc4231_case2;
    Alcotest.test_case "hmac: RFC 4231 long key" `Quick test_hmac_rfc4231_long_key;
    Alcotest.test_case "hkdf: RFC 5869 case 1" `Quick test_hkdf_rfc5869_case1;
    Alcotest.test_case "hkdf: RFC 5869 case 3 (no salt)" `Quick test_hkdf_rfc5869_case3_no_salt;
    Alcotest.test_case "hkdf: expand length limit" `Quick test_hkdf_expand_limit;
    Alcotest.test_case "hkdf: label domain separation" `Quick test_hkdf_expand_label_distinct;
    Alcotest.test_case "chacha20: block vector" `Quick test_chacha20_block_vector;
    Alcotest.test_case "chacha20: encryption vector" `Quick test_chacha20_encrypt_vector;
    Alcotest.test_case "chacha20: involution" `Quick test_chacha20_involution;
    Alcotest.test_case "chacha20: key validation" `Quick test_chacha20_key_validation;
    Alcotest.test_case "poly1305: RFC vector" `Quick test_poly1305_vector;
    Alcotest.test_case "poly1305: streaming" `Quick test_poly1305_streaming;
    Alcotest.test_case "aead: RFC 8439 vector" `Quick test_aead_vector;
    Alcotest.test_case "aead: roundtrip" `Quick test_aead_roundtrip;
    Alcotest.test_case "aead: tampered ciphertext" `Quick test_aead_rejects_tampered_ciphertext;
    Alcotest.test_case "aead: tampered aad" `Quick test_aead_rejects_tampered_aad;
    Alcotest.test_case "aead: wrong nonce" `Quick test_aead_rejects_wrong_nonce;
    Alcotest.test_case "aead: seal/open" `Quick test_aead_seal_open;
    Alcotest.test_case "aead: short input" `Quick test_aead_open_too_short;
    Alcotest.test_case "ct: comparison" `Quick test_ct_equal;
    Helpers.qtest prop_aead_roundtrip;
    Helpers.qtest prop_aead_tamper_detected;
    Helpers.qtest prop_sha256_streaming_chunking_invariant;
    Helpers.qtest prop_hmac_key_sensitivity;
    Alcotest.test_case "poly1305: RFC 8439 A.3 edge vectors" `Quick test_poly1305_edge_vectors;
    Alcotest.test_case "aead: golden sweep digest" `Quick test_aead_golden_sweep;
    Helpers.qtest prop_aead_kib_bit_flip;
    Helpers.qtest prop_poly1305_split_feeds;
    Helpers.qtest prop_chacha20_xor_into_offsets;
    Helpers.qtest prop_chacha20_matches_oracle;
    Alcotest.test_case "chacha20: allocation flat in length" `Quick test_chacha20_allocation_flat;
    Alcotest.test_case "aead: seal/open allocation flat in length" `Quick test_aead_allocation_flat;
  ]
