(* Key schedule for the L5 channel (TLS-1.3-shaped, PSK-based).

   The pre-shared key stands in for attestation-provisioned secrets: in a
   real CVM deployment the tenant releases the PSK to the TEE only after
   remote attestation, which is exactly how confidential workloads receive
   secrets today (DESIGN.md §1). All derivation is HKDF-SHA256 with
   domain-separated labels. *)

open Cio_crypto

type direction_keys = { key : bytes; iv : bytes }

type t = {
  handshake_secret : bytes;
  client : direction_keys;
  server : direction_keys;
  client_finished_key : bytes;
  server_finished_key : bytes;
  mutable generation : int;
}

let derive_direction ~prk ~label =
  {
    key = Hkdf.expand_label ~prk ~label:(label ^ " key") ~context:Bytes.empty ~len:Aead.key_len;
    iv = Hkdf.expand_label ~prk ~label:(label ^ " iv") ~context:Bytes.empty ~len:Aead.nonce_len;
  }

let derive ~psk ~client_random ~server_random =
  let early = Hkdf.extract ~ikm:psk () in
  let context = Bytes.cat client_random server_random in
  let handshake_secret = Hkdf.expand_label ~prk:early ~label:"hs" ~context ~len:32 in
  {
    handshake_secret;
    client = derive_direction ~prk:handshake_secret ~label:"c ap";
    server = derive_direction ~prk:handshake_secret ~label:"s ap";
    client_finished_key =
      Hkdf.expand_label ~prk:handshake_secret ~label:"c fin" ~context:Bytes.empty ~len:32;
    server_finished_key =
      Hkdf.expand_label ~prk:handshake_secret ~label:"s fin" ~context:Bytes.empty ~len:32;
    generation = 0;
  }

(* Forward-secret-style ratchet for KeyUpdate: the new generation's
   secret is derived from the old one, and the old one is unrecoverable
   from the new. *)
let rekey t =
  let next = Hkdf.expand_label ~prk:t.handshake_secret ~label:"upd" ~context:Bytes.empty ~len:32 in
  {
    handshake_secret = next;
    client = derive_direction ~prk:next ~label:"c ap";
    server = derive_direction ~prk:next ~label:"s ap";
    client_finished_key = t.client_finished_key;
    server_finished_key = t.server_finished_key;
    generation = t.generation + 1;
  }

(* Per-record nonce: IV xor big-endian sequence number (RFC 8446 §5.3). *)
let nonce ~iv ~seq =
  let n = Bytes.copy iv and j = Bytes.length iv - 8 in
  Bytes.set_int64_be n j (Int64.logxor (Bytes.get_int64_be n j) seq);
  n

let finished_mac ~finished_key ~transcript = Hmac.digest_bytes ~key:finished_key transcript
