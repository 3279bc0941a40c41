(** ChaCha20-Poly1305 AEAD (RFC 8439 §2.8). Sealing and opening allocate
    no memory per block. *)

val tag_len : int
val key_len : int
val nonce_len : int

val seal : key:bytes -> nonce:bytes -> aad:bytes -> bytes -> bytes
(** Ciphertext with the tag appended, in one fresh buffer. *)

val seal_into : key:bytes -> nonce:bytes -> aad:bytes -> bytes -> bytes -> off:int -> unit
(** [seal_into ~key ~nonce ~aad plaintext dst ~off] writes what {!seal}
    returns to [dst] at [off]. Raises [Invalid_argument] if it does not
    fit. *)

val open_ : ?off:int -> ?len:int -> key:bytes -> nonce:bytes -> aad:bytes -> bytes -> bytes option
(** Opens the sealed record in [len] bytes of the buffer at [off] (default:
    all of it). [None] on authentication failure or a record shorter than
    the tag; no plaintext is released. *)
