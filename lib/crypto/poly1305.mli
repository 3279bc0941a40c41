(** Poly1305 one-time authenticator (RFC 8439 §2.5). *)

type t

val init : bytes -> off:int -> t
(** The 32-byte one-time key (r || s) is read from the buffer at [off]. *)

val feed : t -> bytes -> pos:int -> len:int -> unit

val finish : t -> bytes -> off:int -> unit
(** Writes the 16-byte tag to the buffer at [off]. The state must not be
    reused afterwards. *)
