(** Poly1305 one-time authenticator (RFC 8439 §2.5). *)

type t

val init : key:bytes -> t
(** [key] is the 32-byte one-time key (r || s). *)

val feed : t -> bytes -> pos:int -> len:int -> unit
val feed_bytes : t -> bytes -> unit

val finish : t -> bytes
(** 16-byte tag. The state must not be reused afterwards. *)
