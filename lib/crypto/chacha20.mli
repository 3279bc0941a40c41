(** ChaCha20 stream cipher (RFC 8439). The entry points allocate no memory
    per block. *)

type t
(** A keystream state: key, nonce, the next block counter, and the last
    64-byte block. *)

val init_state : key:bytes -> nonce:bytes -> counter:int32 -> t
(** Raises [Invalid_argument] unless [key] is 32 bytes and [nonce] 12. *)

val next_block : t -> bytes
(** The keystream block at the state's counter, in bytes 0-63 of the
    returned buffer, which the state owns: the block stays there until the
    state's next use, and the caller may overwrite those 64 bytes. The
    counter then advances, wrapping at 2^32. *)

val xor : t -> bytes -> src_off:int -> bytes -> dst_off:int -> len:int -> unit
(** [xor t src ~src_off dst ~dst_off ~len] writes [len] bytes of [src]
    from [src_off], XORed with the keystream from [t]'s counter, to [dst]
    from [dst_off], and advances the counter past them. The two ranges may
    coincide (in-place) but must not otherwise overlap. Raises
    [Invalid_argument] on a bad range. *)

val xor_into :
  ?counter:int32 ->
  key:bytes ->
  nonce:bytes ->
  bytes ->
  src_off:int ->
  bytes ->
  dst_off:int ->
  len:int ->
  unit
(** {!xor} from a fresh state at [counter] (default 1). Raises
    [Invalid_argument] on a bad key, nonce or range. *)
