(** ChaCha20 stream cipher (RFC 8439). *)

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
(** [xor_into ~key ~nonce src ~src_off dst ~dst_off ~len] writes [len]
    bytes of [src] from [src_off], XORed with the keystream starting at
    [counter] (default 1), to [dst] from [dst_off]. The block counter wraps
    at 2^32. The two ranges may coincide (in-place) but must not otherwise
    overlap. Raises [Invalid_argument] on a bad key, nonce or range. *)
