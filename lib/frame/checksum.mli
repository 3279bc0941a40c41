(** RFC 1071 Internet checksum. *)

val ones_complement_sum : bytes -> pos:int -> len:int -> init:int -> int
(** Folded 16-bit one's-complement sum of the range, accumulated onto
    [init]. *)

val finish : int -> int
(** One's-complement of a folded sum. *)

val compute : bytes -> pos:int -> len:int -> int
(** Checksum of a range (with the checksum field zeroed by the caller). *)

val verify : bytes -> pos:int -> len:int -> bool
(** True iff the range (including its checksum field) sums to 0xFFFF. *)

val pseudo_sum : src:int32 -> dst:int32 -> proto:int -> length:int -> int
(** Unfolded sum of the 12-byte IPv4 pseudo-header for UDP/TCP checksums,
    computed from the fields; pass it as [init]. *)
