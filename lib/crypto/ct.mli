(** Branch-free byte comparison for MAC/tag verification. *)

val equal : bytes -> bytes -> bool

val equal_at : bytes -> int -> bytes -> int -> len:int -> bool
(** [equal_at a a_off b b_off ~len]: the [len] bytes of [a] at [a_off]
    equal those of [b] at [b_off]. Raises [Invalid_argument] if a range
    is out of bounds. *)
