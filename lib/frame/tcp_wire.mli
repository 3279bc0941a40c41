(** TCP segment codec (RFC 9293 wire format; MSS is the only option). *)

type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool }

val flags_none : flags
val pp_flags : Format.formatter -> flags -> unit

type t = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack : int32;
  flags : flags;
  window : int;
  mss : int option;
  payload : bytes;
}

(** Modular 32-bit sequence arithmetic. *)

val seq_lt : int32 -> int32 -> bool
val seq_leq : int32 -> int32 -> bool
val seq_add : int32 -> int -> int32
val seq_diff : int32 -> int32 -> int

val headroom : int
(** 34: the Ethernet and IPv4 headers in front of a transport segment in
    a frame. *)

val min_frame : int
(** 60: the shortest Ethernet frame; shorter ones are zero-padded. *)

val header_bytes : t -> int
(** 20, or 24 with the MSS option. *)

val build_frame :
  src_ip:Addr.ipv4 -> dst_ip:Addr.ipv4 -> t -> data:bytes -> off:int -> len:int -> bytes
(** A zeroed Ethernet frame buffer of [max 60 (headroom + segment)] bytes
    holding, at {!headroom}, the checksummed segment [t] whose payload is
    [data.[off .. off+len)] ([t.payload] is ignored). The segment is
    [header_bytes t + len] bytes long; the caller writes the IPv4 and
    Ethernet headers in front of it in place. *)

val build : src_ip:Addr.ipv4 -> dst_ip:Addr.ipv4 -> t -> bytes
(** The segment alone: {!build_frame} over [t.payload], cut out. *)

val parse_at :
  src_ip:Addr.ipv4 -> dst_ip:Addr.ipv4 -> bytes -> off:int -> len:int -> (t, string) result
(** Parse the segment occupying [len] bytes at [off]; only the payload is
    copied. Raises [Invalid_argument] if the range is not inside the
    buffer. *)

val parse : src_ip:Addr.ipv4 -> dst_ip:Addr.ipv4 -> bytes -> (t, string) result
val pp : Format.formatter -> t -> unit
