(** IPv4 header codec (no options, no fragmentation). *)

type protocol = Tcp | Udp | Unknown of int

val protocol_code : protocol -> int
val protocol_of_code : int -> protocol
val pp_protocol : Format.formatter -> protocol -> unit

type t = {
  src : Addr.ipv4;
  dst : Addr.ipv4;
  protocol : protocol;
  ttl : int;
  payload : bytes;
}

type header = {
  src : Addr.ipv4;
  dst : Addr.ipv4;
  protocol : protocol;
  ttl : int;
  payload_off : int;
  payload_len : int;
}
(** A packet parsed in place: its payload is
    [payload_len] bytes at [payload_off] of the parsed buffer. *)

val header_len : int

val write_header :
  bytes -> off:int -> src:Addr.ipv4 -> dst:Addr.ipv4 -> protocol:protocol -> ttl:int ->
  payload_len:int -> unit
(** Write a 20-byte header with a correct checksum and DF set at [off],
    for [payload_len] bytes that follow it. Raises [Invalid_argument]
    when the packet would exceed 65535 bytes. *)

val build : t -> bytes
(** Serialise with a correct header checksum and DF set. *)

val parse_at : bytes -> off:int -> len:int -> (header, string) result
(** Parse the packet occupying [len] bytes at [off], without copying.
    Rejects bad versions, bad lengths, checksum mismatches and fragments.
    Trailing link-layer padding beyond the total length is tolerated.
    Raises [Invalid_argument] if the range is not inside the buffer. *)

val parse : bytes -> (t, string) result
(** {!parse_at} over the whole buffer plus a copy of the payload. *)

val pp : Format.formatter -> t -> unit
