(** Ethernet II framing. *)

type ethertype = Ipv4 | Arp | Unknown of int

val ethertype_code : ethertype -> int
val ethertype_of_code : int -> ethertype
val pp_ethertype : Format.formatter -> ethertype -> unit

type t = { dst : Addr.mac; src : Addr.mac; ethertype : ethertype; payload : bytes }

type header = { dst : Addr.mac; src : Addr.mac; ethertype : ethertype }
(** A frame's header read in place; its payload is the rest of the
    frame from [header_len]. *)

val header_len : int
val min_payload : int
val max_payload : int

val build : t -> bytes
(** Serialise; payloads shorter than the Ethernet minimum are zero-padded,
    so receivers must rely on the inner layer's length field. *)

val write_header : bytes -> dst:Addr.mac -> src:Addr.mac -> ethertype:ethertype -> unit
(** Write the 14-byte header at the front of a frame buffer. {!build}
    and the stack's one-buffer frames both use it. *)

val parse_header : bytes -> (header, string) result
(** Read the header without copying the payload. *)

val parse : bytes -> (t, string) result
(** {!parse_header} plus a copy of the payload. *)

val pp : Format.formatter -> t -> unit
