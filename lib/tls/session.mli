(** L5 secure-channel session: PSK handshake, AEAD-protected records,
    strict ordering and replay rejection, key updates. All failures are
    fatal (fail-closed; no error-recovery surface). *)

open Cio_util

type role = Client | Server

type error =
  | Auth_failed
  | Bad_format of string
  | Bad_state of string
  | Peer_alert
  | Payload_too_large of int

val error_to_string : error -> string

type t

val create :
  ?model:Cost.model ->
  ?meter:Cost.meter ->
  role:role ->
  psk:bytes ->
  psk_id:string ->
  rng:Rng.t ->
  unit ->
  t

val is_established : t -> bool
val last_error : t -> error option
val generation : t -> int
(** Key generation (increments on rekey); -1 before key derivation. *)

val records_sent : t -> int
val records_received : t -> int
val meter : t -> Cost.meter

val initiate : t -> (bytes list, error) result
(** Client only: the opening flight (wire bytes). *)

type feed_result = {
  outputs : bytes list;
  app_data : bytes list;
  err : error option;
}

val feed : t -> bytes -> feed_result
(** Process stream bytes from the (untrusted) transport. *)

val send_data : t -> bytes -> (bytes, error) result
(** Seal one application payload into wire bytes. A payload over
    {!Wire.max_plaintext} bytes is refused with [Payload_too_large] before
    any sequence number is used or any cost is charged. *)

val initiate_rekey : t -> (bytes, error) result
(** Switch both directions to the next key generation. Both peers must be
    quiescent (no records in flight). *)

val alert : t -> bytes
(** A fatal alert record (plaintext). *)
