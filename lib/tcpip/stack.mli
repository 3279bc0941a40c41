(** IP stack facade: Ethernet/IPv4 demux over a polling {!Netif.t}, UDP
    sockets, and a {!Tcp.t} instance. Neighbour resolution is a static
    table (zero-negotiation principle). *)

open Cio_util
open Cio_frame

type udp_socket

type counters = {
  mutable frames_in : int;
  mutable frames_out : int;
  mutable dropped : int;
  mutable last_drop_reason : string;
}

type t

val create :
  ?ttl:int ->
  ?model:Cost.model ->
  ?meter:Cost.meter ->
  ?tx_burst:(bytes array -> int) ->
  ?recycle:(bytes -> unit) ->
  ?tx_queue_limit:int ->
  ?retry_budget:Cio_overload.Retry_budget.t ->
  netif:Netif.t ->
  ip:Addr.ipv4 ->
  neighbors:(Addr.ipv4 * Addr.mac) list ->
  now:(unit -> int64) ->
  rng:Rng.t ->
  unit ->
  t
(** [tx_burst] enables TX coalescing: outgoing frames queue and flush as
    bursts at the end of each {!poll} (the function returns how many of
    the batch were accepted; the tail is retried next flush). [recycle]
    returns drained RX frame buffers to the driver's pool after parsing.
    Omitting both yields the classic frame-at-a-time stack.
    [tx_queue_limit] bounds the coalescing queue: a full queue sheds new
    frames (counted under [dropped])
    instead of growing without limit while the ring is full.
    [retry_budget] makes TCP retransmits (RTO and fast) spend from the
    shared overload-plane budget. *)

val tcp : t -> Tcp.t
val ip : t -> Addr.ipv4
val counters : t -> counters
val meter : t -> Cost.meter

val tx_backlog : t -> int
(** Frames waiting in the TX coalescing queue. *)

val tx_pressure : t -> Cio_overload.Pressure.level
(** Queue occupancy vs [tx_queue_limit]; [Nominal] when unbounded. *)

val send_udp : t -> src_port:int -> dst:Addr.ipv4 -> dst_port:int -> bytes -> unit

val udp_bind : t -> port:int -> udp_socket
val udp_recv : udp_socket -> (Addr.ipv4 * int * bytes) option
val udp_port : udp_socket -> int

val handle_frame : t -> bytes -> unit
(** Inject one raw Ethernet frame (normally called via {!poll}). *)

val poll : ?budget:int -> t -> unit
(** Drain up to [budget] received frames, run TCP timers, then flush
    coalesced TX (when [tx_burst] was given). *)

val flush_tx : t -> unit
(** Push any coalesced pending TX frames out as bursts now. No-op
    without [tx_burst]. *)
