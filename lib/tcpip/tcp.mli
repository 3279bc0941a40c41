(** TCP (RFC 9293 subset): handshake, sliding-window data transfer,
    reassembly, retransmission with backoff, fast retransmit, slow start /
    congestion avoidance, graceful close, RST handling.

    Polling-driven: the owner feeds parsed segments via {!input} and calls
    {!tick} from its poll loop; there are no callbacks or notifications,
    matching the paper's no-notification principle. *)

open Cio_util
open Cio_frame

type state =
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait
  | Closed

val state_name : state -> string

type conn
type listener
type t

val create :
  ?default_mss:int ->
  ?base_rto_ns:int64 ->
  ?max_retries:int ->
  ?model:Cost.model ->
  ?meter:Cost.meter ->
  ?retry_budget:Cio_overload.Retry_budget.t ->
  local_ip:Addr.ipv4 ->
  send_segment:(dst:Addr.ipv4 -> bytes -> int -> unit) ->
  now:(unit -> int64) ->
  rng:Rng.t ->
  unit ->
  t
(** [send_segment ~dst frame len] receives a frame buffer built by
    {!Cio_frame.Tcp_wire.build_frame}: a [len]-byte segment at
    [Tcp_wire.headroom], for the caller to finish with IPv4 and Ethernet
    headers in place. *)

val meter : t -> Cost.meter
val segments_in : t -> int
val segments_out : t -> int

val retransmits : t -> int
(** Segments re-sent by either recovery path (fast retransmit or RTO). *)

val conn_state : conn -> state
val conn_error : conn -> string option

val conn_remote : conn -> Addr.ipv4 * int
(** Remote (ip, port) — what a reconnect after an I/O-stack restart needs
    to re-dial. *)

val connect : t -> ?src_port:int -> dst:Addr.ipv4 -> dst_port:int -> unit -> conn
val listen : t -> port:int -> ?backlog:int -> unit -> listener
val accept : listener -> conn option

val send : t -> conn -> bytes -> int
(** Queue application data; returns bytes accepted (0 unless the
    connection is open for sending). Call {!flush} to segment. *)

val send_buffer : t -> conn -> off:int -> Buffer.t -> int
(** {!send} taking the bytes of a buffer from [off] on; the buffer is
    left unchanged: the data is copied once, into the connection. *)

val flush : t -> conn -> unit

val recv : t -> conn -> max:int -> bytes
(** Up to [max] bytes of the in-order stream, copied out once. *)

val recv_available : conn -> int

val eof : conn -> bool
(** Peer FIN received and the reassembly buffer fully drained. *)

val close : t -> conn -> unit
val abort : t -> conn -> unit

val input : t -> src:Addr.ipv4 -> Tcp_wire.t -> unit
(** Process one inbound segment (already IP-demultiplexed). *)

val tick : t -> unit
(** Run retransmission / TIME-WAIT timers against the [now] clock, then
    forget every closed connection, including errored ones (the owner's
    [conn] handle keeps its state and error). *)
