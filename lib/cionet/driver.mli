(** Guest-side cionet driver: builds the shared region (config page + two
    safe rings) and exposes the polling netif. *)

open Cio_util
open Cio_mem

type t

val create :
  ?model:Cost.model ->
  ?meter:Cost.meter ->
  ?host_meter:Cost.meter ->
  name:string ->
  Config.t ->
  t

val region : t -> Region.t
val tx_ring : t -> Ring.t
val rx_ring : t -> Ring.t
val host_meter : t -> Cost.meter
val guest_meter : t -> Cost.meter
val tx_frames : t -> int
val rx_frames : t -> int

val generation : t -> int
(** Device generation; bumped by {!hot_swap}. *)

val hot_swap : t -> unit
(** Replace the device instance wholesale (live migration by hot swap,
    §3.2): the zero-negotiation interface has no state to transfer. The
    old region is fully revoked from the host; in-flight frames are lost
    like a cable pull and the upper layers recover. The host must
    re-attach (see {!Host_model.reattach}). *)

val tx_occupancy : t -> int
(** TX-ring slots in flight (guest-private cursors; host-independent). *)

val tx_pressure : t -> Cio_overload.Pressure.level
(** TX-ring occupancy mapped to Nominal/Soft/Hard. *)

val transmit_burst : t -> bytes array -> int
(** Place up to a whole batch in one ring crossing with at most one
    doorbell (coalesced under [use_notifications]); returns how many
    frames went in. When the ring fills first, the tail is the caller's
    to hold and the TX ring counts the refusal in its [full_misses] (see
    {!tx_pressure} for the level). Short frames are padded via pool
    buffers when [pad_frames] is set — no per-frame allocation in steady
    state. *)

val transmit : t -> bytes -> bool
(** [transmit t f] is [transmit_burst t [| f |] = 1]. *)

val poll : t -> bytes option
(** Receive at most one frame. A malformed or empty head slot ends the
    call with [None] (a malformed slot is skipped and counted, so the next
    call moves on). In [Revoke] mode this is a revocation burst of one. *)

val poll_burst : ?max:int -> t -> bytes list
(** Drain up to [max] (default 64) RX frames in one crossing, FIFO. In
    [Revoke] mode the contiguous run is revoked under a single shootdown
    and re-shared before returning; every buffer is an owned snapshot. *)

val recycle : t -> bytes -> unit
(** Return a frame buffer handed out by {!poll}/{!poll_burst} to the
    driver's pool once the caller is done with it. *)

val pool : t -> Cio_mem.Bufpool.t
(** The driver's RX/staging buffer pool (stable across hot swaps). *)

val to_netif : t -> Cio_tcpip.Netif.t
