(** The safe ring: §3.2's host↔TEE data path, safe by construction
    (stateless slots, single-fetch headers, mask-confined indices and
    offsets, clamped lengths, polling, zero negotiation).

    One ring carries one direction; the producer actor is fixed at
    creation. *)

open Cio_util
open Cio_mem

val header_bytes : int

type layout = {
  total : int;
  hdr_off : int;
  desc_off : int;
  desc_count : int;
  data_off : int;
  data_size : int;
  unit_size : int;
  units : int;
}

val layout : page_size:int -> slots:int -> Config.positioning -> layout
(** Compute the shared-memory footprint; raises [Invalid_argument] on
    non-power-of-two geometry. *)

type counters = {
  mutable produced : int;
  mutable consumed : int;
  mutable full_misses : int;
  mutable empty_polls : int;
  mutable len_clamped : int;
  mutable index_masked : int;
  mutable state_skipped : int;
}

type t

val create :
  region:Region.t ->
  base:int ->
  slots:int ->
  positioning:Config.positioning ->
  producer:Region.actor ->
  host_meter:Cost.meter ->
  t
(** [base] must be page-aligned. Guest-side work is charged to the
    region's meter, host-side work to [host_meter]. *)

val counters : t -> counters
val slots : t -> int
val region : t -> Region.t

val occupancy : t -> int
(** Slots currently in flight (produced, not yet consumed), computed
    from the private cursors — trusted, host-independent, and free. The
    root of the overload plane's backpressure signal. *)

val header_offset : t -> int -> int
(** Absolute region offset of a slot's header — exposed for the attack
    harness, which pokes shared memory as the host. *)

val capacity : t -> int
(** Maximum payload bytes per message. *)

val consumer : t -> Region.actor
val data_arena : t -> int * int
(** (offset, size) of the payload arena within the region. *)

val try_produce : t -> bytes -> bool
(** Producer side: place one message; [false] when the ring (or the
    payload pool) is full. *)

val try_produce_burst : t -> bytes array -> int
(** Place up to [Array.length frames] messages in one crossing, stopping
    at the first full slot; returns how many went in. Slots after the
    first pay the amortized [ring_burst_op] cost for header/word work.
    A burst of one is exactly {!try_produce} (same charges, same
    counters). *)

val try_consume : ?pool:Bufpool.t -> t -> bytes option
(** Consumer side, copy strategy: one early copy into private memory.
    With [pool], the destination buffer is recycled from the pool instead
    of freshly allocated. *)

val try_consume_burst : ?pool:Bufpool.t -> ?max:int -> t -> bytes list
(** Drain up to [max] (default 64) messages in one crossing, in FIFO
    order. Malformed slots inside the batch are skipped-and-counted
    without ending the batch; an EMPTY slot ends it. Header/word costs
    amortize after the first access. *)

val try_consume_revoke_burst : ?pool:Bufpool.t -> ?max:int -> t -> bytes list
(** Consumer side, revocation strategy (guest consumer, inline
    positioning): one unshare/share pair (one TLB shootdown each way)
    covers a contiguous run of up to [max] (default 64) valid FULL slots.
    Each payload is read while its pages are private; the span is
    re-shared and every slot returned EMPTY before the call returns, so
    the frames are private snapshots owned by the caller. The run stops at
    a ring wrap or before the first non-FULL/malformed slot, which is left
    in place for the next call; a malformed head slot is skipped and
    counted as in {!try_consume}. Lengths are clamped (and counted) as on
    the copy path. A burst of one costs what a single-slot revocation
    would: one full-cost header read, one check, one unshare and one
    share of a slot's payload unit, one EMPTY write. *)
