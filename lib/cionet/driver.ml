(* Guest-side cionet driver: the confidential unit's end of the safe L2
   interface. Builds the shared region (config page + TX ring + RX ring),
   exposes the polling netif the in-TEE stack plugs into, and implements
   the two receive strategies (early copy vs page revocation). *)

open Cio_util
open Cio_mem
module Trace = Cio_telemetry.Trace
module Metrics = Cio_telemetry.Metrics
module Kind = Cio_telemetry.Kind

let m_kicks_coalesced = Metrics.counter Metrics.default "driver.doorbells_coalesced"
let m_batch_depth = Metrics.histogram Metrics.default "batch.depth"

type instance = {
  region : Region.t;
  tx : Ring.t;   (* guest produces *)
  rx : Ring.t;   (* host produces *)
}

type t = {
  config : Config.t;
  mutable inst : instance;
  meter : Cost.meter;     (* guest meter, stable across hot swaps *)
  host_meter : Cost.meter;
  model : Cost.model;
  name : string;
  mutable generation : int;  (* bumped on every hot swap *)
  mutable tx_frames : int;
  mutable rx_frames : int;
  pool : Bufpool.t;       (* RX/staging buffer recycling; stable across hot swaps *)
}

let config_bytes = 64

(* The immutable config page at offset 0: MAC, MTU, geometry. Written once
   by the guest at boot; the host reads it once at attach. No field ever
   changes afterwards. *)
let write_config region (c : Config.t) =
  let b = Bytes.make config_bytes '\000' in
  for i = 0 to 5 do
    Bytes.set b i (Char.chr (Cio_frame.Addr.mac_octet c.Config.mac i))
  done;
  Bytes.set_uint16_le b 6 c.Config.mtu;
  Bytes.set_uint16_le b 8 c.Config.ring_slots;
  Bytes.set b 10 (if c.Config.checksum_offload then '\001' else '\000');
  Bytes.set b 11 (if c.Config.use_notifications then '\001' else '\000');
  Region.guest_write region ~off:0 b

let make_instance ~model ~meter ~host_meter ~name (config : Config.t) =
  let page = 4096 in
  let lay = Ring.layout ~page_size:page ~slots:config.Config.ring_slots config.Config.positioning in
  let tx_base = page in
  let rx_base = Bitops.align_up (tx_base + lay.Ring.total) ~align:page in
  let total = Bitops.align_up (rx_base + lay.Ring.total) ~align:page in
  let region = Region.create ~meter ~model ~page_size:page ~prot:Region.Shared ~name total in
  write_config region config;
  let tx =
    Ring.create ~region ~base:tx_base ~slots:config.Config.ring_slots
      ~positioning:config.Config.positioning ~producer:Region.Guest ~host_meter
  in
  let rx =
    Ring.create ~region ~base:rx_base ~slots:config.Config.ring_slots
      ~positioning:config.Config.positioning ~producer:Region.Host ~host_meter
  in
  { region; tx; rx }

let create ?(model = Cost.default) ?meter ?host_meter ~name (config : Config.t) =
  let meter = match meter with Some m -> m | None -> Cost.meter () in
  let host_meter = match host_meter with Some m -> m | None -> Cost.meter () in
  let inst = make_instance ~model ~meter ~host_meter ~name config in
  {
    config;
    inst;
    meter;
    host_meter;
    model;
    name;
    generation = 0;
    tx_frames = 0;
    rx_frames = 0;
    pool = Bufpool.create ();
  }

let region t = t.inst.region
let tx_ring t = t.inst.tx
let rx_ring t = t.inst.rx
let host_meter t = t.host_meter
let guest_meter t = t.meter
let tx_frames t = t.tx_frames
let rx_frames t = t.rx_frames
let generation t = t.generation

(* Hot swap: replace the entire device instance with a fresh one — the
   §3.2 answer to live migration. Because the interface is stateless and
   zero-negotiation, there is nothing to transfer: no feature bits, no
   in-flight descriptor state, no sequence numbers. In-flight *frames*
   are lost, exactly like a cable pull, and TCP/L5 recover; the old
   region is revoked from the host wholesale so nothing lingers shared
   after migration. *)
let hot_swap t =
  if Trace.on () then Trace.span_begin ~cat:Kind.l2 "hot-swap";
  Region.unshare_range t.inst.region ~off:0 ~len:(Region.size t.inst.region);
  t.generation <- t.generation + 1;
  t.inst <-
    make_instance ~model:t.model ~meter:t.meter ~host_meter:t.host_meter
      ~name:(Printf.sprintf "%s-gen%d" t.name t.generation)
      t.config;
  if Trace.on () then Trace.span_end ~cat:Kind.l2 "hot-swap"

(* One doorbell covers [n] produced frames: the kick is stateless and
   idempotent ("look at the ring"), so coalescing is free of protocol
   state — the host drains everything it finds regardless of how many
   kicks arrived. *)
let kick t n =
  if n > 0 && t.config.Config.use_notifications then begin
    Cost.charge (guest_meter t) Cost.Notification t.model.Cost.notification;
    if n > 1 then Metrics.add m_kicks_coalesced (n - 1);
    if Trace.on () then Trace.instant ~cat:Kind.l2 Kind.kick
  end

(* Backpressure surface: TX-ring occupancy, from the guest-private
   cursors (see Ring.occupancy). *)
let tx_occupancy t = Ring.occupancy t.inst.tx

let tx_pressure t =
  Cio_overload.Pressure.level_of_occupancy ~used:(Ring.occupancy t.inst.tx)
    ~capacity:(Ring.slots t.inst.tx)

(* Transmit: one ring crossing, one doorbell, for the whole batch. Size
   padding (the host sees uniform frames; receivers strip it via the IPv4
   total-length field) stages short frames in pool buffers, recycled as
   soon as the ring has copied them out, so there is no per-frame
   allocation in steady state. Returns how many frames went in; the tail
   is the caller's to retry, and a refusal is counted in the TX ring's
   [full_misses]. *)
let transmit_burst t frames =
  if Array.length frames = 0 then 0
  else begin
    let traced = Trace.on () in
    if traced then Trace.span_begin ~cat:Kind.l2 "tx-burst";
    let cap = t.config.Config.mtu + 14 in
    let staged =
      if not t.config.Config.pad_frames then frames
      else
        Array.map
          (fun frame ->
            if Bytes.length frame >= cap then frame
            else begin
              let padded = Bufpool.acquire t.pool cap in
              let len = Bytes.length frame in
              Bytes.blit frame 0 padded 0 len;
              Bytes.fill padded len (cap - len) '\000';
              padded
            end)
          frames
    in
    let n = Ring.try_produce_burst t.inst.tx staged in
    if t.config.Config.pad_frames then
      Array.iteri
        (fun i b -> if b != frames.(i) then Bufpool.recycle t.pool b)
        staged;
    if n > 0 then begin
      t.tx_frames <- t.tx_frames + n;
      Metrics.observe m_batch_depth n;
      kick t n
    end;
    if traced then Trace.span_end ~cat:Kind.l2 "tx-burst";
    n
  end

let transmit t frame = transmit_burst t [| frame |] = 1

let got_rx t frame =
  t.rx_frames <- t.rx_frames + 1;
  if Trace.on () then
    Trace.instant ~arg:(Bytes.length frame) ~cat:Kind.l2 "rx-frame"

(* One-slot receive: a malformed slot ends the call with [None] (the
   attack experiments rely on that step), where [poll_burst] would skip it
   and carry on. *)
let poll t =
  let r =
    match t.config.Config.rx_strategy with
    | Config.Copy_in -> Ring.try_consume ~pool:t.pool t.inst.rx
    | Config.Revoke -> (
        match Ring.try_consume_revoke_burst ~pool:t.pool ~max:1 t.inst.rx with
        | [ f ] -> Some f
        | _ -> None)
  in
  (match r with Some f -> got_rx t f | None -> ());
  r

(* Burst receive: drain up to [max] frames in one crossing. In [Revoke]
   mode the whole contiguous run is revoked under a single shootdown —
   every returned buffer is a private snapshot. *)
let poll_burst ?(max = 64) t =
  let frames =
    match t.config.Config.rx_strategy with
    | Config.Copy_in -> Ring.try_consume_burst ~pool:t.pool ~max t.inst.rx
    | Config.Revoke -> Ring.try_consume_revoke_burst ~pool:t.pool ~max t.inst.rx
  in
  (match frames with
  | [] -> ()
  | _ ->
      Metrics.observe m_batch_depth (List.length frames);
      List.iter (fun f -> got_rx t f) frames);
  frames

let recycle t b = Bufpool.recycle t.pool b
let pool t = t.pool

let to_netif t =
  {
    Cio_tcpip.Netif.mac = t.config.Config.mac;
    mtu = t.config.Config.mtu;
    transmit = (fun frame -> ignore (transmit t frame));
    poll = (fun () -> poll t);
  }
