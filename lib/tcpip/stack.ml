(* IP stack facade: binds a polling netif to the TCP and UDP layers.

   Address resolution is a static neighbour table fixed at construction —
   the §3.2 zero-negotiation principle applied to the stack itself (no ARP
   state machine, no renegotiation, parameters fixed at deployment). *)

open Cio_util
open Cio_frame

let src = Logs.Src.create "cio.stack" ~doc:"IP stack"

module Log = (val Logs.src_log src : Logs.LOG)

let m_txq_depth =
  Cio_telemetry.Metrics.histogram Cio_telemetry.Metrics.default "overload.txq.depth"

type udp_socket = {
  uport : int;
  rxq : (Addr.ipv4 * int * bytes) Queue.t;
}

type counters = {
  mutable frames_in : int;
  mutable frames_out : int;
  mutable dropped : int;
  mutable last_drop_reason : string;
}

type t = {
  netif : Netif.t;
  ip : Addr.ipv4;
  ttl : int;
  neighbors : (Addr.ipv4 * Addr.mac) list;
  tcp : Tcp.t;
  mutable udp_socks : udp_socket list;
  meter : Cost.meter;
  model : Cost.model;
  now : unit -> int64;
  counters : counters;
  (* TX coalescing: when the netif offers a burst transmit, outgoing
     frames queue here and flush as batches (one ring crossing, one
     doorbell). Without [tx_burst] every frame transmits immediately —
     byte-identical to the uncoalesced stack. *)
  tx_burst : (bytes array -> int) option;
  txq : bytes Queue.t;
  (* Overload plane: when set, the TX coalescing queue is bounded and
     new frames shed (counted, typed) instead of growing it without
     limit while the ring is full. *)
  tx_queue_limit : int option;
  (* Frame-buffer return path: RX buffers go back to the driver's pool
     once parsed (the parsers copy what they keep). *)
  recycle : (bytes -> unit) option;
}

(* Emit one built frame: queue for the next burst flush when coalescing,
   transmit immediately otherwise. Counters and charges are identical
   either way. With [tx_queue_limit] set, a full queue sheds the frame
   here — the backpressure signal the ring raised has reached the
   stack, and dropping at the source beats queueing without bound
   (TCP retransmits what mattered; the rest was load). *)
let emit t frame =
  match (t.tx_burst, t.tx_queue_limit) with
  | Some _, Some lim when Queue.length t.txq >= lim ->
      t.counters.dropped <- t.counters.dropped + 1;
      t.counters.last_drop_reason <- "tx backpressure: queue full"
  | burst, _ ->
      t.counters.frames_out <- t.counters.frames_out + 1;
      Cost.charge t.meter Cost.Stack 150;
      if Option.is_none burst then t.netif.Netif.transmit frame else Queue.add frame t.txq

(* Flush pending TX as bursts. A partial burst means the ring is full:
   requeue the tail and stop — the next poll retries. *)
let flush_tx t =
  match t.tx_burst with
  | None -> ()
  | Some burst ->
      let rec go () =
        let k = min 64 (Queue.length t.txq) in
        if k > 0 then begin
          let frames = Array.init k (fun _ -> Queue.take t.txq) in
          let n = burst frames in
          if n < k then begin
            let leftovers = Queue.create () in
            for i = n to k - 1 do
              Queue.add frames.(i) leftovers
            done;
            Queue.transfer t.txq leftovers;
            Queue.transfer leftovers t.txq
          end
          else go ()
        end
      in
      go ()

(* Finish a frame whose [len]-byte transport payload already sits at
   [Tcp_wire.headroom]: the IPv4 and Ethernet headers go in front of it
   in place, so every frame is one buffer written once. *)
let send_frame t proto ~dst frame len =
  match List.assoc_opt dst t.neighbors with
  | None ->
      t.counters.dropped <- t.counters.dropped + 1;
      t.counters.last_drop_reason <- "no neighbour entry"
  | Some dst_mac ->
      Ipv4.write_header frame ~off:Ethernet.header_len ~src:t.ip ~dst ~protocol:proto ~ttl:t.ttl
        ~payload_len:len;
      Ethernet.write_header frame ~dst:dst_mac ~src:t.netif.Netif.mac ~ethertype:Ethernet.Ipv4;
      emit t frame

let create ?(ttl = 64) ?(model = Cost.default) ?meter ?tx_burst ?recycle ?tx_queue_limit
    ?retry_budget ~netif ~ip ~neighbors ~now ~rng () =
  let meter = match meter with Some m -> m | None -> Cost.meter () in
  let rec t =
    lazy
      {
        netif;
        ip;
        ttl;
        neighbors;
        tcp =
          Tcp.create ~model ~meter ?retry_budget ~local_ip:ip
            ~send_segment:(fun ~dst frame len -> send_frame (Lazy.force t) Ipv4.Tcp ~dst frame len)
            ~now ~rng ();
        udp_socks = [];
        meter;
        model;
        now;
        counters = { frames_in = 0; frames_out = 0; dropped = 0; last_drop_reason = "" };
        tx_burst;
        txq = Queue.create ();
        tx_queue_limit;
        recycle;
      }
  in
  Lazy.force t

let tcp t = t.tcp
let ip t = t.ip
let counters t = t.counters
let meter t = t.meter
let tx_backlog t = Queue.length t.txq

let tx_pressure t =
  match t.tx_queue_limit with
  | None -> Cio_overload.Pressure.Nominal
  | Some lim ->
      Cio_overload.Pressure.level_of_occupancy ~used:(Queue.length t.txq) ~capacity:lim

let send_udp t ~src_port ~dst ~dst_port payload =
  let udp = Udp.build ~src_ip:t.ip ~dst_ip:dst { Udp.src_port; dst_port; payload } in
  let len = Bytes.length udp in
  let frame = Bytes.make (max Tcp_wire.min_frame (Tcp_wire.headroom + len)) '\000' in
  Bytes.blit udp 0 frame Tcp_wire.headroom len;
  send_frame t Ipv4.Udp ~dst frame len

let udp_bind t ~port =
  if List.exists (fun s -> s.uport = port) t.udp_socks then
    invalid_arg "Stack.udp_bind: port already bound";
  let s = { uport = port; rxq = Queue.create () } in
  t.udp_socks <- s :: t.udp_socks;
  s

let udp_recv s = if Queue.is_empty s.rxq then None else Some (Queue.take s.rxq)
let udp_port s = s.uport

let drop t reason =
  t.counters.dropped <- t.counters.dropped + 1;
  t.counters.last_drop_reason <- reason;
  Log.debug (fun m -> m "drop: %s" reason)

(* Headers are read in place; only a TCP payload is copied out. *)
let handle_frame t frame =
  t.counters.frames_in <- t.counters.frames_in + 1;
  Cost.charge t.meter Cost.Stack 150;
  match Ethernet.parse_header frame with
  | Error e -> drop t e
  | Ok eth ->
      if eth.Ethernet.dst <> t.netif.Netif.mac && eth.Ethernet.dst <> Addr.mac_broadcast then
        drop t "ethernet: not for us"
      else begin
        match eth.Ethernet.ethertype with
        | Ethernet.Arp | Ethernet.Unknown _ -> drop t "ethernet: unhandled ethertype"
        | Ethernet.Ipv4 -> (
            match Ipv4.parse_at frame ~off:Ethernet.header_len ~len:(Bytes.length frame - Ethernet.header_len) with
            | Error e -> drop t e
            | Ok ip ->
                let src_ip = ip.Ipv4.src and dst_ip = ip.Ipv4.dst in
                let off = ip.Ipv4.payload_off and len = ip.Ipv4.payload_len in
                if dst_ip <> t.ip then drop t "ipv4: not our address"
                else begin
                  match ip.Ipv4.protocol with
                  | Ipv4.Tcp -> (
                      match Tcp_wire.parse_at ~src_ip ~dst_ip frame ~off ~len with
                      | Error e -> drop t e
                      | Ok seg -> Tcp.input t.tcp ~src:src_ip seg)
                  | Ipv4.Udp -> (
                      match Udp.parse ~src_ip ~dst_ip (Bytes.sub frame off len) with
                      | Error e -> drop t e
                      | Ok dgram -> (
                          match List.find_opt (fun s -> s.uport = dgram.Udp.dst_port) t.udp_socks with
                          | None -> drop t "udp: no socket bound"
                          | Some s when Queue.length s.rxq < 1024 ->
                              Queue.add (src_ip, dgram.Udp.src_port, dgram.Udp.payload) s.rxq
                          | Some _ -> drop t "udp: socket queue full"))
                  | Ipv4.Unknown _ -> drop t "ipv4: unhandled protocol"
                end)
      end

(* One scheduling quantum: drain pending RX frames (bounded), then run TCP
   timers, then flush coalesced TX. Flushing last means segments generated
   while handling this quantum's RX (ACKs, echoes) leave in the same poll,
   as one burst. Drivers are polled, never notify. *)
let poll ?(budget = 64) t =
  let rec go n =
    if n > 0 then begin
      match t.netif.Netif.poll () with
      | None -> ()
      | Some frame ->
          handle_frame t frame;
          (* The parsers copied what they kept; the frame buffer can go
             back to the driver's pool. *)
          (match t.recycle with Some r -> r frame | None -> ());
          go (n - 1)
    end
  in
  go budget;
  Tcp.tick t.tcp;
  (* Only bounded stacks observe queue depth — the classic stack keeps
     its metric stream byte-identical to the pre-overload build. *)
  if t.tx_queue_limit <> None then
    Cio_telemetry.Metrics.observe m_txq_depth (Queue.length t.txq);
  flush_tx t
