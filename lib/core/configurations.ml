(* The five confidential-I/O architectures of Figure 5, built end-to-end
   on the same simulated substrate and driven by the same workload:

   - syscall-l5      Graphene/CCF-class: host runs the stack, the TEE
                     keeps only TLS; every socket op is an enclave exit.
   - passthrough-l2  rkt-io/ShieldBox-class: full stack + *unhardened*
                     legacy transport inside the TEE.
   - hardened-virtio lift-and-shift CVM: stack + retrofitted-checks
                     driver inside the TEE.
   - tunneled        LightBox-class: stack in the TEE, every L2 frame
                     sealed and padded into a tunnel.
   - dual-boundary   this work: cionet + quarantined stack + mandatory
                     TLS at a compartment-gated L5.

   Each run reports the TEE's counted work (cycles, by category), the
   host-observability tap, and the configuration's TCB profile — the
   three axes of Figure 5. *)

open Cio_util
open Cio_frame
open Cio_netsim
open Cio_tcpip
open Cio_tls
module Trace = Cio_telemetry.Trace
module Metrics = Cio_telemetry.Metrics
module Kind_ = Cio_telemetry.Kind

type kind = Syscall_l5 | Passthrough_l2 | Hardened_virtio | Tunneled | Dual_boundary

let kind_name = function
  | Syscall_l5 -> "syscall-l5"
  | Passthrough_l2 -> "passthrough-l2"
  | Hardened_virtio -> "hardened-virtio"
  | Tunneled -> "tunneled"
  | Dual_boundary -> "dual-boundary"

let all_kinds = [ Syscall_l5; Passthrough_l2; Hardened_virtio; Tunneled; Dual_boundary ]

type metrics = {
  kind : kind;
  completed : bool;
  messages : int;
  app_bytes : int;       (* application payload bytes echoed, both ways *)
  guest : Cost.meter;    (* the TEE's counted work *)
  host : Cost.meter;     (* host-side work (for reference) *)
  sim_ns : int64;
  tap : Cio_observe.Observe.t;
  link_frames : int;
  link_bytes : int;
  tcb_core_loc : int;
  tcb_quarantined_loc : int;
  crossings : int;       (* L5 boundary crossings (dual only) *)
}

let cycles_per_byte m =
  if m.app_bytes = 0 then infinity else float_of_int (Cost.total m.guest) /. float_of_int m.app_bytes

(* A configuration instance: how the harness drives the confidential side. *)
type endpoint = {
  pump : unit -> unit;          (* one confidential-side scheduling quantum *)
  host_pump : unit -> unit;     (* one host-side quantum *)
  send : bytes -> bool;         (* queue one application message *)
  recv : unit -> bytes option;  (* next echoed message *)
  established : unit -> bool;
  failed : unit -> bool;
  guest_meter : Cost.meter;
  host_meter : Cost.meter;
  crossings : unit -> int;
}

let ip_tee = Addr.ipv4_of_octets 10 0 0 1
let ip_peer = Addr.ipv4_of_octets 10 0 0 2
let mac_tee = Addr.mac_of_octets 0x02 0 0 0 0 0x01
let mac_peer = Addr.mac_of_octets 0x02 0 0 0 0 0x02
let echo_port = 443

let psk = Bytes.of_string "attestation-provisioned-psk-32b!"
let psk_id = "tenant-0001"
let tunnel_key = Bytes.of_string "tunnel-key-tunnel-key-tunnel-32b"
let tunnel_pad = 1600

(* Shared per-run scaffolding. *)
type env = {
  engine : Engine.t;
  link : Link.t;
  tap : Cio_observe.Observe.t;
  peer : Peer.t;
  rng : Rng.t;
  model : Cost.model;
}

let make_env ?(model = Cost.default) ?peer_codec ~seed ~latency_ns ~gbps ~tap_name () =
  let engine = Engine.create () in
  (* Trace timestamps follow the run's virtual clock: same seed, same
     trace, byte for byte. *)
  if Trace.on () then Trace.set_clock (fun () -> Engine.now engine);
  let link = Link.create ~latency_ns ~gbps engine in
  let tap = Cio_observe.Observe.create tap_name in
  let rng = Rng.create seed in
  let now () = Engine.now engine in
  let peer =
    Peer.create ~model ?frame_codec:peer_codec ~link ~endpoint:Link.B ~ip:ip_peer ~mac:mac_peer
      ~neighbors:[ (ip_tee, mac_tee) ] ~psk ~psk_id ~rng:(Rng.split rng) ~now ()
  in
  Peer.serve_echo peer ~port:echo_port;
  { engine; link; tap; peer; rng; model }

(* Record link-level metadata into the tap: what a host watching its NIC
   (or the wire) sees in every configuration. *)
let tap_link env ~frame_kind =
  Link.set_transit_tap env.link
    (Some
       (fun ~time ~src frame ->
         let dir = match src with Link.A -> Kind_.dir_out | Link.B -> Kind_.dir_in in
         Cio_observe.Observe.record env.tap ~time
           ~kind:(Kind_.tap ~base:frame_kind ~dir)
           ~size:(Bytes.length frame)))

let neighbors_tee = [ (ip_peer, mac_peer) ]

(* Channel-based confidential endpoints (every kind except syscall-l5). *)
let channel_endpoint ~channel ~pump ~host_pump ~guest_meter ~host_meter ~crossings =
  {
    pump;
    host_pump;
    send = (fun msg -> match Channel.send channel msg with Ok () -> true | Error _ -> false);
    recv = (fun () -> Channel.recv channel);
    established = (fun () -> Channel.is_established channel);
    failed = (fun () -> Channel.error channel <> None);
    guest_meter;
    host_meter;
    crossings;
  }

let make_dual ?cionet_config env =
  let now () = Engine.now env.engine in
  let unit_ =
    Dual.create ?cionet_config ~model:env.model ~mac:mac_tee ~name:"dual-tee" ~ip:ip_tee
      ~neighbors:neighbors_tee ~psk ~psk_id ~rng:(Rng.split env.rng) ~now ()
  in
  let host_meter = Cio_cionet.Driver.host_meter (Dual.driver unit_) in
  let host =
    Cio_cionet.Host_model.create ~driver:(Dual.driver unit_)
      ~transmit:(fun frame -> Link.send env.link ~src:Link.A frame)
  in
  Link.attach env.link Link.A (fun frame -> Cio_cionet.Host_model.deliver_rx host frame);
  tap_link env ~frame_kind:Kind_.frame;
  let channel = Dual.connect unit_ ~dst:ip_peer ~dst_port:echo_port in
  channel_endpoint ~channel
    ~pump:(fun () -> Dual.poll unit_)
    ~host_pump:(fun () -> Cio_cionet.Host_model.poll host)
    ~guest_meter:(Dual.meter unit_) ~host_meter
    ~crossings:(fun () -> Dual.crossings unit_)

(* Single-boundary TEE over a virtio transport (passthrough / hardened).
   The whole stack lives in the core TCB: no compartment, no L5 distrust
   copies. *)
let make_virtio env ~hardened =
  let now () = Engine.now env.engine in
  let guest_meter = Cost.meter () in
  let host_meter = Cost.meter () in
  let transport =
    Cio_virtio.Transport.create ~model:env.model ~meter:guest_meter ~name:"virtio-tee" ()
  in
  let device =
    Cio_virtio.Device.create ~rx:(Cio_virtio.Transport.rx transport)
      ~tx:(Cio_virtio.Transport.tx transport)
      ~transmit:(fun frame -> Link.send env.link ~src:Link.A frame)
  in
  Link.attach env.link Link.A (fun frame -> Cio_virtio.Device.deliver_rx device frame);
  let base_netif, get_kicks, get_irqs =
    if hardened then begin
      let d = Cio_virtio.Driver_hardened.create transport in
      ( Cio_virtio.Driver_hardened.to_netif d ~mac:mac_tee,
        (fun () -> Cio_virtio.Driver_hardened.kicks d),
        fun () -> Cio_virtio.Driver_hardened.irqs d )
    end
    else begin
      let d = Cio_virtio.Driver_unhardened.create transport in
      ( Cio_virtio.Driver_unhardened.to_netif d ~mac:mac_tee,
        (fun () -> Cio_virtio.Driver_unhardened.kicks d),
        fun () -> Cio_virtio.Driver_unhardened.irqs d )
    end
  in
  let netif = base_netif in
  let stack =
    Stack.create ~model:env.model ~meter:guest_meter ~netif ~ip:ip_tee ~neighbors:neighbors_tee ~now
      ~rng:(Rng.split env.rng) ()
  in
  tap_link env ~frame_kind:Kind_.frame;
  let session =
    Session.create ~model:env.model ~meter:guest_meter ~role:Session.Client ~psk ~psk_id
      ~rng:(Rng.split env.rng) ()
  in
  let conn = Tcp.connect (Stack.tcp stack) ~dst:ip_peer ~dst_port:echo_port () in
  let channel =
    (* Single distrust boundary: the stack is part of the trusted unit,
       so no L5 copies are charged. *)
    Channel.create ~zero_copy_send:true ~copy_on_recv:false ~model:env.model ~meter:guest_meter
      ~session ~stack ~conn ()
  in
  ignore (Channel.start_handshake channel);
  (* Doorbell/interrupt traffic is host-visible: surface it in the tap. *)
  let last_kicks = ref 0 and last_irqs = ref 0 in
  let record_notifications kicks irqs =
    for _ = 1 to kicks - !last_kicks do
      Cio_observe.Observe.record env.tap ~time:(Engine.now env.engine) ~kind:Kind_.kick ~size:0
    done;
    for _ = 1 to irqs - !last_irqs do
      Cio_observe.Observe.record env.tap ~time:(Engine.now env.engine) ~kind:Kind_.irq ~size:0
    done;
    last_kicks := kicks;
    last_irqs := irqs
  in
  let pump () =
    Stack.poll stack;
    Channel.pump channel
  in
  let host_pump () =
    Cio_virtio.Device.poll device;
    record_notifications (get_kicks ()) (get_irqs ())
  in
  channel_endpoint ~channel ~pump ~host_pump ~guest_meter ~host_meter ~crossings:(fun () -> 0)

(* LightBox-class tunneled design: the stack and a DPDK-style polled
   transport live in the TEE (single boundary, XL core TCB), and every
   L2 frame is sealed into a fixed-size tunnel blob with cadence padding
   (dummy blobs when idle). The host observes only uniform ciphertext. *)
let make_tunneled env =
  let now () = Engine.now env.engine in
  let guest_meter = Cost.meter () in
  let host_meter = Cost.meter () in
  let driver =
    Cio_cionet.Driver.create ~model:env.model ~meter:guest_meter ~host_meter ~name:"tunnel-tee"
      { Cio_cionet.Config.default with Cio_cionet.Config.mac = mac_tee }
  in
  let host =
    Cio_cionet.Host_model.create ~driver ~transmit:(fun frame -> Link.send env.link ~src:Link.A frame)
  in
  Link.attach env.link Link.A (fun frame -> Cio_cionet.Host_model.deliver_rx host frame);
  tap_link env ~frame_kind:Kind_.tunnel;
  let base_netif = Cio_cionet.Driver.to_netif driver in
  let dummy_interval_ns = 20_000L in
  let last_tx = ref 0L in
  let tx_sealed frame =
    last_tx := Engine.now env.engine;
    (* Encapsulation pays full-pad crypto plus the assembly copy. *)
    Cost.charge guest_meter Cost.Crypto (Cost.aead_cost env.model tunnel_pad);
    Cost.charge guest_meter Cost.Copy (Cost.copy_cost env.model tunnel_pad);
    base_netif.Netif.transmit (Tunnel.seal ~key:tunnel_key ~pad_to:tunnel_pad frame)
  in
  let netif =
    {
      base_netif with
      Netif.mtu = base_netif.Netif.mtu - 64;
      transmit = tx_sealed;
      poll =
        (fun () ->
          if Int64.sub (Engine.now env.engine) !last_tx >= dummy_interval_ns then
            tx_sealed Bytes.empty;
          match base_netif.Netif.poll () with
          | None -> None
          | Some blob -> (
              Cost.charge guest_meter Cost.Crypto (Cost.aead_cost env.model (Bytes.length blob));
              Cost.charge guest_meter Cost.Copy (Cost.copy_cost env.model (Bytes.length blob));
              match Tunnel.open_ ~key:tunnel_key blob with
              | Some frame -> if Bytes.length frame = 0 then None else Some frame
              | None -> None));
    }
  in
  let stack =
    Stack.create ~model:env.model ~meter:guest_meter ~netif ~ip:ip_tee ~neighbors:neighbors_tee ~now
      ~rng:(Rng.split env.rng) ()
  in
  let session =
    Session.create ~model:env.model ~meter:guest_meter ~role:Session.Client ~psk ~psk_id
      ~rng:(Rng.split env.rng) ()
  in
  let conn = Tcp.connect (Stack.tcp stack) ~dst:ip_peer ~dst_port:echo_port () in
  let channel =
    Channel.create ~zero_copy_send:true ~copy_on_recv:false ~model:env.model ~meter:guest_meter
      ~session ~stack ~conn ()
  in
  ignore (Channel.start_handshake channel);
  let pump () =
    Stack.poll stack;
    Channel.pump channel
  in
  channel_endpoint ~channel ~pump
    ~host_pump:(fun () -> Cio_cionet.Host_model.poll host)
    ~guest_meter ~host_meter
    ~crossings:(fun () -> 0)

(* Graphene/CCF-class syscall-level design: the host owns the stack; the
   TEE holds only the TLS endpoint. Every socket call is a world switch
   the host both serves and observes. *)
let make_syscall env =
  let now () = Engine.now env.engine in
  let guest_meter = Cost.meter () in
  let host_meter = Cost.meter () in
  let rxq = Queue.create () in
  Link.attach env.link Link.A (fun frame -> Queue.add frame rxq);
  let netif =
    {
      Netif.mac = mac_tee;
      mtu = 1500;
      transmit = (fun frame -> Link.send env.link ~src:Link.A frame);
      poll = (fun () -> if Queue.is_empty rxq then None else Some (Queue.take rxq));
    }
  in
  (* The host stack: charged to the host meter — it is not TEE work. *)
  let stack =
    Stack.create ~model:env.model ~meter:host_meter ~netif ~ip:ip_tee ~neighbors:neighbors_tee ~now
      ~rng:(Rng.split env.rng) ()
  in
  tap_link env ~frame_kind:Kind_.frame;
  let session =
    Session.create ~model:env.model ~meter:guest_meter ~role:Session.Client ~psk ~psk_id
      ~rng:(Rng.split env.rng) ()
  in
  let conn = Tcp.connect (Stack.tcp stack) ~dst:ip_peer ~dst_port:echo_port () in
  let syscall kind size =
    Cost.charge guest_meter Cost.Tee_switch env.model.Cost.tee_switch;
    (* Enclave-boundary marshalling: buffers are copied across the exit. *)
    if size > 0 then Cost.charge guest_meter Cost.Copy (Cost.copy_cost env.model size);
    Cio_observe.Observe.record env.tap ~time:(Engine.now env.engine) ~kind ~size
  in
  let inbox = Queue.create () in
  let outbox = Outbox.create () in
  let failed = ref false in
  let push_wire wire =
    (* One send syscall per record: the host sees the call and its size. *)
    syscall Kind_.sys_send (Bytes.length wire);
    Outbox.add outbox wire
  in
  let flush_outbox () = ignore (Outbox.flush (Stack.tcp stack) conn outbox) in
  (match Session.initiate session with
  | Ok flights -> List.iter push_wire flights
  | Error _ -> failed := true);
  let pump () =
    flush_outbox ();
    (* A recv syscall only when the host has data to deliver (an
       event-driven ocall, not a busy spin). *)
    if Tcp.recv_available conn > 0 then begin
      syscall Kind_.sys_recv 0;
      let b = Tcp.recv (Stack.tcp stack) conn ~max:65536 in
      if Bytes.length b > 0 then begin
        Cost.charge guest_meter Cost.Copy (Cost.copy_cost env.model (Bytes.length b));
        Cio_observe.Observe.record env.tap ~time:(Engine.now env.engine) ~kind:Kind_.sys_recv_data
          ~size:(Bytes.length b);
        let result = Session.feed session b in
        List.iter push_wire result.Session.outputs;
        List.iter (fun m -> Queue.add m inbox) result.Session.app_data;
        (match result.Session.err with Some _ -> failed := true | None -> ());
        flush_outbox ()
      end
    end
  in
  let host_pump () = Stack.poll stack in
  {
    pump;
    host_pump;
    send =
      (fun msg ->
        match Session.send_data session msg with
        | Ok wire ->
            push_wire wire;
            true
        | Error _ ->
            failed := true;
            false);
    recv = (fun () -> if Queue.is_empty inbox then None else Some (Queue.take inbox));
    established = (fun () -> Session.is_established session);
    failed = (fun () -> !failed);
    guest_meter;
    host_meter;
    crossings = (fun () -> 0);
  }

let make_endpoint ?cionet_config env = function
  | Dual_boundary -> make_dual ?cionet_config env
  | Passthrough_l2 -> make_virtio env ~hardened:false
  | Hardened_virtio -> make_virtio env ~hardened:true
  | Tunneled -> make_tunneled env
  | Syscall_l5 -> make_syscall env

(* Custom wirings for the E16 decomposition ablation: transport choice
   (legacy hardened virtio vs cionet) crossed with boundary placement
   (stack in the core TCB vs quarantined behind a compartment gate). The
   four cells isolate how much of the dual design's win comes from the
   safe transport and how much from the boundary split. *)

type transport_choice = T_virtio_hardened | T_cionet

let transport_name = function T_virtio_hardened -> "virtio-hardened" | T_cionet -> "cionet"

let make_custom env ~transport ~quarantined =
  let now () = Engine.now env.engine in
  let guest_meter = Cost.meter () in
  let host_meter = Cost.meter () in
  let netif, host_pump =
    match transport with
    | T_cionet ->
        let driver =
          Cio_cionet.Driver.create ~model:env.model ~meter:guest_meter ~host_meter
            ~name:"custom-cionet"
            { Cio_cionet.Config.default with Cio_cionet.Config.mac = mac_tee }
        in
        let host =
          Cio_cionet.Host_model.create ~driver
            ~transmit:(fun f -> Link.send env.link ~src:Link.A f)
        in
        Link.attach env.link Link.A (fun f -> Cio_cionet.Host_model.deliver_rx host f);
        (Cio_cionet.Driver.to_netif driver, fun () -> Cio_cionet.Host_model.poll host)
    | T_virtio_hardened ->
        let tr = Cio_virtio.Transport.create ~model:env.model ~meter:guest_meter ~name:"custom-virtio" () in
        let dev =
          Cio_virtio.Device.create ~rx:(Cio_virtio.Transport.rx tr) ~tx:(Cio_virtio.Transport.tx tr)
            ~transmit:(fun f -> Link.send env.link ~src:Link.A f)
        in
        Link.attach env.link Link.A (fun f -> Cio_virtio.Device.deliver_rx dev f);
        let d = Cio_virtio.Driver_hardened.create tr in
        (Cio_virtio.Driver_hardened.to_netif d ~mac:mac_tee, fun () -> Cio_virtio.Device.poll dev)
  in
  let stack =
    Stack.create ~model:env.model ~meter:guest_meter ~netif ~ip:ip_tee ~neighbors:neighbors_tee ~now
      ~rng:(Rng.split env.rng) ()
  in
  tap_link env ~frame_kind:Kind_.frame;
  let session =
    Session.create ~model:env.model ~meter:guest_meter ~role:Session.Client ~psk ~psk_id
      ~rng:(Rng.split env.rng) ()
  in
  let conn = Tcp.connect (Stack.tcp stack) ~dst:ip_peer ~dst_port:echo_port () in
  let world = Cio_compartment.Compartment.create ~model:env.model ~meter:guest_meter ~crossing:Cio_compartment.Compartment.Gate () in
  let channel =
    (* Quarantined: distrust copies at L5 plus a gate per data handoff.
       In-core: the stack is trusted, no copies, no gates. *)
    Channel.create ~zero_copy_send:true ~copy_on_recv:quarantined ~model:env.model
      ~meter:guest_meter ~session ~stack ~conn ()
  in
  ignore (Channel.start_handshake channel);
  let pump () =
    Stack.poll stack;
    if quarantined then begin
      if Channel.io_pump channel then Cio_compartment.Compartment.charge_crossing world
    end
    else ignore (Channel.io_pump channel);
    Channel.app_pump channel
  in
  channel_endpoint ~channel ~pump ~host_pump ~guest_meter ~host_meter ~crossings:(fun () ->
      (Cio_compartment.Compartment.counters world).Cio_compartment.Compartment.crossings)

let run_echo_custom ?(seed = 1L) ?(msg_size = 1024) ?(messages = 30) ?(window = 4)
    ?(quantum_ns = 2_000L) ?(max_steps = 400_000) ?(model = Cost.default) ~transport ~quarantined
    () =
  let env = make_env ~model ~seed ~latency_ns:10_000L ~gbps:10.0 ~tap_name:"custom" () in
  let ep = make_custom env ~transport ~quarantined in
  let payload = Bytes.make msg_size 'm' in
  let sent = ref 0 and echoes = ref 0 and steps = ref 0 in
  while !echoes < messages && !steps < max_steps && not (ep.failed ()) do
    incr steps;
    ep.pump ();
    ep.host_pump ();
    Peer.poll env.peer;
    Engine.advance env.engine ~by:quantum_ns;
    if ep.established () then
      while !sent < messages && !sent - !echoes < window && ep.send payload do
        incr sent
      done;
    let rec drain () =
      match ep.recv () with
      | Some _ ->
          incr echoes;
          drain ()
      | None -> ()
    in
    drain ()
  done;
  ( !echoes >= messages,
    float_of_int (Cost.total ep.guest_meter) /. float_of_int (max 1 (2 * msg_size * !echoes)),
    ep.crossings () )

(* Echo workload: [messages] application messages of [msg_size] bytes,
   each echoed back by the peer, with a small pipelining window. *)
let run_echo ?(seed = 1L) ?(msg_size = 1024) ?(messages = 50) ?(window = 4)
    ?(latency_ns = 10_000L) ?(gbps = 10.0) ?(quantum_ns = 2_000L) ?(max_steps = 400_000)
    ?(model = Cost.default) ?cionet_config kind =
  let peer_codec =
    match kind with
    | Tunneled ->
        Some
          ( (fun frame -> Tunnel.seal ~key:tunnel_key ~pad_to:tunnel_pad frame),
            fun blob -> Tunnel.open_ ~key:tunnel_key blob )
    | _ -> None
  in
  let env = make_env ~model ?peer_codec ~seed ~latency_ns ~gbps ~tap_name:(kind_name kind) () in
  let ep = make_endpoint ?cionet_config env kind in
  let payload = Bytes.make msg_size 'm' in
  let sent = ref 0 and echoes = ref 0 and steps = ref 0 in
  (* Echoes come back in order, so a FIFO of send timestamps gives each
     round trip's virtual-time latency. *)
  let rtt = Metrics.histogram Metrics.default ("echo.rtt_us." ^ kind_name kind) in
  let in_flight_at : int64 Queue.t = Queue.create () in
  let traced = Trace.on () in
  while !echoes < messages && !steps < max_steps && not (ep.failed ()) do
    incr steps;
    ep.pump ();
    ep.host_pump ();
    Peer.poll env.peer;
    Engine.advance env.engine ~by:quantum_ns;
    if ep.established () then begin
      while !sent < messages && !sent - !echoes < window && ep.send payload do
        incr sent;
        Queue.add (Engine.now env.engine) in_flight_at;
        if traced then Trace.instant ~arg:msg_size ~cat:Kind_.experiment "echo-send"
      done
    end;
    let rec drain () =
      match ep.recv () with
      | Some _ ->
          incr echoes;
          (match Queue.take_opt in_flight_at with
          | Some t0 ->
              let us = Int64.to_int (Int64.div (Int64.sub (Engine.now env.engine) t0) 1_000L) in
              Metrics.observe rtt us;
              if traced then Trace.instant ~arg:us ~cat:Kind_.experiment "echo-recv"
          | None -> ());
          drain ()
      | None -> ()
    in
    drain ()
  done;
  let tcb_name = kind_name kind in
  {
    kind;
    completed = !echoes >= messages;
    messages = !echoes;
    app_bytes = 2 * msg_size * !echoes;
    guest = Cost.snapshot ep.guest_meter;
    host = Cost.snapshot ep.host_meter;
    sim_ns = Engine.now env.engine;
    tap = env.tap;
    link_frames = Link.frames_sent env.link ~src:Link.A + Link.frames_sent env.link ~src:Link.B;
    link_bytes = Link.bytes_sent env.link ~src:Link.A + Link.bytes_sent env.link ~src:Link.B;
    tcb_core_loc = Cio_tcb.Tcb.core_loc tcb_name;
    tcb_quarantined_loc = Cio_tcb.Tcb.quarantined_loc tcb_name;
    crossings = ep.crossings ();
  }
