(* The confidential unit under test, behind the few operations the
   benchmark needs.

   [dual] is the real thing: a [Dual.t], polled as one opaque call.
   [assemble] rebuilds the same unit from the public constructors
   [Dual.create] uses, in the same order and with the same arguments, and
   puts a span around every closure it hands to the library: the driver's
   netif, the stack's burst TX and buffer recycling, the compartment call
   behind [enter_io], and the three halves of [Dual.poll]. The fidelity
   test holds the two to identical cycles, virtual time and frame counts,
   so a change to [Dual] that the assembly does not follow fails loudly. *)

open Cio_util
open Cio_tcpip
open Cio_tls
open Cio_compartment
open Cio_core
module Driver = Cio_cionet.Driver

type t = {
  meter : Cost.meter;
  driver : Driver.t;
  stack : Stack.t;
  world : Compartment.t;
  plane : Cio_overload.Plane.t option;
  connect : dst:Cio_frame.Addr.ipv4 -> dst_port:int -> Channel.t;
  poll : unit -> unit;
}

let dual ?overload ~mac ~name ~ip ~neighbors ~psk ~psk_id ~rng ~now () =
  let u = Dual.create ~mac ?overload ~name ~ip ~neighbors ~psk ~psk_id ~rng ~now () in
  {
    meter = Dual.meter u;
    driver = Dual.driver u;
    stack = Dual.stack u;
    world = Dual.world u;
    plane = Dual.overload u;
    connect = (fun ~dst ~dst_port -> Dual.connect u ~dst ~dst_port);
    poll = (fun () -> Dual.poll u);
  }

(* Mirrors [Dual.create] with its defaults: [Cost.default], a compartment
   gate, [zero_copy_send] and [copy_on_recv] on, the default cionet
   config with [mac] set. The RNG is consumed in the same order. *)
let assemble ~tracer ?overload ~mac ~name ~ip ~neighbors ~psk ~psk_id ~rng ~now () =
  let model = Cost.default in
  let cionet_config = { Cio_cionet.Config.default with Cio_cionet.Config.mac } in
  let meter = Cost.meter () in
  let world = Compartment.create ~model ~meter ~crossing:Compartment.Gate () in
  let app = Compartment.add_domain world ~name:"app" in
  let io = Compartment.add_domain world ~name:"iostack" in
  let driver = Driver.create ~model ~meter ~name cionet_config in
  let raw = Driver.to_netif driver in
  let netif =
    {
      raw with
      Netif.transmit =
        (fun frame ->
          Tracer.enter tracer Tracer.Driver;
          raw.Netif.transmit frame;
          Tracer.leave tracer);
      poll =
        (fun () ->
          Tracer.enter tracer Tracer.Driver;
          let r = raw.Netif.poll () in
          Tracer.leave tracer;
          r);
    }
  in
  let plane =
    Option.map
      (fun config -> Cio_overload.Plane.create ~config ~rng:(Rng.split rng) ~now ())
      overload
  in
  let stack =
    Stack.create ~model ~meter
      ~tx_burst:(fun frames ->
        Tracer.enter tracer Tracer.Driver;
        let n = Driver.transmit_burst driver frames in
        Tracer.leave tracer;
        n)
      ~recycle:(fun f ->
        Tracer.enter tracer Tracer.Driver;
        Driver.recycle driver f;
        Tracer.leave tracer)
      ?tx_queue_limit:
        (Option.map (fun p -> (Cio_overload.Plane.config p).Cio_overload.Plane.queue_limit) plane)
      ?retry_budget:(Option.map Cio_overload.Plane.retry_budget plane)
      ~netif ~ip ~neighbors ~now ~rng ()
  in
  let enter_io f =
    Tracer.enter tracer Tracer.L5;
    let r = Compartment.call world ~caller:app ~callee:io f in
    Tracer.leave tracer;
    r
  in
  let channels = ref [] in
  let connect ~dst ~dst_port =
    let conn = enter_io (fun () -> Tcp.connect (Stack.tcp stack) ~dst ~dst_port ()) in
    let session = Session.create ~model ~meter ~role:Session.Client ~psk ~psk_id ~rng () in
    let ch =
      Channel.create ~zero_copy_send:true ~copy_on_recv:true
        ~enter_io
        ~model ?overload:plane ~meter ~session ~stack ~conn ()
    in
    channels := ch :: !channels;
    ignore (Channel.start_handshake ch);
    ch
  in
  let poll () =
    if Compartment.domain_alive io then begin
      Tracer.enter tracer Tracer.Stack;
      Stack.poll stack;
      Tracer.leave tracer;
      List.iter
        (fun ch ->
          Tracer.enter tracer Tracer.L5;
          if Channel.io_pump ch then Compartment.charge_crossing world;
          Tracer.leave tracer)
        !channels;
      List.iter
        (fun ch ->
          Tracer.enter tracer Tracer.Tls;
          Channel.app_pump ch;
          Tracer.leave tracer)
        !channels
    end
  in
  { meter; driver; stack; world; plane; connect; poll }
