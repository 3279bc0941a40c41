(* The benchmark's workloads. A session is one freshly set-up program
   (unit, peer and host, or driver and host model); a block of seeded
   inputs pushed through it is one round, timed on its own and checked
   output by output. Sessions fed the same blocks in the same order are
   the same simulation, so each round's simulated quantities ([det])
   repeat exactly; only host time varies.

   Inputs are generated from the seed before any timing starts, and the
   program's own RNG is seeded from it too: the same seed gives the same
   run. *)

open Cio_util
open Cio_core
open Cio_netsim
module Addr = Cio_frame.Addr
module Driver = Cio_cionet.Driver
module Host_model = Cio_cionet.Host_model
module Ring = Cio_cionet.Ring
module Stack = Cio_tcpip.Stack
module Tcp = Cio_tcpip.Tcp
module Plane = Cio_overload.Plane
module Compartment = Cio_compartment.Compartment

(* --- shapes and inputs ----------------------------------------------------- *)

(* The size of one block of inputs, i.e. of one round. *)
type shape =
  | Echo of { size_lo : int; size_hi : int; msgs : int }
      (** closed loop, [window] messages outstanding, sizes uniform in
          [size_lo, size_hi] *)
  | L2 of { frames : int }  (** driver <-> host model loop-back, bimodal sizes *)
  | Overload of { steps : int }  (** open loop at 4x the host's service rate *)

type inputs =
  | Echo_in of bytes array
  | L2_in of bytes array array  (** bursts of frames *)
  | Overload_in of { arrivals : int array; payloads : bytes array }

let window = 4

(* E22's saturation point: a host serving one frame per poll carries 500
   one-segment messages per 1000 steps. Offering 2000 is 4x. *)
let overload_offered_per_mille = 2_000
let overload_msg_size = 1_024

let random_bytes st n = Bytes.init n (fun _ -> Char.chr (Random.State.int st 256))

let generate shape ~seed ~block =
  let st = Random.State.make [| seed; block; 0x70657266 |] in
  match shape with
  | Echo { size_lo; size_hi; msgs } ->
      Echo_in
        (Array.init msgs (fun _ ->
             random_bytes st (size_lo + Random.State.int st (size_hi - size_lo + 1))))
  | L2 { frames } ->
      (* Acks of 60-100 B and full frames of 1400-1514 B, in bursts of
         1-32 frames. *)
      let frame () =
        if Random.State.int st 100 < 40 then random_bytes st (60 + Random.State.int st 41)
        else random_bytes st (1_400 + Random.State.int st 115)
      in
      let rec bursts left acc =
        if left = 0 then Array.of_list (List.rev acc)
        else
          let d = min left (1 + Random.State.int st 32) in
          bursts (left - d) (Array.init d (fun _ -> frame ()) :: acc)
      in
      L2_in (bursts frames [])
  | Overload { steps } ->
      (* Binomial arrivals: 8 coin flips per step at p = rate / 8000 give
         the offered mean with a seeded spread. *)
      let arrivals =
        Array.init steps (fun _ ->
            let n = ref 0 in
            for _ = 1 to 8 do
              if Random.State.int st 8_000 < overload_offered_per_mille then incr n
            done;
            !n)
      in
      let offered = Array.fold_left ( + ) 0 arrivals in
      Overload_in
        { arrivals; payloads = Array.init offered (fun _ -> random_bytes st overload_msg_size) }

(* --- one round's results --------------------------------------------------- *)

type round = {
  wall_ns : int;  (** measured phase *)
  attempted : int;
  ok : int;  (** ops completed with a correct outcome *)
  errors : string list;  (** correctness violations, empty when all is well *)
  lat_ns : int array;  (** host latency of each verified op *)
  rtt_ns : int array;  (** simulated round trip of each verified op *)
  words : float;  (** minor words allocated in the measured phase *)
  det : (string * float) list;
      (** simulated quantities: identical in every round of the same block *)
}

let now_ns = Tracer.now_ns
let det_get r k = try List.assoc k r.det with Not_found -> 0.

let cost_det ~ops ~before ~after =
  let d = Cost.diff ~before ~after in
  let per c = float_of_int (Cost.cycles_of d c) /. float_of_int ops in
  [
    ("sim_cycles_per_op", float_of_int (Cost.total d) /. float_of_int ops);
    ("cost.crypto.cycles_per_op", per Cost.Crypto);
    ("cost.gate.cycles_per_op", per Cost.Gate);
    ("cost.copy.cycles_per_op", per Cost.Copy);
    ("cost.stack.cycles_per_op", per Cost.Stack);
    ("cost.ring.cycles_per_op", per Cost.Ring);
  ]

(* Ring counters of one driver, as a snapshot to diff against. *)
let ring_snap driver =
  let c r = Ring.counters r in
  let tx = c (Driver.tx_ring driver) and rx = c (Driver.rx_ring driver) in
  [|
    tx.Ring.full_misses; tx.Ring.empty_polls; rx.Ring.full_misses; rx.Ring.empty_polls;
    tx.Ring.len_clamped + rx.Ring.len_clamped;
    tx.Ring.index_masked + rx.Ring.index_masked;
    tx.Ring.state_skipped + rx.Ring.state_skipped;
  |]

let ring_det ~before ~after =
  let d i = float_of_int (after.(i) - before.(i)) in
  [
    ("ring.tx.full_misses", d 0);
    ("ring.tx.empty_polls", d 1);
    ("ring.rx.full_misses", d 2);
    ("ring.rx.empty_polls", d 3);
  ]

(* An honest host never makes the ring clamp a length, mask an index or
   skip a slot in a bad state. *)
let ring_errors driver =
  let s = ring_snap driver in
  List.filter_map
    (fun (i, what) -> if s.(i) <> 0 then Some (Printf.sprintf "ring.%s = %d" what s.(i)) else None)
    [ (4, "len_clamped"); (5, "index_masked"); (6, "state_skipped") ]

let pool_snap driver =
  let s = Cio_mem.Bufpool.stats (Driver.pool driver) in
  (s.Cio_mem.Bufpool.fresh, s.Cio_mem.Bufpool.reused)

let reuse_ratio (f0, r0) (f1, r1) =
  let fresh = f1 - f0 and reused = r1 - r0 in
  if fresh + reused = 0 then 0. else float_of_int reused /. float_of_int (fresh + reused)

let driver_det driver ~ops ~frames0 ~ring0 ~pool0 =
  let frames = Driver.tx_frames driver + Driver.rx_frames driver in
  let events = List.length (Cio_mem.Region.events (Driver.region driver)) in
  [
    ("driver.frames_per_op", float_of_int (frames - frames0) /. float_of_int ops);
    ("bufpool.reuse_ratio", reuse_ratio pool0 (pool_snap driver));
    (* Per frame crossing either ring, over the region's lifetime: the
       log is never cleared. *)
    ("region.log_events_per_frame", float_of_int events /. float_of_int (max 1 frames));
    ("tx_frames", float_of_int (Driver.tx_frames driver));
    ("rx_frames", float_of_int (Driver.rx_frames driver));
  ]
  @ ring_det ~before:ring0 ~after:(ring_snap driver)

(* --- the simulated network topology (echo and overload) -------------------- *)

let ip_tee = Addr.ipv4_of_octets 10 0 0 1
let ip_peer = Addr.ipv4_of_octets 10 0 0 2
let mac_tee = Addr.mac_of_octets 2 0 0 0 0 1
let mac_peer = Addr.mac_of_octets 2 0 0 0 0 2
let port = 443
let psk = Bytes.of_string "attestation-provisioned-psk-32b!"
let psk_id = "perfbench"

(* E22's admission tuning: 0.5 admits per 10 us step, the host's
   service rate. *)
let plane_config ~deadline_steps ~quantum_ns =
  {
    Plane.default_config with
    Plane.admit_rate_per_sec = 50_000;
    admit_burst = 8;
    queue_limit = 64;
    deadline_budget_ns = Int64.mul (Int64.of_int deadline_steps) quantum_ns;
  }

type topo = {
  engine : Engine.t;
  link : Link.t;
  tee : Tee.t;
  host : Host_model.t;
  peer : Peer.t;
  ch : Channel.t;
  quantum_ns : int64;
  tracer : Tracer.t;
}

let pump tp =
  let tr = tp.tracer in
  tp.tee.Tee.poll ();
  Tracer.enter tr Tracer.Host_model;
  Host_model.poll tp.host;
  Tracer.leave tr;
  Tracer.enter tr Tracer.Peer;
  Peer.poll tp.peer;
  Tracer.leave tr;
  Tracer.enter tr Tracer.Netsim;
  Engine.advance tp.engine ~by:tp.quantum_ns;
  Tracer.leave tr

(* Builds the topology and completes the PSK handshake; [None] when the
   channel does not establish. [quota] applies after the handshake. *)
let setup ~tracer ~traced ~seed ~latency_ns ~quantum_ns ?overload ?quota () =
  let engine = Engine.create () in
  let link = Link.create ~latency_ns ~gbps:10.0 engine in
  let rng = Rng.create (Int64.of_int seed) in
  let now () = Engine.now engine in
  let peer =
    Peer.create ~link ~endpoint:Link.B ~ip:ip_peer ~mac:mac_peer
      ~neighbors:[ (ip_tee, mac_tee) ] ~psk ~psk_id ~rng:(Rng.split rng) ~now ()
  in
  Peer.serve_echo peer ~port;
  let neighbors = [ (ip_peer, mac_peer) ] in
  let rng = Rng.split rng in
  let tee =
    if traced then
      Tee.assemble ~tracer ?overload ~mac:mac_tee ~name:"perfbench-tee" ~ip:ip_tee ~neighbors ~psk
        ~psk_id ~rng ~now ()
    else
      Tee.dual ?overload ~mac:mac_tee ~name:"perfbench-tee" ~ip:ip_tee ~neighbors ~psk ~psk_id ~rng
        ~now ()
  in
  let host =
    Host_model.create ~driver:tee.Tee.driver ~transmit:(fun f -> Link.send link ~src:Link.A f)
  in
  Link.attach link Link.A (fun f ->
      Tracer.enter tracer Tracer.Host_model;
      Host_model.deliver_rx host f;
      Tracer.leave tracer);
  let ch = tee.Tee.connect ~dst:ip_peer ~dst_port:port in
  let tp = { engine; link; tee; host; peer; ch; quantum_ns; tracer } in
  let steps = ref 0 in
  while (not (Channel.is_established ch)) && !steps < 10_000 do
    incr steps;
    pump tp
  done;
  Host_model.set_service_quota host quota;
  if Channel.is_established ch then Some tp else None

(* Counters of the unit's stack and link, snapshotted around the measured
   phase. *)
let net_snap tp =
  let tcp = Stack.tcp tp.tee.Tee.stack in
  [|
    Tcp.segments_in tcp; Tcp.segments_out tcp; Tcp.retransmits tcp;
    Link.bytes_sent tp.link ~src:Link.A + Link.bytes_sent tp.link ~src:Link.B;
    (Compartment.counters tp.tee.Tee.world).Compartment.crossings;
  |]

let net_det tp ~ops ~app_bytes ~before =
  let after = net_snap tp in
  let d i = float_of_int (after.(i) - before.(i)) in
  let seg_out = d 1 in
  [
    ("tcp.segments_per_op", (d 0 +. seg_out) /. float_of_int ops);
    ("tcp.retransmit_ratio", if seg_out = 0. then 0. else d 2 /. seg_out);
    ("link.wire_bytes_per_app_byte", d 3 /. float_of_int app_bytes);
    ("compartment.crossings_per_op", d 4 /. float_of_int ops);
  ]

(* Everything about the topology's measured phase that the simulation
   fixes: cycles by category, counters, virtual end time. *)
let topo_det tp ~ops ~app_bytes ~steps ~backlog_max ~meter0 ~net0 ~frames0 ~ring0 ~pool0 =
  let driver = tp.tee.Tee.driver in
  cost_det ~ops ~before:meter0 ~after:(Cost.snapshot tp.tee.Tee.meter)
  @ net_det tp ~ops ~app_bytes ~before:net0
  @ driver_det driver ~ops ~frames0 ~ring0 ~pool0
  @ [
      ("sim.steps_per_op", float_of_int steps /. float_of_int ops);
      ("stack.tx_backlog_max", float_of_int backlog_max);
      ("host_model.rx_dropped", float_of_int (Host_model.stats tp.host).Host_model.rx_dropped);
      ("end_vtime_ns", Int64.to_float (Engine.now tp.engine));
    ]

let stack_errors tp =
  let c = Stack.counters tp.tee.Tee.stack in
  if c.Stack.dropped = 0 then []
  else [ Printf.sprintf "stack.dropped = %d (%s)" c.Stack.dropped c.Stack.last_drop_reason ]

type measure = {
  m_meter0 : Cost.meter;
  m_net0 : int array;
  m_frames0 : int;
  m_ring0 : int array;
  m_pool0 : int * int;
  m_words0 : float;
  m_t0 : int;
}

let start_measure tp =
  let driver = tp.tee.Tee.driver in
  let m_meter0 = Cost.snapshot tp.tee.Tee.meter in
  let m_net0 = net_snap tp in
  let m_ring0 = ring_snap driver in
  let m_pool0 = pool_snap driver in
  let m_frames0 = Driver.tx_frames driver + Driver.rx_frames driver in
  let m_words0 = Gc.minor_words () in
  { m_meter0; m_net0; m_frames0; m_ring0; m_pool0; m_words0; m_t0 = now_ns () }

(* --- echo-*: closed loop over the full dual-boundary unit ------------------- *)

let echo_latency_ns = 10_000L
let echo_quantum_ns = 2_000L

let echo_setup ~tracer ~traced ~seed =
  setup ~tracer ~traced ~seed ~latency_ns:echo_latency_ns ~quantum_ns:echo_quantum_ns ()

let echo_block ~traced tp msgs =
  let tracer = tp.tracer in
  let n = Array.length msgs in
  let sent_ns = Array.make n 0 and sent_v = Array.make n 0L in
  let lat = Array.make n 0 and rtt = Array.make n 0 in
  let next = ref 0 and done_ = ref 0 and bad = ref 0 in
  let steps = ref 0 and backlog_max = ref 0 in
  let max_steps = 10_000 + (2_000 * n) in
  let app_bytes = 2 * Array.fold_left (fun a m -> a + Bytes.length m) 0 msgs in
  let errors = ref [] in
  let m = start_measure tp in
  tracer.Tracer.on <- traced;
  while !done_ + !bad < n && !steps < max_steps do
    while !next < n && !next - !done_ - !bad < window do
      let i = !next in
      sent_ns.(i) <- now_ns ();
      sent_v.(i) <- Engine.now tp.engine;
      Tracer.enter tracer Tracer.Tls;
      let r = Channel.send tp.ch msgs.(i) in
      Tracer.leave tracer;
      if r <> Ok () then begin
        incr bad;
        errors := Printf.sprintf "send %d refused" i :: !errors
      end;
      incr next
    done;
    tracer.Tracer.op <- !done_ + !bad;
    pump tp;
    incr steps;
    backlog_max := max !backlog_max (Stack.tx_backlog tp.tee.Tee.stack);
    let rec harvest () =
      match Channel.recv tp.ch with
      | None -> ()
      | Some reply ->
          let i = !done_ + !bad in
          if i < n && Bytes.equal reply msgs.(i) then begin
            lat.(!done_) <- now_ns () - sent_ns.(i);
            rtt.(!done_) <- Int64.to_int (Int64.sub (Engine.now tp.engine) sent_v.(i));
            incr done_
          end
          else begin
            incr bad;
            errors := Printf.sprintf "echo %d differs from its input" i :: !errors
          end;
          harvest ()
    in
    harvest ()
  done;
  let wall_ns = now_ns () - m.m_t0 in
  tracer.Tracer.on <- false;
  let words = Gc.minor_words () -. m.m_words0 in
  let ok = !done_ in
  if ok + !bad < n then errors := Printf.sprintf "%d echoes missing" (n - ok - !bad) :: !errors;
  let rtt_ns = Array.sub rtt 0 ok in
  {
    wall_ns;
    attempted = n;
    ok;
    errors = List.rev !errors @ ring_errors tp.tee.Tee.driver @ stack_errors tp;
    lat_ns = Array.sub lat 0 ok;
    rtt_ns;
    words;
    det =
      topo_det tp ~ops:n ~app_bytes ~steps:!steps ~backlog_max:!backlog_max
        ~meter0:m.m_meter0 ~net0:m.m_net0 ~frames0:m.m_frames0 ~ring0:m.m_ring0
        ~pool0:m.m_pool0
      @ [ ("goodput_ratio", float_of_int ok /. float_of_int n) ];
  }

(* --- overload-4x: E22's open loop over a slow host, plane on --------------- *)

let overload_latency_ns = 5_000L
let overload_quantum_ns = 10_000L
let deadline_steps = 64
let gen_queue_limit = 16
let drain_steps = 20_000

let overload_setup ~tracer ~traced ~seed =
  setup ~tracer ~traced ~seed ~latency_ns:overload_latency_ns ~quantum_ns:overload_quantum_ns
    ~overload:(plane_config ~deadline_steps ~quantum_ns:overload_quantum_ns)
    ~quota:1 ()

(* An offered message ends in exactly one correct outcome: echoed within
   the deadline, echoed late, shed at the source (generator queue full)
   or shed by the plane at the crossing (deadline blown). A corrupted,
   lost or duplicated echo is a failure. Each block ends by draining what
   is still queued or in flight, with no new arrivals. *)
let overload_block ~traced tp ~arrivals ~payloads =
  let tracer = tp.tracer in
  let offered = Array.length payloads in
  let steps = Array.length arrivals in
  let plane = Option.get tp.tee.Tee.plane in
  let total_steps = steps + drain_steps in
  let step_ns = Array.make (total_steps + 1) 0 and step_v = Array.make (total_steps + 1) 0L in
  let lat = Array.make offered 0 and rtt = Array.make offered 0 in
  let genq = Queue.create () and inflight = Queue.create () in
  let next = ref 0 and echoed = ref 0 and timely = ref 0 and shed = ref 0 and bad = ref 0 in
  let errors = ref [] in
  let backlog_max = ref 0 in
  let step = ref 0 in
  let admitted0 = Plane.admitted plane and dshed0 = Plane.deadline_shed plane in
  let app_bytes = ref 0 in
  let m = start_measure tp in
  tracer.Tracer.on <- traced;
  while
    !step < steps
    || ((not (Queue.is_empty genq)) || not (Queue.is_empty inflight))
       && !step < total_steps
  do
    incr step;
    let s = !step in
    step_ns.(s) <- now_ns ();
    step_v.(s) <- Engine.now tp.engine;
    if s <= steps then
      for _ = 1 to arrivals.(s - 1) do
        let seq = !next in
        incr next;
        if Queue.length genq >= gen_queue_limit then incr shed
        else Queue.add (seq, s, Plane.deadline plane) genq
      done;
    let continue_ = ref true in
    while !continue_ && not (Queue.is_empty genq) do
      let seq, birth, deadline = Queue.peek genq in
      tracer.Tracer.op <- seq;
      let outcome =
        if traced then begin
          (* [Channel.send_admitted] taken apart so the admission
             decision and the sealing land in their own layers. *)
          Tracer.enter tracer Tracer.Overload;
          let d = Plane.admit ~deadline plane Cio_overload.Admission.Interactive in
          Tracer.leave tracer;
          match d with
          | Cio_overload.Pressure.Backpressure reason -> Channel.Shed reason
          | Cio_overload.Pressure.Accepted -> (
              Tracer.enter tracer Tracer.Tls;
              let r = Channel.send tp.ch payloads.(seq) in
              Tracer.leave tracer;
              match r with Ok () -> Channel.Sent | Error e -> Channel.Send_error e)
        end
        else
          Channel.send_admitted ~klass:Cio_overload.Admission.Interactive ~deadline tp.ch
            payloads.(seq)
      in
      match outcome with
      | Channel.Sent ->
          ignore (Queue.pop genq);
          Queue.add (seq, birth) inflight
      | Channel.Shed Cio_overload.Pressure.Deadline ->
          ignore (Queue.pop genq);
          incr shed
      | Channel.Shed _ -> continue_ := false
      | Channel.Send_error _ ->
          ignore (Queue.pop genq);
          incr bad;
          errors := Printf.sprintf "send %d failed" seq :: !errors
    done;
    pump tp;
    backlog_max := max !backlog_max (Stack.tx_backlog tp.tee.Tee.stack);
    let rec harvest () =
      match Channel.recv tp.ch with
      | None -> ()
      | Some reply ->
          (match Queue.take_opt inflight with
          | Some (seq, birth) when Bytes.equal reply payloads.(seq) ->
              lat.(!echoed) <- now_ns () - step_ns.(birth);
              rtt.(!echoed) <- Int64.to_int (Int64.sub (Engine.now tp.engine) step_v.(birth));
              app_bytes := !app_bytes + (2 * Bytes.length reply);
              incr echoed;
              if s - birth <= deadline_steps then incr timely
          | Some (seq, _) ->
              incr bad;
              errors := Printf.sprintf "echo %d differs from its input" seq :: !errors
          | None ->
              incr bad;
              errors := "echo with nothing in flight" :: !errors);
          harvest ()
    in
    harvest ()
  done;
  let wall_ns = now_ns () - m.m_t0 in
  tracer.Tracer.on <- false;
  let words = Gc.minor_words () -. m.m_words0 in
  let lost = Queue.length genq + Queue.length inflight in
  if lost > 0 then errors := Printf.sprintf "%d messages never resolved" lost :: !errors;
  let ok = !echoed + !shed in
  if ok + !bad + lost <> offered then
    errors := Printf.sprintf "outcomes %d <> offered %d" (ok + !bad + lost) offered :: !errors;
  let rtt_ns = Array.sub rtt 0 !echoed in
  {
    wall_ns;
    attempted = offered;
    ok;
    errors = List.rev !errors @ ring_errors tp.tee.Tee.driver;
    lat_ns = Array.sub lat 0 !echoed;
    rtt_ns;
    words;
    det =
      topo_det tp ~ops:offered ~app_bytes:(max 1 !app_bytes) ~steps:!step
        ~backlog_max:!backlog_max ~meter0:m.m_meter0 ~net0:m.m_net0 ~frames0:m.m_frames0
        ~ring0:m.m_ring0 ~pool0:m.m_pool0
      @ [
          ("goodput_ratio", float_of_int !timely /. float_of_int offered);
          ( "overload.admit_ratio",
            float_of_int (Plane.admitted plane - admitted0) /. float_of_int offered );
          ("overload.deadline_shed", float_of_int (Plane.deadline_shed plane - dshed0));
          ("stack.dropped", float_of_int (Stack.counters tp.tee.Tee.stack).Stack.dropped);
        ];
  }

(* --- l2-mixed: the cionet driver and host model alone ---------------------- *)

(* A driver and a host model that loops every transmitted frame back
   into the driver's RX ring. *)
let l2_setup ~tracer =
  let meter = Cost.meter () in
  let driver =
    Driver.create ~model:Cost.default ~meter ~name:"perfbench-l2" Cio_cionet.Config.default
  in
  let self = ref None in
  let host =
    Host_model.create ~driver ~transmit:(fun f ->
        match !self with
        | Some h ->
            Tracer.enter tracer Tracer.Host_model;
            Host_model.deliver_rx h f;
            Tracer.leave tracer
        | None -> ())
  in
  self := Some host;
  (meter, driver, host)

(* With no wire and no engine, a frame's simulated round trip is the
   modelled time of the TEE and host work on its burst: guest TX,
   host drain and refill, guest RX. *)
let l2_block ~tracer ~traced (meter, driver, host) bursts =
  let n = Array.fold_left (fun a b -> a + Array.length b) 0 bursts in
  let model = Cost.default in
  let host_meter = Driver.host_meter driver in
  let lat = Array.make n 0 and rtt = Array.make n 0 in
  let done_ = ref 0 and bad = ref 0 in
  let errors = ref [] in
  let meter0 = Cost.snapshot meter in
  let ring0 = ring_snap driver and pool0 = pool_snap driver in
  let frames0 = Driver.tx_frames driver + Driver.rx_frames driver in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  tracer.Tracer.on <- traced;
  Array.iter
    (fun frames ->
      let d = Array.length frames in
      tracer.Tracer.op <- !done_ + !bad;
      let c0 = Cost.total meter + Cost.total host_meter in
      let first = !done_ in
      let t = now_ns () in
      Tracer.enter tracer Tracer.Driver;
      let sent = Driver.transmit_burst driver frames in
      Tracer.leave tracer;
      Tracer.enter tracer Tracer.Host_model;
      Host_model.poll host;
      Tracer.leave tracer;
      let got = ref 0 and polls = ref 0 in
      while !got < sent && !polls < 4 do
        incr polls;
        Tracer.enter tracer Tracer.Driver;
        let rx = Driver.poll_burst ~max:64 driver in
        Tracer.leave tracer;
        List.iter
          (fun f ->
            if !got < d && Bytes.equal f frames.(!got) then begin
              lat.(!done_) <- now_ns () - t;
              incr done_
            end
            else begin
              incr bad;
              errors := Printf.sprintf "frame %d differs from its input" (!done_ + !bad) :: !errors
            end;
            incr got;
            Tracer.enter tracer Tracer.Driver;
            Driver.recycle driver f;
            Tracer.leave tracer)
          rx
      done;
      let burst_ns =
        int_of_float
          (Cost.nanoseconds model (Cost.total meter + Cost.total host_meter - c0))
      in
      Array.fill rtt first (!done_ - first) burst_ns;
      if !got < d then begin
        bad := !bad + (d - !got);
        errors := Printf.sprintf "%d frames of a burst lost" (d - !got) :: !errors
      end)
    bursts;
  let wall_ns = now_ns () - t0 in
  tracer.Tracer.on <- false;
  let words = Gc.minor_words () -. w0 in
  let ok = !done_ in
  let rtt_ns = Array.sub rtt 0 ok in
  {
    wall_ns;
    attempted = n;
    ok;
    errors = List.rev !errors @ ring_errors driver;
    lat_ns = Array.sub lat 0 ok;
    rtt_ns;
    words;
    det =
      cost_det ~ops:n ~before:meter0 ~after:(Cost.snapshot meter)
      @ driver_det driver ~ops:n ~frames0 ~ring0 ~pool0
      @ [
          ("sim.steps_per_op", float_of_int (Array.length bursts) /. float_of_int n);
          ("host_model.rx_dropped", float_of_int (Host_model.stats host).Host_model.rx_dropped);
          ("goodput_ratio", float_of_int ok /. float_of_int n);
        ];
  }

(* --- sessions: one set-up, then blocks of inputs through it ---------------- *)

type session = Topo of topo | L2_unit of (Cost.meter * Driver.t * Host_model.t)

(* Sets up the program [inputs] are for; [None] when the channel does not
   establish. *)
let open_session ~tracer ~traced ~seed inputs =
  match inputs with
  | Echo_in _ -> Option.map (fun tp -> Topo tp) (echo_setup ~tracer ~traced ~seed)
  | Overload_in _ -> Option.map (fun tp -> Topo tp) (overload_setup ~tracer ~traced ~seed)
  | L2_in _ -> Some (L2_unit (l2_setup ~tracer))

let block ~tracer ~traced session inputs =
  match (session, inputs) with
  | Topo tp, Echo_in msgs -> echo_block ~traced tp msgs
  | Topo tp, Overload_in { arrivals; payloads } -> overload_block ~traced tp ~arrivals ~payloads
  | L2_unit u, L2_in bursts -> l2_block ~tracer ~traced u bursts
  | _ -> invalid_arg "Workloads.block: inputs do not fit the session"
