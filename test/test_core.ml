(* Integration tests: the dual-boundary unit end to end, the five Figure-5
   configurations, and the orderings the paper predicts. *)

open Cio_util
open Cio_core
module C = Configurations

let run_quick kind = C.run_echo ~messages:10 ~msg_size:512 kind

let test_all_configurations_complete () =
  List.iter
    (fun kind ->
      let m = run_quick kind in
      Alcotest.(check bool) (C.kind_name kind ^ " completes") true m.C.completed;
      Alcotest.(check int) (C.kind_name kind ^ " echo count") 10 m.C.messages)
    C.all_kinds

let test_dual_fastest_per_byte () =
  (* The headline performance claim: the dual boundary preserves (here:
     beats, thanks to polling) passthrough-class performance. *)
  let dual = run_quick C.Dual_boundary and pass = run_quick C.Passthrough_l2 in
  Alcotest.(check bool) "dual <= passthrough cycles/byte" true
    (C.cycles_per_byte dual <= C.cycles_per_byte pass)

let test_hardening_tax_visible () =
  let unh = run_quick C.Passthrough_l2 and hard = run_quick C.Hardened_virtio in
  Alcotest.(check bool) "hardened costs more than unhardened" true
    (Cost.total hard.C.guest > Cost.total unh.C.guest)

let test_syscall_slowest_of_tcp_designs () =
  let sys = run_quick C.Syscall_l5 and pass = run_quick C.Passthrough_l2 in
  Alcotest.(check bool) "syscall >= passthrough cycles/byte" true
    (C.cycles_per_byte sys >= C.cycles_per_byte pass)

let test_observability_ordering () =
  (* Figure 5's Obs axis: syscall > raw L2 designs > dual >= tunneled,
     with tunneled strictly the lowest. *)
  let score k = Cio_observe.Observe.score (run_quick k).C.tap in
  let sys = score C.Syscall_l5
  and pass = score C.Passthrough_l2
  and dual = score C.Dual_boundary
  and tun = score C.Tunneled in
  Alcotest.(check bool) "syscall > passthrough" true (sys > pass);
  Alcotest.(check bool) "passthrough > dual (no doorbells)" true (pass > dual);
  Alcotest.(check bool) "dual > tunneled" true (dual > tun)

let test_tcb_ordering () =
  let dual = run_quick C.Dual_boundary and pass = run_quick C.Passthrough_l2 in
  Alcotest.(check bool) "dual core TCB < passthrough core TCB" true
    (dual.C.tcb_core_loc < pass.C.tcb_core_loc);
  Alcotest.(check bool) "dual quarantines the stack" true (dual.C.tcb_quarantined_loc > 0);
  Alcotest.(check int) "single-boundary designs quarantine nothing" 0 pass.C.tcb_quarantined_loc

let test_dual_crossings_bounded () =
  let m = run_quick C.Dual_boundary in
  (* Handoff crossings scale with traffic, not with polling time. *)
  Alcotest.(check bool) "crossings > 0" true (m.C.crossings > 0);
  Alcotest.(check bool) "crossings bounded by a small multiple of messages" true
    (m.C.crossings < 20 * m.C.messages)

let test_tunnel_uniform_sizes () =
  let m = run_quick C.Tunneled in
  let sizes =
    List.filter_map
      (fun e ->
        if e.Cio_observe.Observe.size > 0 then Some e.Cio_observe.Observe.size else None)
      (Cio_observe.Observe.events m.C.tap)
  in
  let distinct = List.sort_uniq compare sizes in
  Alcotest.(check bool) "at most two distinct sizes on the wire" true
    (List.length distinct <= 2)

let test_deterministic_runs () =
  let a = C.run_echo ~seed:77L ~messages:5 C.Dual_boundary in
  let b = C.run_echo ~seed:77L ~messages:5 C.Dual_boundary in
  Alcotest.(check int) "same total cycles" (Cost.total a.C.guest) (Cost.total b.C.guest);
  Alcotest.(check int64) "same sim time" a.C.sim_ns b.C.sim_ns

let test_message_sizes_sweep () =
  List.iter
    (fun size ->
      let m = C.run_echo ~messages:5 ~msg_size:size C.Dual_boundary in
      Alcotest.(check bool) (Printf.sprintf "size %d completes" size) true m.C.completed)
    [ 16; 256; 1400; 4096; 16000 ]

let test_tunnel_codec_roundtrip () =
  let key = Bytes.make 32 'T' in
  let frame = Bytes.of_string "an ethernet frame, say" in
  let blob = Tunnel.seal ~key ~pad_to:1600 frame in
  Alcotest.(check bool) "padded" true (Bytes.length blob >= 1590);
  (match Tunnel.open_ ~key blob with
  | Some back -> Helpers.check_bytes "roundtrip" frame back
  | None -> Alcotest.fail "tunnel open failed");
  (* Tampered blob rejected. *)
  Bytes.set blob 40 '\x00';
  Alcotest.(check bool) "tamper rejected" true (Tunnel.open_ ~key blob = None)

let test_tunnel_uniform_padding () =
  let key = Bytes.make 32 'T' in
  let small = Tunnel.seal ~key ~pad_to:1600 (Bytes.of_string "a") in
  let large = Tunnel.seal ~key ~pad_to:1600 (Bytes.make 1400 'z') in
  Alcotest.(check int) "size-independent" (Bytes.length small) (Bytes.length large)

(* --- dual unit as a library (not through the harness) ----------------- *)

let test_dual_unit_echo_direct () =
  let open Cio_netsim in
  let engine = Engine.create () in
  let link = Link.create ~latency_ns:5_000L ~gbps:10.0 engine in
  let rng = Rng.create 3L in
  let now () = Engine.now engine in
  let psk = Bytes.of_string "direct-dual-test-psk-32-bytes-x." in
  let peer =
    Peer.create ~link ~endpoint:Link.B ~ip:Helpers.ip_b ~mac:Helpers.mac_b
      ~neighbors:[ (Helpers.ip_a, Helpers.mac_a) ] ~psk ~psk_id:"d" ~rng:(Rng.split rng) ~now ()
  in
  Peer.serve_echo peer ~port:4433;
  let unit_ =
    Dual.create ~mac:Helpers.mac_a ~name:"direct" ~ip:Helpers.ip_a
      ~neighbors:[ (Helpers.ip_b, Helpers.mac_b) ] ~psk ~psk_id:"d" ~rng:(Rng.split rng) ~now ()
  in
  let host =
    Cio_cionet.Host_model.create ~driver:(Dual.driver unit_)
      ~transmit:(fun f -> Link.send link ~src:Link.A f)
  in
  Link.attach link Link.A (fun f -> Cio_cionet.Host_model.deliver_rx host f);
  let ch = Dual.connect unit_ ~dst:Helpers.ip_b ~dst_port:4433 in
  let pump () =
    Dual.poll unit_;
    Cio_cionet.Host_model.poll host;
    Peer.poll peer;
    Engine.advance engine ~by:2_000L
  in
  let rec until pred n = pred () || (n > 0 && (pump (); until pred (n - 1))) in
  Alcotest.(check bool) "established" true (until (fun () -> Channel.is_established ch) 2000);
  (match Channel.send ch (Bytes.of_string "dual-echo") with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Cio_tls.Session.error_to_string e));
  let got = ref None in
  Alcotest.(check bool) "echo received" true
    (until
       (fun () ->
         (match Channel.recv ch with Some m -> got := Some m | None -> ());
         !got <> None)
       2000);
  Helpers.check_bytes "echo content" (Bytes.of_string "dual-echo") (Option.get !got);
  (* The dual unit's confidentiality invariant: every frame the host saw
     is ciphertext — the plaintext never appears on the shared region. *)
  Alcotest.(check bool) "gate crossings happened" true (Dual.crossings unit_ > 0)

let test_dual_echo_steady_state_zero_alloc () =
  (* The allocation-free acceptance bar: once the pool is warm, a dual-
     boundary TLS echo performs zero fresh Bytes allocations per frame on
     the L2 path (RX consume buffers and TX pad staging all recycle). *)
  let open Cio_netsim in
  let engine = Engine.create () in
  let link = Link.create ~latency_ns:5_000L ~gbps:10.0 engine in
  let rng = Rng.create 11L in
  let now () = Engine.now engine in
  let psk = Bytes.of_string "steady-state-echo-psk-32-bytes-x" in
  let peer =
    Peer.create ~link ~endpoint:Link.B ~ip:Helpers.ip_b ~mac:Helpers.mac_b
      ~neighbors:[ (Helpers.ip_a, Helpers.mac_a) ] ~psk ~psk_id:"s" ~rng:(Rng.split rng) ~now ()
  in
  Peer.serve_echo peer ~port:4433;
  let unit_ =
    Dual.create ~mac:Helpers.mac_a ~name:"steady" ~ip:Helpers.ip_a
      ~neighbors:[ (Helpers.ip_b, Helpers.mac_b) ] ~psk ~psk_id:"s" ~rng:(Rng.split rng) ~now ()
  in
  let host =
    Cio_cionet.Host_model.create ~driver:(Dual.driver unit_)
      ~transmit:(fun f -> Link.send link ~src:Link.A f)
  in
  Link.attach link Link.A (fun f -> Cio_cionet.Host_model.deliver_rx host f);
  let ch = Dual.connect unit_ ~dst:Helpers.ip_b ~dst_port:4433 in
  let pump () =
    Dual.poll unit_;
    Cio_cionet.Host_model.poll host;
    Peer.poll peer;
    Engine.advance engine ~by:2_000L
  in
  let rec until pred n = pred () || (n > 0 && (pump (); until pred (n - 1))) in
  Alcotest.(check bool) "established" true (until (fun () -> Channel.is_established ch) 2000);
  let msg = Bytes.make 512 'e' in
  let echo () =
    (match Channel.send ch msg with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Cio_tls.Session.error_to_string e));
    let got = ref None in
    if
      not
        (until
           (fun () ->
             (match Channel.recv ch with Some m -> got := Some m | None -> ());
             !got <> None)
           2000)
    then Alcotest.fail "echo lost";
    Helpers.check_bytes "echo content" msg (Option.get !got)
  in
  for _ = 1 to 6 do echo () done;
  let pool = Cio_cionet.Driver.pool (Dual.driver unit_) in
  let fresh0 = (Cio_mem.Bufpool.stats pool).Cio_mem.Bufpool.fresh in
  for _ = 1 to 10 do echo () done;
  Alcotest.(check int) "zero per-frame allocations on the L2 path" fresh0
    (Cio_mem.Bufpool.stats pool).Cio_mem.Bufpool.fresh

let test_tls_record_path_alloc_bounded () =
  (* The record cipher's allocation bar: sealing one 16 KiB record and
     opening it allocates the sealed record and the plaintext as its only
     record-sized buffers, plus a few hundred words of per-record state
     (nonce, header, one-time key, tag, cipher state). No word of the
     cipher may be boxed, and the record body is never copied out of the
     splitter. *)
  let module S = Cio_tls.Session in
  let client, server = Helpers.tls_pair () in
  let payload = Bytes.init Cio_tls.Wire.max_plaintext (fun i -> Char.chr (i land 0xFF)) in
  let roundtrip () =
    match S.send_data client payload with
    | Ok wire -> S.feed server wire
    | Error e -> Alcotest.fail (S.error_to_string e)
  in
  (* Warm-up: the splitter's store grows to one record once. *)
  for _ = 1 to 3 do ignore (roundtrip ()) done;
  let w0 = Gc.minor_words () and b0 = Helpers.allocated_bytes () in
  let r = roundtrip () in
  let words = Gc.minor_words () -. w0 and bytes = Helpers.allocated_bytes () -. b0 in
  Alcotest.(check bool) "payload delivered" true (r.S.err = None && r.S.app_data = [ payload ]);
  Alcotest.(check bool) (Printf.sprintf "minor words %.0f <= 1024" words) true (words <= 1024.);
  Alcotest.(check bool)
    (Printf.sprintf "allocated bytes %.0f < 3 x 16 KiB" bytes)
    true
    (bytes < float_of_int (3 * 16384))

let test_channel_record_size_limit () =
  (* The largest payload one record carries crosses a Channel intact; one
     byte more is refused at the sender, instead of sealing a record the
     receiver's splitter rejects (or, past 64 KiB, whose 16-bit length
     field silently wraps). *)
  let pair, client_conn, server_conn = Helpers.connected_pair () in
  let channel role stack conn =
    let session =
      Cio_tls.Session.create ~role ~psk:(Bytes.make 32 'p') ~psk_id:"t" ~rng:(Rng.create 5L) ()
    in
    Channel.create ~meter:(Cost.meter ()) ~session ~stack ~conn ()
  in
  let c = channel Cio_tls.Session.Client pair.Helpers.stack_a client_conn in
  let s = channel Cio_tls.Session.Server pair.Helpers.stack_b server_conn in
  let pumped pred () =
    Channel.pump c;
    Channel.pump s;
    pred ()
  in
  ignore (Channel.start_handshake c);
  Alcotest.(check bool) "established" true
    (Helpers.run_until pair
       (pumped (fun () -> Channel.is_established c && Channel.is_established s)));
  let largest = Bytes.make Cio_tls.Wire.max_plaintext 'm' in
  (match Channel.send c largest with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Cio_tls.Session.error_to_string e));
  let got = ref None in
  Alcotest.(check bool) "delivered" true
    (Helpers.run_until pair
       (pumped (fun () ->
            (match Channel.recv s with Some m -> got := Some m | None -> ());
            !got <> None)));
  Helpers.check_bytes "16384 B round trip" largest (Option.get !got);
  match Channel.send c (Bytes.make (Cio_tls.Wire.max_plaintext + 1) 'm') with
  | Error (Cio_tls.Session.Payload_too_large 16385) -> ()
  | Ok () | Error _ -> Alcotest.fail "16385 B must be refused"

let test_channel_copy_knobs_change_costs () =
  (* E7 at unit level: zero-copy send saves the L5 crossing copy. *)
  let run ~zc =
    let pair = Helpers.make_stack_pair () in
    let tcp_a = Cio_tcpip.Stack.tcp pair.Helpers.stack_a in
    let tcp_b = Cio_tcpip.Stack.tcp pair.Helpers.stack_b in
    let listener = Cio_tcpip.Tcp.listen tcp_b ~port:5555 () in
    let conn = Cio_tcpip.Tcp.connect tcp_a ~dst:Helpers.ip_b ~dst_port:5555 () in
    let server_conn = ref None in
    ignore
      (Helpers.run_until pair (fun () ->
           (match !server_conn with None -> server_conn := Cio_tcpip.Tcp.accept listener | Some _ -> ());
           Cio_tcpip.Tcp.conn_state conn = Cio_tcpip.Tcp.Established && !server_conn <> None));
    let meter = Cost.meter () in
    let rng = Rng.create 5L in
    let session =
      Cio_tls.Session.create ~meter ~role:Cio_tls.Session.Client
        ~psk:(Bytes.make 32 'p') ~psk_id:"t" ~rng ()
    in
    let ch =
      Channel.create ~zero_copy_send:zc ~copy_on_recv:false ~meter ~session
        ~stack:pair.Helpers.stack_a ~conn ()
    in
    ignore (Channel.start_handshake ch);
    ignore (Channel.send ch (Bytes.make 4096 'd'));
    Channel.pump ch;
    Cost.cycles_of meter Cost.Copy
  in
  let with_copy = run ~zc:false and without_copy = run ~zc:true in
  Alcotest.(check bool) "zero-copy saves cycles" true (without_copy < with_copy)

let suite =
  [
    Alcotest.test_case "all five configurations complete" `Slow test_all_configurations_complete;
    Alcotest.test_case "fig5: dual fastest per byte" `Slow test_dual_fastest_per_byte;
    Alcotest.test_case "fig5: hardening tax" `Slow test_hardening_tax_visible;
    Alcotest.test_case "fig5: syscall slowest TCP design" `Slow test_syscall_slowest_of_tcp_designs;
    Alcotest.test_case "fig5: observability ordering" `Slow test_observability_ordering;
    Alcotest.test_case "fig5: TCB ordering" `Slow test_tcb_ordering;
    Alcotest.test_case "dual: handoff crossings bounded" `Slow test_dual_crossings_bounded;
    Alcotest.test_case "tunnel: uniform wire sizes" `Slow test_tunnel_uniform_sizes;
    Alcotest.test_case "runs are deterministic" `Slow test_deterministic_runs;
    Alcotest.test_case "message size sweep" `Slow test_message_sizes_sweep;
    Alcotest.test_case "tunnel codec roundtrip" `Quick test_tunnel_codec_roundtrip;
    Alcotest.test_case "tunnel uniform padding" `Quick test_tunnel_uniform_padding;
    Alcotest.test_case "dual unit direct echo" `Slow test_dual_unit_echo_direct;
    Alcotest.test_case "dual echo allocation-free in steady state" `Slow
      test_dual_echo_steady_state_zero_alloc;
    Alcotest.test_case "channel copy knobs (E7)" `Quick test_channel_copy_knobs_change_costs;
    Alcotest.test_case "channel: 16384 B round-trips, 16385 B refused" `Quick
      test_channel_record_size_limit;
    Alcotest.test_case "tls record path allocation bounded" `Quick test_tls_record_path_alloc_bounded;
  ]
