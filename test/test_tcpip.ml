(* TCP/IP stack tests over loopback netifs, including adversarial frame
   handling. *)

open Cio_tcpip
module H = Helpers

let test_handshake () =
  let _pair, client, server = H.connected_pair () in
  Alcotest.(check string) "client" "ESTABLISHED" (Tcp.state_name (Tcp.conn_state client));
  Alcotest.(check string) "server" "ESTABLISHED" (Tcp.state_name (Tcp.conn_state server))

let test_small_transfer () =
  let pair, client, server = H.connected_pair () in
  let data = Bytes.of_string "hello over tcp" in
  let got =
    H.transfer pair ~src_tcp:(Stack.tcp pair.H.stack_a) ~src_conn:client
      ~dst_tcp:(Stack.tcp pair.H.stack_b) ~dst_conn:server data
  in
  H.check_bytes "delivered" data got

let test_large_transfer_exceeds_window () =
  let pair, client, server = H.connected_pair () in
  (* 300 KB: far beyond both cwnd and the advertised window, forcing
     many round trips, segmentation and window updates. *)
  let data = Bytes.init 300_000 (fun i -> Char.chr ((i * 31) land 0xFF)) in
  let got =
    H.transfer pair ~src_tcp:(Stack.tcp pair.H.stack_a) ~src_conn:client
      ~dst_tcp:(Stack.tcp pair.H.stack_b) ~dst_conn:server data
  in
  H.check_bytes "byte-exact" data got

let test_bidirectional_transfer () =
  let pair, client, server = H.connected_pair () in
  let a2b = Bytes.make 20_000 'u' and b2a = Bytes.make 15_000 'd' in
  let tcp_a = Stack.tcp pair.H.stack_a and tcp_b = Stack.tcp pair.H.stack_b in
  let sent_a = ref 0 and sent_b = ref 0 in
  let recv_a = Buffer.create 1024 and recv_b = Buffer.create 1024 in
  let done_ () = Buffer.length recv_b >= 20_000 && Buffer.length recv_a >= 15_000 in
  let ok =
    H.run_until pair (fun () ->
        if !sent_a < 20_000 then begin
          sent_a := !sent_a + Tcp.send tcp_a client (Bytes.sub a2b !sent_a (min 4096 (20_000 - !sent_a)));
          Tcp.flush tcp_a client
        end;
        if !sent_b < 15_000 then begin
          sent_b := !sent_b + Tcp.send tcp_b server (Bytes.sub b2a !sent_b (min 4096 (15_000 - !sent_b)));
          Tcp.flush tcp_b server
        end;
        Buffer.add_bytes recv_b (Tcp.recv tcp_b server ~max:65536);
        Buffer.add_bytes recv_a (Tcp.recv tcp_a client ~max:65536);
        done_ ())
  in
  Alcotest.(check bool) "completed" true ok;
  H.check_bytes "a->b" a2b (Buffer.to_bytes recv_b);
  H.check_bytes "b->a" b2a (Buffer.to_bytes recv_a)

let test_graceful_close () =
  let pair, client, server = H.connected_pair () in
  let tcp_a = Stack.tcp pair.H.stack_a and tcp_b = Stack.tcp pair.H.stack_b in
  Tcp.close tcp_a client;
  let ok =
    H.run_until pair (fun () -> Tcp.eof server && Tcp.conn_state client = Tcp.Fin_wait_2)
  in
  Alcotest.(check bool) "server sees eof, client half-closed" true ok;
  Alcotest.(check string) "half-closed client" "FIN-WAIT-2" (Tcp.state_name (Tcp.conn_state client));
  Alcotest.(check string) "server close-wait" "CLOSE-WAIT" (Tcp.state_name (Tcp.conn_state server));
  Tcp.close tcp_b server;
  let ok =
    H.run_until pair (fun () ->
        Tcp.conn_state server = Tcp.Closed
        && (Tcp.conn_state client = Tcp.Time_wait || Tcp.conn_state client = Tcp.Closed))
  in
  Alcotest.(check bool) "full close" true ok

let test_connection_refused () =
  let pair = H.make_stack_pair () in
  let tcp_a = Stack.tcp pair.H.stack_a in
  let conn = Tcp.connect tcp_a ~dst:H.ip_b ~dst_port:9999 () in
  let ok = H.run_until pair (fun () -> Tcp.conn_state conn = Tcp.Closed) in
  Alcotest.(check bool) "closed by RST" true ok;
  Alcotest.(check (option string)) "refused" (Some "connection refused") (Tcp.conn_error conn)

let test_data_after_close_rejected () =
  let pair, client, _server = H.connected_pair () in
  let tcp_a = Stack.tcp pair.H.stack_a in
  Tcp.close tcp_a client;
  H.step pair;
  Alcotest.(check int) "send after close returns 0" 0 (Tcp.send tcp_a client (Bytes.of_string "x"))

let test_listener_accept_queue () =
  let pair = H.make_stack_pair () in
  let tcp_a = Stack.tcp pair.H.stack_a and tcp_b = Stack.tcp pair.H.stack_b in
  let listener = Tcp.listen tcp_b ~port:80 () in
  let c1 = Tcp.connect tcp_a ~dst:H.ip_b ~dst_port:80 () in
  let c2 = Tcp.connect tcp_a ~dst:H.ip_b ~dst_port:80 () in
  let accepted = ref [] in
  let ok =
    H.run_until pair (fun () ->
        (match Tcp.accept listener with Some c -> accepted := c :: !accepted | None -> ());
        List.length !accepted = 2
        && Tcp.conn_state c1 = Tcp.Established
        && Tcp.conn_state c2 = Tcp.Established)
  in
  Alcotest.(check bool) "both accepted" true ok

let test_duplicate_listen_rejected () =
  let pair = H.make_stack_pair () in
  let tcp_b = Stack.tcp pair.H.stack_b in
  ignore (Tcp.listen tcp_b ~port:81 ());
  Alcotest.check_raises "double bind" (Invalid_argument "Tcp.listen: port already bound") (fun () ->
      ignore (Tcp.listen tcp_b ~port:81 ()))

(* A lossy/reordering netif wrapper for robustness tests. *)
let lossy_pair ~seed ~drop ~dup ~reorder () =
  let nif_a, nif_b = Netif.loopback_pair ~mac_a:H.mac_a ~mac_b:H.mac_b ~mtu:1500 in
  let rng = Cio_util.Rng.create seed in
  let held = ref None in
  let lossy_transmit frame =
    if Cio_util.Rng.float rng < drop then ()
    else if Cio_util.Rng.float rng < reorder then begin
      match !held with
      | None -> held := Some frame
      | Some h ->
          held := None;
          nif_a.Netif.transmit frame;
          nif_a.Netif.transmit h
    end
    else begin
      nif_a.Netif.transmit frame;
      if Cio_util.Rng.float rng < dup then nif_a.Netif.transmit frame
    end
  in
  let nif_a' = { nif_a with Netif.transmit = lossy_transmit } in
  let clock = ref 0L in
  let now () = !clock in
  let stack_a =
    Stack.create ~netif:nif_a' ~ip:H.ip_a ~neighbors:[ (H.ip_b, H.mac_b) ] ~now
      ~rng:(Cio_util.Rng.split rng) ()
  in
  let stack_b =
    Stack.create ~netif:nif_b ~ip:H.ip_b ~neighbors:[ (H.ip_a, H.mac_a) ] ~now
      ~rng:(Cio_util.Rng.split rng) ()
  in
  { H.stack_a; stack_b; clock }

let transfer_under_impairment ~seed ~drop ~dup ~reorder =
  let pair = lossy_pair ~seed ~drop ~dup ~reorder () in
  let tcp_a = Stack.tcp pair.H.stack_a and tcp_b = Stack.tcp pair.H.stack_b in
  let listener = Tcp.listen tcp_b ~port:90 () in
  let client = Tcp.connect tcp_a ~dst:H.ip_b ~dst_port:90 () in
  let server = ref None in
  let ok =
    H.run_until ~max_steps:30_000 pair (fun () ->
        (match !server with None -> server := Tcp.accept listener | Some _ -> ());
        Tcp.conn_state client = Tcp.Established && !server <> None)
  in
  Alcotest.(check bool) "handshake survives impairment" true ok;
  let server = Option.get !server in
  let data = Bytes.init 60_000 (fun i -> Char.chr ((i * 7) land 0xFF)) in
  let sent = ref 0 in
  let received = Buffer.create 60_000 in
  let ok =
    H.run_until ~max_steps:30_000 pair (fun () ->
        if !sent < 60_000 then begin
          sent := !sent + Tcp.send tcp_a client (Bytes.sub data !sent (min 4096 (60_000 - !sent)));
          Tcp.flush tcp_a client
        end;
        Buffer.add_bytes received (Tcp.recv tcp_b server ~max:65536);
        Buffer.length received >= 60_000)
  in
  Alcotest.(check bool) "transfer completes" true ok;
  H.check_bytes "byte-exact despite impairment" data (Buffer.to_bytes received)

let test_retransmission_on_loss () = transfer_under_impairment ~seed:11L ~drop:0.05 ~dup:0.0 ~reorder:0.0

let test_duplication_tolerated () = transfer_under_impairment ~seed:12L ~drop:0.0 ~dup:0.1 ~reorder:0.0

let test_reordering_reassembled () = transfer_under_impairment ~seed:13L ~drop:0.0 ~dup:0.0 ~reorder:0.2

let test_combined_impairment () = transfer_under_impairment ~seed:14L ~drop:0.03 ~dup:0.05 ~reorder:0.1

let test_udp_roundtrip () =
  let pair = H.make_stack_pair () in
  let sock_b = Stack.udp_bind pair.H.stack_b ~port:5000 in
  Stack.send_udp pair.H.stack_a ~src_port:4000 ~dst:H.ip_b ~dst_port:5000 (Bytes.of_string "ping");
  H.step pair;
  match Stack.udp_recv sock_b with
  | Some (src, sport, payload) ->
      Alcotest.(check int32) "src ip" H.ip_a src;
      Alcotest.(check int) "src port" 4000 sport;
      H.check_bytes "payload" (Bytes.of_string "ping") payload
  | None -> Alcotest.fail "datagram not delivered"

let test_udp_unbound_port_dropped () =
  let pair = H.make_stack_pair () in
  Stack.send_udp pair.H.stack_a ~src_port:1 ~dst:H.ip_b ~dst_port:12345 (Bytes.of_string "x");
  H.step pair;
  Alcotest.(check string) "drop reason" "udp: no socket bound"
    (Stack.counters pair.H.stack_b).Stack.last_drop_reason

let test_stack_ignores_foreign_frames () =
  let pair = H.make_stack_pair () in
  (* A frame addressed to a different MAC must be dropped at Ethernet. *)
  let foreign =
    Cio_frame.Ethernet.build
      {
        Cio_frame.Ethernet.dst = Cio_frame.Addr.mac_of_octets 9 9 9 9 9 9;
        src = H.mac_a;
        ethertype = Cio_frame.Ethernet.Ipv4;
        payload = Bytes.make 30 'x';
      }
  in
  Stack.handle_frame pair.H.stack_b foreign;
  Alcotest.(check string) "dropped" "ethernet: not for us"
    (Stack.counters pair.H.stack_b).Stack.last_drop_reason

let test_stack_counts_garbage () =
  let pair = H.make_stack_pair () in
  Stack.handle_frame pair.H.stack_b (Bytes.make 5 '\x00');
  Alcotest.(check int) "counted" 1 (Stack.counters pair.H.stack_b).Stack.dropped

let test_stack_meter_charges () =
  let pair, client, server = H.connected_pair () in
  ignore client;
  ignore server;
  let m = Stack.meter pair.H.stack_a in
  Alcotest.(check bool) "stack work metered" (Cio_util.Cost.cycles_of m Cio_util.Cost.Stack > 0) true

let test_ten_concurrent_connections () =
  let pair = H.make_stack_pair () in
  let tcp_a = Stack.tcp pair.H.stack_a and tcp_b = Stack.tcp pair.H.stack_b in
  let listener = Tcp.listen tcp_b ~port:7000 ~backlog:16 () in
  let clients = List.init 10 (fun _ -> Tcp.connect tcp_a ~dst:H.ip_b ~dst_port:7000 ()) in
  let servers = ref [] in
  let ok =
    H.run_until pair (fun () ->
        (match Tcp.accept listener with Some c -> servers := c :: !servers | None -> ());
        List.length !servers = 10
        && List.for_all (fun c -> Tcp.conn_state c = Tcp.Established) clients)
  in
  Alcotest.(check bool) "all ten established" true ok;
  (* Each client sends a distinct message; each must land on exactly one
     server connection, and all ten must arrive. *)
  List.iteri
    (fun i c ->
      ignore (Tcp.send tcp_a c (Bytes.of_string (Printf.sprintf "conn-%d" i)));
      Tcp.flush tcp_a c)
    clients;
  let received = ref [] in
  let ok =
    H.run_until pair (fun () ->
        List.iter
          (fun s ->
            let b = Tcp.recv tcp_b s ~max:100 in
            if Bytes.length b > 0 then received := Bytes.to_string b :: !received)
          !servers;
        List.length !received = 10)
  in
  Alcotest.(check bool) "all ten delivered" true ok;
  Alcotest.(check int) "no cross-talk (all distinct)" 10
    (List.length (List.sort_uniq compare !received))

let test_half_close_data_still_flows () =
  (* After the client closes its send side, the server in CLOSE-WAIT can
     still push data back (TCP half-close semantics). *)
  let pair, client, server = H.connected_pair () in
  let tcp_a = Stack.tcp pair.H.stack_a and tcp_b = Stack.tcp pair.H.stack_b in
  Tcp.close tcp_a client;
  let ok = H.run_until pair (fun () -> Tcp.eof server) in
  Alcotest.(check bool) "server saw eof" true ok;
  ignore (Tcp.send tcp_b server (Bytes.of_string "parting words"));
  Tcp.flush tcp_b server;
  let got = Buffer.create 16 in
  let ok =
    H.run_until pair (fun () ->
        Buffer.add_bytes got (Tcp.recv tcp_a client ~max:100);
        Buffer.length got >= 13)
  in
  Alcotest.(check bool) "data flows into the half-closed side" true ok;
  H.check_bytes "content" (Bytes.of_string "parting words") (Buffer.to_bytes got)

let prop_stack_survives_random_frames =
  (* Fuzz the demux path: arbitrary bytes injected as frames must never
     crash the stack — they are host-deliverable data. *)
  QCheck.Test.make ~name:"stack survives arbitrary injected frames" ~count:300
    QCheck.(string_of_size Gen.(int_range 0 200))
    (fun junk ->
      let pair = H.make_stack_pair () in
      Cio_tcpip.Stack.handle_frame pair.H.stack_b (Bytes.of_string junk);
      true)

let prop_stack_survives_mutated_real_frames =
  (* Take a real TCP segment in a real frame and flip one bit anywhere:
     the stack must drop or process it, never raise. *)
  QCheck.Test.make ~name:"stack survives bit-flipped real frames" ~count:300
    QCheck.(pair small_nat (int_bound 7))
    (fun (pos, bit) ->
      let pair = H.make_stack_pair () in
      let seg =
        Cio_frame.Tcp_wire.build ~src_ip:H.ip_a ~dst_ip:H.ip_b
          {
            Cio_frame.Tcp_wire.src_port = 1234;
            dst_port = 80;
            seq = 100l;
            ack = 0l;
            flags = { Cio_frame.Tcp_wire.flags_none with Cio_frame.Tcp_wire.syn = true };
            window = 1000;
            mss = Some 1460;
            payload = Bytes.empty;
          }
      in
      let ip =
        Cio_frame.Ipv4.build
          { Cio_frame.Ipv4.src = H.ip_a; dst = H.ip_b; protocol = Cio_frame.Ipv4.Tcp; ttl = 64; payload = seg }
      in
      let frame =
        Cio_frame.Ethernet.build
          { Cio_frame.Ethernet.dst = H.mac_b; src = H.mac_a; ethertype = Cio_frame.Ethernet.Ipv4; payload = ip }
      in
      let i = pos mod Bytes.length frame in
      Bytes.set frame i (Char.chr (Char.code (Bytes.get frame i) lxor (1 lsl bit)));
      Cio_tcpip.Stack.handle_frame pair.H.stack_b frame;
      true)

(* A reincarnated client stack reusing the exact 4-tuple of a connection
   the server still believes is established (what happens when the
   quarantined I/O stack crashes and restarts, losing all TCP state).
   RFC 5961 challenge ACK + RFC 9293 SYN-SENT RST generation must bust
   the ghost: the stale server conn dies, the retransmitted SYN reaches
   the listener, and the new incarnation establishes. *)
let test_stale_incarnation_recovers () =
  let nif_a, nif_b = Cio_tcpip.Netif.loopback_pair ~mac_a:H.mac_a ~mac_b:H.mac_b ~mtu:1500 in
  let clock = ref 0L in
  let now () = !clock in
  let rng = Cio_util.Rng.create 77L in
  let mk nif ip peer_ip peer_mac =
    Stack.create ~netif:nif ~ip ~neighbors:[ (peer_ip, peer_mac) ] ~now
      ~rng:(Cio_util.Rng.split rng) ()
  in
  let stack_a = mk nif_a H.ip_a H.ip_b H.mac_b in
  let stack_b = mk nif_b H.ip_b H.ip_a H.mac_a in
  let tcp_b = Stack.tcp stack_b in
  let listener = Tcp.listen tcp_b ~port:7777 () in
  let live_a = ref stack_a in
  let run_until pred =
    let n = ref 0 in
    while (not (pred ())) && !n < 10_000 do
      incr n;
      Stack.poll !live_a;
      Stack.poll stack_b;
      clock := Int64.add !clock 1_000_000L
    done;
    pred ()
  in
  let client1 = Tcp.connect (Stack.tcp stack_a) ~src_port:5555 ~dst:H.ip_b ~dst_port:7777 () in
  let server1 = ref None in
  Alcotest.(check bool) "first incarnation establishes" true
    (run_until (fun () ->
         (match !server1 with None -> server1 := Tcp.accept listener | Some _ -> ());
         Tcp.conn_state client1 = Tcp.Established && !server1 <> None));
  (* The client stack dies with all its TCP state; its reincarnation
     picks the same ephemeral port. *)
  let stack_a2 = mk nif_a H.ip_a H.ip_b H.mac_b in
  live_a := stack_a2;
  let client2 = Tcp.connect (Stack.tcp stack_a2) ~src_port:5555 ~dst:H.ip_b ~dst_port:7777 () in
  let server2 = ref None in
  Alcotest.(check bool) "reincarnation establishes" true
    (run_until (fun () ->
         (match !server2 with None -> server2 := Tcp.accept listener | Some _ -> ());
         Tcp.conn_state client2 = Tcp.Established && !server2 <> None));
  (match !server1 with
  | Some c ->
      Alcotest.(check string) "stale server conn reset" "CLOSED"
        (Tcp.state_name (Tcp.conn_state c))
  | None -> ());
  (* Data flows on the new incarnation. *)
  ignore (Tcp.send (Stack.tcp stack_a2) client2 (Bytes.of_string "reborn"));
  Tcp.flush (Stack.tcp stack_a2) client2;
  let got = Buffer.create 16 in
  Alcotest.(check bool) "data delivered" true
    (run_until (fun () ->
         (match !server2 with
         | Some s -> Buffer.add_bytes got (Tcp.recv tcp_b s ~max:4096)
         | None -> ());
         Buffer.length got >= 6));
  Alcotest.(check string) "payload intact" "reborn" (Buffer.contents got)

(* --- TX coalescing ------------------------------------------------------ *)

(* A stack whose burst netif records each flush: frames built during a
   quantum queue up and leave together at the end of poll, and a partial
   acceptance requeues the tail for the next flush. *)
let make_coalescing_stack ~accept =
  let nif_a, _nif_b = Netif.loopback_pair ~mac_a:H.mac_a ~mac_b:H.mac_b ~mtu:1500 in
  let bursts = ref [] in
  let tx_burst frames =
    let n = min (accept ()) (Array.length frames) in
    bursts := n :: !bursts;
    n
  in
  let stack =
    Stack.create ~tx_burst ~netif:nif_a ~ip:H.ip_a ~neighbors:[ (H.ip_b, H.mac_b) ]
      ~now:(fun () -> 0L)
      ~rng:(Cio_util.Rng.create 9L) ()
  in
  (stack, bursts)

let test_stack_tx_coalesces_quantum () =
  let stack, bursts = make_coalescing_stack ~accept:(fun () -> max_int) in
  for i = 1 to 5 do
    Stack.send_udp stack ~src_port:1000 ~dst:H.ip_b ~dst_port:7 (Bytes.make (32 + i) 'u')
  done;
  Alcotest.(check (list int)) "nothing leaves before the flush" [] !bursts;
  Stack.poll stack;
  Alcotest.(check (list int)) "one burst carries the whole quantum" [ 5 ] !bursts;
  Alcotest.(check int) "counted as sent" 5 (Stack.counters stack).Stack.frames_out

let test_stack_tx_partial_burst_requeues () =
  let cap = ref 3 in
  let stack, bursts = make_coalescing_stack ~accept:(fun () -> !cap) in
  for _ = 1 to 5 do
    Stack.send_udp stack ~src_port:1000 ~dst:H.ip_b ~dst_port:7 (Bytes.make 32 'u')
  done;
  Stack.poll stack;
  Alcotest.(check (list int)) "ring-full tail held back" [ 3 ] !bursts;
  cap := max_int;
  Stack.poll stack;
  Alcotest.(check (list int)) "tail retried next quantum" [ 2; 3 ] !bursts

(* --- Resource bounds ----------------------------------------------------- *)

(* A connection that ends in an error (here: abort, and the RST it sends)
   must not stay in the stack's table. The application keeps its own
   [conn] handle, so the error stays readable there. *)
let test_closed_connections_collected () =
  let pair = H.make_stack_pair () in
  let tcp_a = Stack.tcp pair.H.stack_a and tcp_b = Stack.tcp pair.H.stack_b in
  let listener = Tcp.listen tcp_b ~port:7777 () in
  let cycle () =
    let client = Tcp.connect tcp_a ~dst:H.ip_b ~dst_port:7777 () in
    let server = ref None in
    let up =
      H.run_until pair (fun () ->
          (if !server = None then server := Tcp.accept listener);
          Tcp.conn_state client = Tcp.Established && !server <> None)
    in
    if not up then Alcotest.fail "handshake did not complete";
    let server = Option.get !server in
    Tcp.abort tcp_a client;
    if not (H.run_until pair (fun () -> Tcp.conn_state server = Tcp.Closed)) then
      Alcotest.fail "RST not processed";
    H.step pair;
    (client, server)
  in
  let words () = Obj.reachable_words (Obj.repr tcp_a) + Obj.reachable_words (Obj.repr tcp_b) in
  for _ = 1 to 200 do ignore (cycle ()) done;
  let before = words () in
  let last = ref (cycle ()) in
  for _ = 2 to 2000 do last := cycle () done;
  let after = words () in
  let client, server = !last in
  Alcotest.(check (option string)) "client error readable" (Some "aborted") (Tcp.conn_error client);
  Alcotest.(check (option string)) "server error readable" (Some "connection reset by peer")
    (Tcp.conn_error server);
  if float_of_int after > 1.05 *. float_of_int before then
    Alcotest.failf "reachable words grew %d -> %d over 2000 connect/abort cycles" before after

(* Stack A against a peer scripted by the test: A's frames are captured,
   the peer's are built by hand and injected. An ACK that lands inside a
   segment, then an RTO, must resend that whole segment with its
   original bytes, also after later sends have moved or grown A's send
   store. *)
let test_partial_ack_retransmits_whole_segment () =
  let open Cio_frame in
  let sent = Queue.create () in
  let netif =
    { Netif.mac = H.mac_a; mtu = 1500; transmit = (fun f -> Queue.add f sent); poll = (fun () -> None) }
  in
  let clock = ref 0L in
  let stack =
    Stack.create ~netif ~ip:H.ip_a ~neighbors:[ (H.ip_b, H.mac_b) ] ~now:(fun () -> !clock)
      ~rng:(Cio_util.Rng.create 3L) ()
  in
  let tcp = Stack.tcp stack in
  let segment frame =
    match Ethernet.parse frame with
    | Error e -> Alcotest.fail e
    | Ok eth -> (
        match Ipv4.parse eth.Ethernet.payload with
        | Error e -> Alcotest.fail e
        | Ok ip -> (
            match Tcp_wire.parse ~src_ip:H.ip_a ~dst_ip:H.ip_b ip.Ipv4.payload with
            | Error e -> Alcotest.fail e
            | Ok seg -> seg))
  in
  let inject ~seq ~ack ?(syn = false) () =
    let seg =
      { Tcp_wire.src_port = 80; dst_port = (segment (Queue.peek sent)).Tcp_wire.src_port; seq; ack;
        flags = { Tcp_wire.flags_none with Tcp_wire.syn; ack = true }; window = 65535;
        mss = (if syn then Some 1460 else None); payload = Bytes.empty }
    in
    let tcp_bytes = Tcp_wire.build ~src_ip:H.ip_b ~dst_ip:H.ip_a seg in
    let packet = Ipv4.build { Ipv4.src = H.ip_b; dst = H.ip_a; protocol = Ipv4.Tcp; ttl = 64; payload = tcp_bytes } in
    Stack.handle_frame stack
      (Ethernet.build { Ethernet.dst = H.mac_a; src = H.mac_b; ethertype = Ethernet.Ipv4; payload = packet })
  in
  let conn = Tcp.connect tcp ~dst:H.ip_b ~dst_port:80 () in
  let syn = segment (Queue.peek sent) in
  inject ~syn:true ~seq:1000l ~ack:(Tcp_wire.seq_add syn.Tcp_wire.seq 1) ();
  Alcotest.(check string) "established" "ESTABLISHED" (Tcp.state_name (Tcp.conn_state conn));
  Queue.clear sent;
  let data = Bytes.init 6000 (fun i -> Char.chr (i * 7 land 0xFF)) in
  ignore (Tcp.send tcp conn (Bytes.sub data 0 3000));
  Tcp.flush tcp conn;
  let first = segment (Queue.peek sent) in
  Alcotest.(check int) "first segment is one MSS" 1460 (Bytes.length first.Tcp_wire.payload);
  inject ~seq:1001l ~ack:(Tcp_wire.seq_add first.Tcp_wire.seq 730) ();
  ignore (Tcp.send tcp conn (Bytes.sub data 3000 3000));
  Queue.clear sent;
  clock := 1_000_000_000L;
  Stack.poll stack;
  let resent = segment (Queue.peek sent) in
  Alcotest.(check int32) "resent from the segment's start" first.Tcp_wire.seq resent.Tcp_wire.seq;
  H.check_bytes "original bytes" (Bytes.sub data 0 1460) resent.Tcp_wire.payload

(* One 16 KiB send, segmented, carried over the loopback pair and read
   out, allocates a small multiple of its payload. *)
let test_tcp_transfer_allocation_bounded () =
  let pair, client, server = H.connected_pair () in
  let tcp_a = Stack.tcp pair.H.stack_a and tcp_b = Stack.tcp pair.H.stack_b in
  let size = 16384 in
  let data = Bytes.init size (fun i -> Char.chr (i * 13 land 0xFF)) in
  let received = ref 0 in
  let a0 = H.allocated_bytes () in
  Alcotest.(check int) "accepted" size (Tcp.send tcp_a client data);
  Tcp.flush tcp_a client;
  let ok =
    H.run_until pair (fun () ->
        received := !received + Bytes.length (Tcp.recv tcp_b server ~max:65536);
        !received >= size)
  in
  let allocated = H.allocated_bytes () -. a0 in
  Alcotest.(check bool) "received" true ok;
  if allocated > float_of_int (8 * size) then
    Alcotest.failf "16 KiB transfer allocated %.0f B (> 8 x 16 KiB)" allocated

let suite =
  [
    Alcotest.test_case "tcp: three-way handshake" `Quick test_handshake;
    Alcotest.test_case "tcp: stale incarnation recovers" `Quick test_stale_incarnation_recovers;
    Alcotest.test_case "tcp: small transfer" `Quick test_small_transfer;
    Alcotest.test_case "tcp: large transfer (windowed)" `Quick test_large_transfer_exceeds_window;
    Alcotest.test_case "tcp: bidirectional" `Quick test_bidirectional_transfer;
    Alcotest.test_case "tcp: graceful close" `Quick test_graceful_close;
    Alcotest.test_case "tcp: connection refused" `Quick test_connection_refused;
    Alcotest.test_case "tcp: send after close" `Quick test_data_after_close_rejected;
    Alcotest.test_case "tcp: accept queue" `Quick test_listener_accept_queue;
    Alcotest.test_case "tcp: duplicate listen" `Quick test_duplicate_listen_rejected;
    Alcotest.test_case "tcp: retransmission on loss" `Slow test_retransmission_on_loss;
    Alcotest.test_case "tcp: duplication tolerated" `Slow test_duplication_tolerated;
    Alcotest.test_case "tcp: reordering reassembled" `Slow test_reordering_reassembled;
    Alcotest.test_case "tcp: combined impairment" `Slow test_combined_impairment;
    Alcotest.test_case "udp: roundtrip" `Quick test_udp_roundtrip;
    Alcotest.test_case "udp: unbound port" `Quick test_udp_unbound_port_dropped;
    Alcotest.test_case "stack: foreign frames ignored" `Quick test_stack_ignores_foreign_frames;
    Alcotest.test_case "stack: garbage counted" `Quick test_stack_counts_garbage;
    Alcotest.test_case "stack: work metered" `Quick test_stack_meter_charges;
    Alcotest.test_case "stack: TX coalesced per quantum" `Quick test_stack_tx_coalesces_quantum;
    Alcotest.test_case "stack: partial burst requeued" `Quick test_stack_tx_partial_burst_requeues;
    Alcotest.test_case "tcp: ten concurrent connections" `Quick test_ten_concurrent_connections;
    Alcotest.test_case "tcp: half-close data flow" `Quick test_half_close_data_still_flows;
    Helpers.qtest prop_stack_survives_random_frames;
    Helpers.qtest prop_stack_survives_mutated_real_frames;
    Alcotest.test_case "tcp: closed connections collected" `Quick test_closed_connections_collected;
    Alcotest.test_case "tcp 16 KiB transfer allocation bounded" `Quick
      test_tcp_transfer_allocation_bounded;
    Alcotest.test_case "tcp: partial ACK then RTO resends the whole segment" `Quick
      test_partial_ack_retransmits_whole_segment;
  ]
