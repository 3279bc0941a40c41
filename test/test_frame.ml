(* Codec tests: addresses, checksums, Ethernet/IPv4/UDP/TCP round trips
   and malformed-input rejection. *)

open Cio_frame

let ip_a = Helpers.ip_a
let ip_b = Helpers.ip_b

let test_mac_octets () =
  let m = Addr.mac_of_octets 0xDE 0xAD 0xBE 0xEF 0x00 0x01 in
  Alcotest.(check int) "octet 0" 0xDE (Addr.mac_octet m 0);
  Alcotest.(check int) "octet 5" 0x01 (Addr.mac_octet m 5);
  Alcotest.(check string) "pretty" "de:ad:be:ef:00:01" (Addr.mac_to_string m)

let test_ipv4_string_roundtrip () =
  Alcotest.(check string) "pretty" "10.0.0.1" (Addr.ipv4_to_string ip_a);
  (match Addr.ipv4_of_string "192.168.1.254" with
  | Some ip -> Alcotest.(check string) "parse" "192.168.1.254" (Addr.ipv4_to_string ip)
  | None -> Alcotest.fail "parse failed");
  Alcotest.(check bool) "reject 256" true (Addr.ipv4_of_string "256.0.0.1" = None);
  Alcotest.(check bool) "reject short" true (Addr.ipv4_of_string "10.0.0" = None);
  Alcotest.(check bool) "reject junk" true (Addr.ipv4_of_string "a.b.c.d" = None)

let test_checksum_rfc1071_example () =
  (* Classic example: checksum over 0001 f203 f4f5 f6f7 = 0x220d. *)
  let b = Helpers.hex "0001f203f4f5f6f7" in
  Alcotest.(check int) "rfc1071" 0x220D (Checksum.compute b ~pos:0 ~len:8)

let test_checksum_verify () =
  let b = Helpers.hex "0001f203f4f5f6f7" in
  let csum = Checksum.compute b ~pos:0 ~len:8 in
  let with_csum = Bytes.cat b (Bytes.create 2) in
  Bytes.set_uint16_be with_csum 8 csum;
  Alcotest.(check bool) "verifies" true (Checksum.verify with_csum ~pos:0 ~len:10)

let test_checksum_odd_length () =
  let b = Bytes.of_string "abc" in
  (* Must not raise, and must be stable. *)
  Alcotest.(check int) "stable" (Checksum.compute b ~pos:0 ~len:3) (Checksum.compute b ~pos:0 ~len:3)

let eth_frame payload =
  { Ethernet.dst = Helpers.mac_b; src = Helpers.mac_a; ethertype = Ethernet.Ipv4; payload }

let test_ethernet_roundtrip () =
  let frame = eth_frame (Bytes.make 100 'p') in
  match Ethernet.parse (Ethernet.build frame) with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
      Alcotest.(check int) "dst" frame.Ethernet.dst parsed.Ethernet.dst;
      Alcotest.(check int) "src" frame.Ethernet.src parsed.Ethernet.src;
      Helpers.check_bytes "payload" frame.Ethernet.payload parsed.Ethernet.payload

let test_ethernet_pads_short_payload () =
  let built = Ethernet.build (eth_frame (Bytes.of_string "tiny")) in
  Alcotest.(check int) "minimum frame size" (Ethernet.header_len + Ethernet.min_payload)
    (Bytes.length built)

let test_ethernet_truncated_rejected () =
  match Ethernet.parse (Bytes.make 10 'x') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short frame must be rejected"

let test_ethernet_unknown_ethertype () =
  let b = Ethernet.build { (eth_frame Bytes.empty) with Ethernet.ethertype = Ethernet.Unknown 0x1234 } in
  match Ethernet.parse b with
  | Ok { Ethernet.ethertype = Ethernet.Unknown 0x1234; _ } -> ()
  | _ -> Alcotest.fail "unknown ethertype must survive roundtrip"

let ip_packet payload =
  { Ipv4.src = ip_a; dst = ip_b; protocol = Ipv4.Udp; ttl = 64; payload }

let test_ipv4_roundtrip () =
  match Ipv4.parse (Ipv4.build (ip_packet (Bytes.make 64 'd'))) with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check int32) "src" ip_a p.Ipv4.src;
      Alcotest.(check int32) "dst" ip_b p.Ipv4.dst;
      Alcotest.(check int) "ttl" 64 p.Ipv4.ttl;
      Alcotest.(check int) "payload" 64 (Bytes.length p.Ipv4.payload)

let test_ipv4_header_checksum_enforced () =
  let b = Ipv4.build (ip_packet (Bytes.of_string "x")) in
  Bytes.set b 8 '\x01' (* mangle TTL without fixing checksum *);
  match Ipv4.parse b with
  | Error "ipv4: header checksum mismatch" -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ e)
  | Ok _ -> Alcotest.fail "corrupted header must be rejected"

let test_ipv4_rejects_fragments () =
  let b = Ipv4.build (ip_packet (Bytes.of_string "x")) in
  (* Set MF bit and fix up the checksum. *)
  Bytes.set_uint16_be b 6 0x2000;
  Bytes.set_uint16_be b 10 0;
  let csum = Checksum.compute b ~pos:0 ~len:20 in
  Bytes.set_uint16_be b 10 csum;
  match Ipv4.parse b with
  | Error "ipv4: fragmentation unsupported" -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ e)
  | Ok _ -> Alcotest.fail "fragment must be rejected"

let test_ipv4_tolerates_link_padding () =
  (* Ethernet pads short packets; the IP total-length field governs. *)
  let b = Ipv4.build (ip_packet (Bytes.of_string "small")) in
  let padded = Bytes.cat b (Bytes.make 20 '\000') in
  match Ipv4.parse padded with
  | Ok p -> Alcotest.(check int) "payload trimmed" 5 (Bytes.length p.Ipv4.payload)
  | Error e -> Alcotest.fail e

let test_ipv4_rejects_bad_version () =
  let b = Ipv4.build (ip_packet Bytes.empty) in
  Bytes.set b 0 '\x65' (* version 6 *);
  match Ipv4.parse b with
  | Error "ipv4: not version 4" -> ()
  | _ -> Alcotest.fail "bad version must be rejected"

let test_udp_roundtrip () =
  let dgram = { Udp.src_port = 5353; dst_port = 53; payload = Bytes.of_string "query" } in
  match Udp.parse ~src_ip:ip_a ~dst_ip:ip_b (Udp.build ~src_ip:ip_a ~dst_ip:ip_b dgram) with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check int) "sport" 5353 p.Udp.src_port;
      Alcotest.(check int) "dport" 53 p.Udp.dst_port;
      Helpers.check_bytes "payload" dgram.Udp.payload p.Udp.payload

let test_udp_checksum_includes_pseudo_header () =
  let b = Udp.build ~src_ip:ip_a ~dst_ip:ip_b { Udp.src_port = 1; dst_port = 2; payload = Bytes.of_string "x" } in
  (* The same datagram verified against a different address must fail:
     the pseudo-header binds it to its endpoints. (Swapping src and dst
     would NOT fail — the one's-complement sum is order-independent —
     which is itself worth pinning down.) *)
  let other = Cio_frame.Addr.ipv4_of_octets 10 0 0 3 in
  (match Udp.parse ~src_ip:other ~dst_ip:ip_b b with
  | Error "udp: checksum mismatch" -> ()
  | _ -> Alcotest.fail "pseudo-header must be bound");
  match Udp.parse ~src_ip:ip_b ~dst_ip:ip_a b with
  | Ok _ -> ()  (* order-independence of the internet checksum *)
  | Error e -> Alcotest.fail ("swap unexpectedly failed: " ^ e)

let test_udp_corrupted_rejected () =
  let b = Udp.build ~src_ip:ip_a ~dst_ip:ip_b { Udp.src_port = 1; dst_port = 2; payload = Bytes.of_string "data" } in
  Bytes.set b (Bytes.length b - 1) '\xFF';
  match Udp.parse ~src_ip:ip_a ~dst_ip:ip_b b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corruption must be detected"

let tcp_seg ?(payload = Bytes.empty) ?(mss = None) ?(flags = Tcp_wire.flags_none) () =
  { Tcp_wire.src_port = 1000; dst_port = 2000; seq = 42l; ack = 7l; flags; window = 512; mss; payload }

let test_tcp_roundtrip () =
  let seg = tcp_seg ~payload:(Bytes.of_string "segment data") ~flags:{ Tcp_wire.flags_none with Tcp_wire.ack = true; psh = true } () in
  match Tcp_wire.parse ~src_ip:ip_a ~dst_ip:ip_b (Tcp_wire.build ~src_ip:ip_a ~dst_ip:ip_b seg) with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check int32) "seq" 42l p.Tcp_wire.seq;
      Alcotest.(check int32) "ack" 7l p.Tcp_wire.ack;
      Alcotest.(check bool) "ack flag" true p.Tcp_wire.flags.Tcp_wire.ack;
      Alcotest.(check bool) "psh flag" true p.Tcp_wire.flags.Tcp_wire.psh;
      Alcotest.(check int) "window" 512 p.Tcp_wire.window;
      Helpers.check_bytes "payload" seg.Tcp_wire.payload p.Tcp_wire.payload

let test_tcp_mss_option () =
  let seg = tcp_seg ~mss:(Some 1460) ~flags:{ Tcp_wire.flags_none with Tcp_wire.syn = true } () in
  match Tcp_wire.parse ~src_ip:ip_a ~dst_ip:ip_b (Tcp_wire.build ~src_ip:ip_a ~dst_ip:ip_b seg) with
  | Ok p -> Alcotest.(check (option int)) "mss" (Some 1460) p.Tcp_wire.mss
  | Error e -> Alcotest.fail e

let test_tcp_checksum_enforced () =
  let b = Tcp_wire.build ~src_ip:ip_a ~dst_ip:ip_b (tcp_seg ~payload:(Bytes.of_string "x") ()) in
  Bytes.set b (Bytes.length b - 1) 'y';
  match Tcp_wire.parse ~src_ip:ip_a ~dst_ip:ip_b b with
  | Error "tcp: checksum mismatch" -> ()
  | _ -> Alcotest.fail "corruption must be rejected"

let test_tcp_seq_arithmetic_wraps () =
  Alcotest.(check bool) "wrap lt" true (Tcp_wire.seq_lt 0xFFFFFFF0l 5l);
  Alcotest.(check bool) "not lt" false (Tcp_wire.seq_lt 5l 0xFFFFFFF0l);
  Alcotest.(check int32) "add wraps" 4l (Tcp_wire.seq_add 0xFFFFFFFFl 5);
  Alcotest.(check int) "diff across wrap" 21 (Tcp_wire.seq_diff 5l 0xFFFFFFF0l)

let test_tcp_bad_data_offset_rejected () =
  let b = Tcp_wire.build ~src_ip:ip_a ~dst_ip:ip_b (tcp_seg ()) in
  Bytes.set b 12 '\x30' (* data offset 12 bytes < 20 *);
  match Tcp_wire.parse ~src_ip:ip_a ~dst_ip:ip_b b with
  | Error "tcp: bad data offset" -> ()
  | _ -> Alcotest.fail "bad offset must be rejected"

let payload_arb =
  QCheck.make
    ~print:(fun b -> Cio_util.Hex.of_bytes b)
    QCheck.Gen.(map Bytes.of_string (string_size (int_range 0 1400)))

let prop_eth_roundtrip =
  QCheck.Test.make ~name:"ethernet parse . build = id (payload)" ~count:200 payload_arb (fun p ->
      match Ethernet.parse (Ethernet.build (eth_frame p)) with
      | Ok parsed ->
          (* Short payloads come back zero-padded; compare the prefix. *)
          Bytes.length parsed.Ethernet.payload >= Bytes.length p
          && Bytes.equal (Bytes.sub parsed.Ethernet.payload 0 (Bytes.length p)) p
      | Error _ -> false)

let prop_ipv4_roundtrip =
  QCheck.Test.make ~name:"ipv4 parse . build = id" ~count:200 payload_arb (fun p ->
      match Ipv4.parse (Ipv4.build (ip_packet p)) with
      | Ok parsed -> Bytes.equal parsed.Ipv4.payload p
      | Error _ -> false)

let prop_udp_roundtrip =
  QCheck.Test.make ~name:"udp parse . build = id" ~count:200 payload_arb (fun p ->
      match Udp.parse ~src_ip:ip_a ~dst_ip:ip_b
              (Udp.build ~src_ip:ip_a ~dst_ip:ip_b { Udp.src_port = 9; dst_port = 10; payload = p })
      with
      | Ok parsed -> Bytes.equal parsed.Udp.payload p
      | Error _ -> false)

let prop_tcp_roundtrip =
  QCheck.Test.make ~name:"tcp parse . build = id" ~count:200 payload_arb (fun p ->
      match Tcp_wire.parse ~src_ip:ip_a ~dst_ip:ip_b
              (Tcp_wire.build ~src_ip:ip_a ~dst_ip:ip_b (tcp_seg ~payload:p ()))
      with
      | Ok parsed -> Bytes.equal parsed.Tcp_wire.payload p
      | Error _ -> false)

let prop_ipv4_bitflip_rejected_or_equal =
  QCheck.Test.make ~name:"ipv4 header bit flips never parse to wrong metadata" ~count:300
    QCheck.(pair payload_arb (int_bound 159))
    (fun (p, bit) ->
      let b = Ipv4.build (ip_packet p) in
      let byte = bit / 8 in
      Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (bit mod 8))));
      match Ipv4.parse b with
      | Error _ -> true
      | Ok parsed ->
          (* A flip that still parses can only be one the checksum does
             not cover inconsistently (i.e. it flipped and the checksum
             field compensates); metadata must then be self-consistent. *)
          Bytes.length parsed.Ipv4.payload <= Bytes.length p)

let test_pretty_tcp () =
  let seg =
    Tcp_wire.build ~src_ip:ip_a ~dst_ip:ip_b
      (tcp_seg ~payload:(Bytes.of_string "xy")
         ~flags:{ Tcp_wire.flags_none with Tcp_wire.syn = true }
         ())
  in
  let ip = Ipv4.build { Ipv4.src = ip_a; dst = ip_b; protocol = Ipv4.Tcp; ttl = 64; payload = seg } in
  let frame = Ethernet.build (eth_frame ip) in
  let s = Pretty.frame_summary frame in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("summary mentions " ^ needle) true
        (let n = String.length s and c = String.length needle in
         let rec go i = i + c <= n && (String.equal (String.sub s i c) needle || go (i + 1)) in
         go 0))
    [ "10.0.0.1:1000"; "10.0.0.2:2000"; "S"; "len=2" ]

let test_pretty_degrades () =
  Alcotest.(check bool) "opaque bytes summarised" true
    (String.length (Pretty.frame_summary (Bytes.make 5 '\xAB')) > 0);
  Alcotest.(check bool) "garbage ip summarised" true
    (String.length (Pretty.ip_summary (Bytes.make 40 '\xCD')) > 0)

(* Frames as the stack sends them: SYN and SYN-ACK with MSS, a pure ACK
   (54 B, padded to 60), FIN, RST, and data segments of 1..1460 B, all
   with seeded headers. The digest was computed with the three-pass
   [Ethernet.build (Ipv4.build (Tcp_wire.build ...))] composition before
   the single-buffer frame path replaced it. *)
let golden_frames_digest = "4c8a79459f5b1226f8a084e1ee889d521bd302cabc2c937bf620c98ea9092c1b"

let golden_frame_specs () =
  let rng = Cio_util.Rng.create 0xF4A3EL in
  let ack_flags = { Tcp_wire.flags_none with Tcp_wire.ack = true } in
  let spec ?mss ~(flags : Tcp_wire.flags) payload =
    let r32 () = Int64.to_int32 (Cio_util.Rng.next_int64 rng) in
    let mac () = Cio_util.Rng.int rng (1 lsl 47) * 2 in
    let eth_dst = mac () and eth_src = mac () in
    let src_ip = r32 () and dst_ip = r32 () in
    let ttl = 1 + Cio_util.Rng.int rng 255 in
    let seg =
      {
        Tcp_wire.src_port = Cio_util.Rng.int rng 65536;
        dst_port = Cio_util.Rng.int rng 65536;
        seq = r32 ();
        ack = (if flags.Tcp_wire.ack then r32 () else 0l);
        flags;
        window = Cio_util.Rng.int rng 65536;
        mss;
        payload;
      }
    in
    (eth_dst, eth_src, src_ip, dst_ip, ttl, seg)
  in
  [
    spec ~mss:1460 ~flags:{ Tcp_wire.flags_none with Tcp_wire.syn = true } Bytes.empty;
    spec ~mss:536 ~flags:{ ack_flags with Tcp_wire.syn = true } Bytes.empty;
    spec ~flags:ack_flags Bytes.empty;
    spec ~flags:{ ack_flags with Tcp_wire.fin = true } Bytes.empty;
    spec ~flags:{ Tcp_wire.flags_none with Tcp_wire.rst = true } Bytes.empty;
    spec ~flags:{ ack_flags with Tcp_wire.rst = true } Bytes.empty;
  ]
  @ List.init 1460 (fun i ->
        spec ~flags:{ ack_flags with Tcp_wire.psh = true } (Cio_util.Rng.bytes rng (i + 1)))

let composed_frame (eth_dst, eth_src, src_ip, dst_ip, ttl, seg) =
  Ethernet.build
    {
      Ethernet.dst = eth_dst;
      src = eth_src;
      ethertype = Ethernet.Ipv4;
      payload =
        Ipv4.build
          {
            Ipv4.src = src_ip;
            dst = dst_ip;
            protocol = Ipv4.Tcp;
            ttl;
            payload = Tcp_wire.build ~src_ip ~dst_ip seg;
          };
    }

let frames_digest build =
  let acc = Buffer.create (1 lsl 21) in
  List.iter (fun s -> Buffer.add_bytes acc (build s)) (golden_frame_specs ());
  Cio_crypto.Sha256.hex_digest_string (Buffer.contents acc)

(* The stack's path: the segment is written into the frame buffer from
   an offset of a larger store, then the IPv4 and Ethernet headers go in
   front of it. *)
let one_buffer_frame (eth_dst, eth_src, src_ip, dst_ip, ttl, seg) =
  let len = Bytes.length seg.Tcp_wire.payload in
  let store = Bytes.make (len + 11) '\xEE' in
  Bytes.blit seg.Tcp_wire.payload 0 store 7 len;
  let frame = Tcp_wire.build_frame ~src_ip ~dst_ip seg ~data:store ~off:7 ~len in
  Ipv4.write_header frame ~off:Ethernet.header_len ~src:src_ip ~dst:dst_ip ~protocol:Ipv4.Tcp ~ttl
    ~payload_len:(Tcp_wire.header_bytes seg + len);
  Ethernet.write_header frame ~dst:eth_dst ~src:eth_src ~ethertype:Ethernet.Ipv4;
  frame

let test_golden_frames () =
  Alcotest.(check string) "composed" golden_frames_digest (frames_digest composed_frame);
  Alcotest.(check string) "one buffer" golden_frames_digest (frames_digest one_buffer_frame)

(* Reference: the RFC 1071 sum taken one 16-bit word at a time, which the
   32-bit-word loop in [Checksum] must match. *)
let reference_sum b ~pos ~len ~init =
  let sum = ref init and i = ref pos in
  while !i + 1 < pos + len do
    sum := !sum + Bytes.get_uint16_be b !i;
    i := !i + 2
  done;
  if !i < pos + len then sum := !sum + (Char.code (Bytes.get b !i) lsl 8);
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  !sum

let prop_checksum_matches_reference =
  QCheck.Test.make ~name:"checksum: 32-bit sum equals 16-bit reference" ~count:500
    QCheck.(quad payload_arb small_nat small_nat (int_bound 0x3FFFF))
    (fun (b, a, c, init) ->
      let n = Bytes.length b in
      let pos = if n = 0 then 0 else a mod n in
      let len = if n - pos = 0 then 0 else c mod (n - pos + 1) in
      Checksum.ones_complement_sum b ~pos ~len ~init = reference_sum b ~pos ~len ~init)

(* A valid segment, damaged in one of the ways the parser reports. *)
let damaged_segment_arb =
  let gen =
    QCheck.Gen.(
      map
        (fun (payload, mss, damage, (pre, post)) ->
          let seg = tcp_seg ~payload ~mss:(if mss then Some 1200 else None) () in
          let b = Tcp_wire.build ~src_ip:ip_a ~dst_ip:ip_b seg in
          let n = Bytes.length b in
          let b =
            match damage mod 5 with
            | 0 -> b
            | 1 -> Bytes.sub b 0 (damage mod 20)  (* truncated header *)
            | 2 -> Bytes.set b 12 (Char.chr (((damage / 5) mod 5) lsl 4)); b  (* offset below 20 *)
            | 3 -> Bytes.set b 12 '\xF0'; b  (* offset beyond a short segment *)
            | _ ->
                let i = damage mod n in
                Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
                b
          in
          (b, pre, post))
        (quad (map Bytes.of_string (string_size (int_range 0 40))) bool (int_bound 1000)
           (pair (int_bound 9) (int_bound 9))))
  in
  QCheck.make ~print:(fun (b, pre, post) -> Printf.sprintf "%s @%d +%d" (Cio_util.Hex.of_bytes b) pre post) gen

let embed b pre post =
  let big = Bytes.make (pre + Bytes.length b + post) '\xA5' in
  Bytes.blit b 0 big pre (Bytes.length b);
  big

let prop_tcp_parse_at_offset =
  QCheck.Test.make ~name:"tcp parse_at an offset equals parse of the slice" ~count:500
    damaged_segment_arb (fun (b, pre, post) ->
      Tcp_wire.parse_at ~src_ip:ip_a ~dst_ip:ip_b (embed b pre post) ~off:pre ~len:(Bytes.length b)
      = Tcp_wire.parse ~src_ip:ip_a ~dst_ip:ip_b b)

let prop_ipv4_parse_at_offset =
  QCheck.Test.make ~name:"ipv4 parse_at an offset equals parse of the slice" ~count:500
    QCheck.(triple payload_arb (int_bound 400) (pair (int_bound 9) (int_bound 9)))
    (fun (p, damage, (pre, post)) ->
      let b = Ipv4.build (ip_packet (Bytes.sub p 0 (min 60 (Bytes.length p)))) in
      let b =
        match damage mod 4 with
        | 0 -> b
        | 1 -> Bytes.sub b 0 (damage mod Bytes.length b)  (* truncated *)
        | 2 -> Bytes.cat b (Bytes.make (damage mod 30) '\000')  (* link padding *)
        | _ ->
            let i = damage mod Ipv4.header_len in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (damage mod 8))));
            b
      in
      let big = embed b pre post in
      let at =
        Result.map
          (fun (h : Ipv4.header) ->
            { Ipv4.src = h.src; dst = h.dst; protocol = h.protocol; ttl = h.ttl;
              payload = Bytes.sub big h.payload_off h.payload_len })
          (Ipv4.parse_at big ~off:pre ~len:(Bytes.length b))
      in
      at = Ipv4.parse b)

let suite =
  [
    Alcotest.test_case "addr: mac octets" `Quick test_mac_octets;
    Alcotest.test_case "addr: ipv4 strings" `Quick test_ipv4_string_roundtrip;
    Alcotest.test_case "checksum: rfc1071 example" `Quick test_checksum_rfc1071_example;
    Alcotest.test_case "checksum: verify" `Quick test_checksum_verify;
    Alcotest.test_case "checksum: odd length" `Quick test_checksum_odd_length;
    Alcotest.test_case "ethernet: roundtrip" `Quick test_ethernet_roundtrip;
    Alcotest.test_case "ethernet: minimum padding" `Quick test_ethernet_pads_short_payload;
    Alcotest.test_case "ethernet: truncated rejected" `Quick test_ethernet_truncated_rejected;
    Alcotest.test_case "ethernet: unknown ethertype" `Quick test_ethernet_unknown_ethertype;
    Alcotest.test_case "ipv4: roundtrip" `Quick test_ipv4_roundtrip;
    Alcotest.test_case "ipv4: checksum enforced" `Quick test_ipv4_header_checksum_enforced;
    Alcotest.test_case "ipv4: fragments rejected" `Quick test_ipv4_rejects_fragments;
    Alcotest.test_case "ipv4: link padding tolerated" `Quick test_ipv4_tolerates_link_padding;
    Alcotest.test_case "ipv4: version checked" `Quick test_ipv4_rejects_bad_version;
    Alcotest.test_case "udp: roundtrip" `Quick test_udp_roundtrip;
    Alcotest.test_case "udp: pseudo-header bound" `Quick test_udp_checksum_includes_pseudo_header;
    Alcotest.test_case "udp: corruption rejected" `Quick test_udp_corrupted_rejected;
    Alcotest.test_case "tcp: roundtrip" `Quick test_tcp_roundtrip;
    Alcotest.test_case "tcp: mss option" `Quick test_tcp_mss_option;
    Alcotest.test_case "tcp: checksum enforced" `Quick test_tcp_checksum_enforced;
    Alcotest.test_case "tcp: sequence arithmetic wraps" `Quick test_tcp_seq_arithmetic_wraps;
    Alcotest.test_case "tcp: bad data offset" `Quick test_tcp_bad_data_offset_rejected;
    Alcotest.test_case "pretty: tcp one-liner" `Quick test_pretty_tcp;
    Alcotest.test_case "pretty: degrades gracefully" `Quick test_pretty_degrades;
    Helpers.qtest prop_eth_roundtrip;
    Helpers.qtest prop_ipv4_roundtrip;
    Helpers.qtest prop_udp_roundtrip;
    Helpers.qtest prop_tcp_roundtrip;
    Helpers.qtest prop_ipv4_bitflip_rejected_or_equal;
    Alcotest.test_case "frame: golden digest" `Quick test_golden_frames;
    Helpers.qtest prop_checksum_matches_reference;
    Helpers.qtest prop_tcp_parse_at_offset;
    Helpers.qtest prop_ipv4_parse_at_offset;
  ]
