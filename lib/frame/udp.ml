(* UDP codec (RFC 768), checksummed with the IPv4 pseudo-header. *)

type t = { src_port : int; dst_port : int; payload : bytes }

let header_len = 8

let build ~src_ip ~dst_ip { src_port; dst_port; payload } =
  let total = header_len + Bytes.length payload in
  if total > 0xFFFF then invalid_arg "Udp.build: datagram too large";
  let b = Bytes.make total '\000' in
  Bytes.set_uint16_be b 0 src_port;
  Bytes.set_uint16_be b 2 dst_port;
  Bytes.set_uint16_be b 4 total;
  Bytes.blit payload 0 b header_len (Bytes.length payload);
  let init = Checksum.pseudo_sum ~src:src_ip ~dst:dst_ip ~proto:17 ~length:total in
  let csum = Checksum.finish (Checksum.ones_complement_sum b ~pos:0 ~len:total ~init) in
  (* All-zero checksums are transmitted as 0xFFFF per the RFC. *)
  Bytes.set_uint16_be b 6 (if csum = 0 then 0xFFFF else csum);
  b

let parse ~src_ip ~dst_ip b =
  let len = Bytes.length b in
  if len < header_len then Error "udp: truncated header"
  else begin
    let total = Bytes.get_uint16_be b 4 in
    if total < header_len || total > len then Error "udp: bad length"
    else begin
      let init = Checksum.pseudo_sum ~src:src_ip ~dst:dst_ip ~proto:17 ~length:total in
      (* A zero checksum field means the sender disabled it. *)
      if Bytes.get_uint16_be b 6 <> 0 && Checksum.ones_complement_sum b ~pos:0 ~len:total ~init <> 0xFFFF
      then Error "udp: checksum mismatch"
      else
        Ok
          {
            src_port = Bytes.get_uint16_be b 0;
            dst_port = Bytes.get_uint16_be b 2;
            payload = Bytes.sub b header_len (total - header_len);
          }
    end
  end

let pp ppf t =
  Fmt.pf ppf "udp %d -> %d (%d B)" t.src_port t.dst_port (Bytes.length t.payload)
