(* Ethernet II framing. 14-byte header; the simulated FCS is handled by
   the link layer when enabled, not here. *)

type ethertype = Ipv4 | Arp | Unknown of int

let ethertype_code = function Ipv4 -> 0x0800 | Arp -> 0x0806 | Unknown c -> c

let ethertype_of_code = function 0x0800 -> Ipv4 | 0x0806 -> Arp | c -> Unknown c

let pp_ethertype ppf = function
  | Ipv4 -> Fmt.pf ppf "IPv4"
  | Arp -> Fmt.pf ppf "ARP"
  | Unknown c -> Fmt.pf ppf "0x%04x" c

type t = { dst : Addr.mac; src : Addr.mac; ethertype : ethertype; payload : bytes }
type header = { dst : Addr.mac; src : Addr.mac; ethertype : ethertype }

let header_len = 14
let min_payload = 46  (* classic Ethernet minimum; we pad on build *)
let max_payload = 1500

let mac_at b off =
  (Bytes.get_uint16_be b off lsl 32) lor (Int32.to_int (Bytes.get_int32_be b (off + 2)) land 0xFFFF_FFFF)

let write_header b ~dst ~src ~ethertype =
  Bytes.set_uint16_be b 0 ((dst lsr 32) land 0xFFFF);
  Bytes.set_int32_be b 2 (Int32.of_int dst);
  Bytes.set_uint16_be b 6 ((src lsr 32) land 0xFFFF);
  Bytes.set_int32_be b 8 (Int32.of_int src);
  Bytes.set_uint16_be b 12 (ethertype_code ethertype)

let build ({ dst; src; ethertype; payload } : t) =
  let b = Bytes.make (header_len + max (Bytes.length payload) min_payload) '\000' in
  write_header b ~dst ~src ~ethertype;
  Bytes.blit payload 0 b header_len (Bytes.length payload);
  b

let parse_header b =
  if Bytes.length b < header_len then Error "ethernet: frame shorter than header"
  else
    Ok { dst = mac_at b 0; src = mac_at b 6; ethertype = ethertype_of_code (Bytes.get_uint16_be b 12) }

let parse b =
  Result.map
    (fun ({ dst; src; ethertype } : header) ->
      { dst; src; ethertype; payload = Bytes.sub b header_len (Bytes.length b - header_len) })
    (parse_header b)

let pp ppf (t : t) =
  Fmt.pf ppf "eth %a -> %a %a (%d B payload)" Addr.pp_mac t.src Addr.pp_mac t.dst
    pp_ethertype t.ethertype (Bytes.length t.payload)
