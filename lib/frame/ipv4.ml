(* IPv4 header codec (RFC 791). No options, no fragmentation support on
   the send side; fragmented packets are rejected on parse, which is also
   a deliberate safe-interface simplification (§3.2: eliminate error-prone
   protocol corners that the deployment does not need). *)

type protocol = Tcp | Udp | Unknown of int

let protocol_code = function Tcp -> 6 | Udp -> 17 | Unknown c -> c
let protocol_of_code = function 6 -> Tcp | 17 -> Udp | c -> Unknown c

let pp_protocol ppf = function
  | Tcp -> Fmt.pf ppf "TCP"
  | Udp -> Fmt.pf ppf "UDP"
  | Unknown c -> Fmt.pf ppf "proto-%d" c

type t = {
  src : Addr.ipv4;
  dst : Addr.ipv4;
  protocol : protocol;
  ttl : int;
  payload : bytes;
}

(* A packet parsed in place: the payload is [payload_len] bytes at
   [payload_off] of the parsed buffer. *)
type header = {
  src : Addr.ipv4; dst : Addr.ipv4; protocol : protocol; ttl : int;
  payload_off : int; payload_len : int;
}

let header_len = 20

(* The one header writer: [build] and the stack's one-buffer frames both
   put the 20-byte header at [off], in front of [payload_len] bytes. *)
let write_header b ~off ~src ~dst ~protocol ~ttl ~payload_len =
  let total = header_len + payload_len in
  if total > 0xFFFF then invalid_arg "Ipv4.build: packet too large";
  Bytes.set_uint16_be b off 0x4500;  (* version 4, IHL 5, TOS 0 *)
  Bytes.set_uint16_be b (off + 2) total;
  Bytes.set_int32_be b (off + 4) 0x4000l;  (* id 0, DF set, no fragments *)
  Bytes.set b (off + 8) (Char.chr (ttl land 0xFF));
  Bytes.set b (off + 9) (Char.chr (protocol_code protocol));
  Bytes.set_uint16_be b (off + 10) 0;
  Bytes.set_int32_be b (off + 12) src;
  Bytes.set_int32_be b (off + 16) dst;
  Bytes.set_uint16_be b (off + 10) (Checksum.compute b ~pos:off ~len:header_len)

let build ({ src; dst; protocol; ttl; payload } : t) =
  let payload_len = Bytes.length payload in
  let b = Bytes.create (header_len + payload_len) in
  write_header b ~off:0 ~src ~dst ~protocol ~ttl ~payload_len;
  Bytes.blit payload 0 b header_len payload_len;
  b

(* Parse the packet in [b.[off .. off+len)] in place. *)
let parse_at b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Ipv4.parse_at";
  if len < header_len then Error "ipv4: truncated header"
  else begin
    let vihl = Char.code (Bytes.get b off) in
    let version = vihl lsr 4 and ihl = (vihl land 0xF) * 4 in
    if version <> 4 then Error "ipv4: not version 4"
    else if ihl < header_len then Error "ipv4: bad IHL"
    else if ihl > len then Error "ipv4: IHL beyond packet"
    else begin
      let total = Bytes.get_uint16_be b (off + 2) in
      if total < ihl || total > len then Error "ipv4: bad total length"
      else if not (Checksum.verify b ~pos:off ~len:ihl) then Error "ipv4: header checksum mismatch"
      else begin
        (* More-fragments bit or a fragment offset. *)
        if Bytes.get_uint16_be b (off + 6) land 0x3FFF <> 0 then Error "ipv4: fragmentation unsupported"
        else
          Ok
            {
              src = Bytes.get_int32_be b (off + 12);
              dst = Bytes.get_int32_be b (off + 16);
              protocol = protocol_of_code (Char.code (Bytes.get b (off + 9)));
              ttl = Char.code (Bytes.get b (off + 8));
              payload_off = off + ihl;
              payload_len = total - ihl;
            }
      end
    end
  end

let parse b =
  parse_at b ~off:0 ~len:(Bytes.length b)
  |> Result.map (fun { src; dst; protocol; ttl; payload_off; payload_len } ->
         { src; dst; protocol; ttl; payload = Bytes.sub b payload_off payload_len })

let pp ppf (t : t) =
  Fmt.pf ppf "ipv4 %a -> %a %a ttl=%d (%d B)" Addr.pp_ipv4 t.src Addr.pp_ipv4 t.dst
    pp_protocol t.protocol t.ttl (Bytes.length t.payload)
