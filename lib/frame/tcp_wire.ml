(* TCP segment codec (RFC 9293 wire format). Sequence numbers are int32
   with modular comparison helpers; the only option understood is MSS
   (kind 2), everything else is skipped on parse and never emitted. *)

type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool }

let flags_none = { syn = false; ack = false; fin = false; rst = false; psh = false }

let pp_flags ppf f =
  let tag c b = if b then String.make 1 c else "" in
  Fmt.pf ppf "%s%s%s%s%s"
    (tag 'S' f.syn) (tag 'A' f.ack) (tag 'F' f.fin) (tag 'R' f.rst) (tag 'P' f.psh)

type t = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack : int32;
  flags : flags;
  window : int;
  mss : int option;  (* only meaningful on SYN segments *)
  payload : bytes;
}

let base_header_len = 20

(* Modular sequence arithmetic. *)
let seq_lt a b = Int32.compare (Int32.sub a b) 0l < 0
let seq_leq a b = Int32.compare (Int32.sub a b) 0l <= 0
let seq_add a n = Int32.add a (Int32.of_int n)
let seq_diff a b = Int32.to_int (Int32.sub a b)

let flag_bits f =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.psh then 0x08 else 0)
  lor (if f.ack then 0x10 else 0)

(* Frames carry the segment after the Ethernet and IPv4 headers. *)
let headroom = Ethernet.header_len + Ipv4.header_len
let min_frame = Ethernet.header_len + Ethernet.min_payload

let header_bytes t = if t.mss = None then base_header_len else base_header_len + 4

(* The one segment writer: header and [data.[off .. off+len)] go straight
   to [headroom] of a zeroed frame buffer (at least 60 B), in front of
   which the stack writes the IPv4 and Ethernet headers in place. *)
let build_frame ~src_ip ~dst_ip t ~data ~off ~len =
  let header_len = header_bytes t in
  let total = header_len + len in
  if total > 0xFFFF then invalid_arg "Tcp_wire.build: segment too large";
  let b = Bytes.make (max min_frame (headroom + total)) '\000' in
  let s = headroom in
  Bytes.set_uint16_be b s t.src_port;
  Bytes.set_uint16_be b (s + 2) t.dst_port;
  Bytes.set_int32_be b (s + 4) t.seq;
  Bytes.set_int32_be b (s + 8) t.ack;
  Bytes.set b (s + 12) (Char.chr ((header_len / 4) lsl 4));
  Bytes.set b (s + 13) (Char.chr (flag_bits t.flags));
  Bytes.set_uint16_be b (s + 14) t.window;
  Option.iter (fun mss -> Bytes.set_int32_be b (s + 20) (Int32.of_int (0x02040000 lor (mss land 0xFFFF)))) t.mss;
  Bytes.blit data off b (s + header_len) len;
  let init = Checksum.pseudo_sum ~src:src_ip ~dst:dst_ip ~proto:6 ~length:total in
  Bytes.set_uint16_be b (s + 16) (Checksum.finish (Checksum.ones_complement_sum b ~pos:s ~len:total ~init));
  b

let build ~src_ip ~dst_ip t =
  let len = Bytes.length t.payload in
  Bytes.sub (build_frame ~src_ip ~dst_ip t ~data:t.payload ~off:0 ~len) headroom (header_bytes t + len)

(* Walk the options in [b.[i .. stop)] looking for MSS; tolerate unknown
   options. *)
let rec parse_mss b i stop =
  if i >= stop then None
  else
    match Char.code (Bytes.get b i) with
    | 0 -> None  (* end of options *)
    | 1 -> parse_mss b (i + 1) stop  (* NOP *)
    | 2 when i + 3 < stop && Char.code (Bytes.get b (i + 1)) = 4 -> Some (Bytes.get_uint16_be b (i + 2))
    | _ when i + 1 >= stop -> None
    | _ ->
        let olen = Char.code (Bytes.get b (i + 1)) in
        if olen < 2 then None else parse_mss b (i + olen) stop

(* Parse the segment in [b.[off .. off+len)]; only the payload is copied. *)
let parse_at ~src_ip ~dst_ip b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Tcp_wire.parse_at";
  if len < base_header_len then Error "tcp: truncated header"
  else begin
    let data_off = (Char.code (Bytes.get b (off + 12)) lsr 4) * 4 in
    if data_off < base_header_len || data_off > len then Error "tcp: bad data offset"
    else begin
      let init = Checksum.pseudo_sum ~src:src_ip ~dst:dst_ip ~proto:6 ~length:len in
      if Checksum.ones_complement_sum b ~pos:off ~len ~init <> 0xFFFF then
        Error "tcp: checksum mismatch"
      else begin
        let bit m = Char.code (Bytes.get b (off + 13)) land m <> 0 in
        let flags = { fin = bit 0x01; syn = bit 0x02; rst = bit 0x04; psh = bit 0x08; ack = bit 0x10 } in
        Ok
          {
            src_port = Bytes.get_uint16_be b off;
            dst_port = Bytes.get_uint16_be b (off + 2);
            seq = Bytes.get_int32_be b (off + 4);
            ack = Bytes.get_int32_be b (off + 8);
            flags;
            window = Bytes.get_uint16_be b (off + 14);
            mss = parse_mss b (off + base_header_len) (off + data_off);
            payload = Bytes.sub b (off + data_off) (len - data_off);
          }
      end
    end
  end

let parse ~src_ip ~dst_ip b = parse_at ~src_ip ~dst_ip b ~off:0 ~len:(Bytes.length b)

let pp ppf t =
  Fmt.pf ppf "tcp %d -> %d [%a] seq=%lu ack=%lu win=%d (%d B)" t.src_port t.dst_port
    pp_flags t.flags t.seq t.ack t.window (Bytes.length t.payload)
