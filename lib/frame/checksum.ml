(* RFC 1071 Internet checksum, shared by IPv4/UDP/TCP. The sum runs over
   32-bit words: since 2^16 = 1 (mod 2^16 - 1), folding their sum gives
   the same one's-complement sum as adding the 16-bit words one by one. *)

let ones_complement_sum b ~pos ~len ~init =
  let sum = ref init in
  let i = ref pos in
  let stop = pos + len in
  while !i + 3 < stop do
    sum := !sum + (Int32.to_int (Bytes.get_int32_be b !i) land 0xFFFF_FFFF);
    i := !i + 4
  done;
  (* A tail of 1-3 bytes: one 16-bit word, then an odd byte as its high half. *)
  let rest = stop - !i in
  if rest >= 2 then sum := !sum + Bytes.get_uint16_be b !i;
  if rest = 1 || rest = 3 then sum := !sum + (Char.code (Bytes.get b (stop - 1)) lsl 8);
  (* Fold carries. *)
  let s = ref !sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  !s

let finish sum = lnot sum land 0xFFFF

let compute b ~pos ~len = finish (ones_complement_sum b ~pos ~len ~init:0)

let verify b ~pos ~len = ones_complement_sum b ~pos ~len ~init:0 = 0xFFFF

(* The IPv4 pseudo-header (src, dst, zero+protocol, length) summed from
   integers: an [init] for UDP/TCP checksums. *)
let pseudo_sum ~src ~dst ~proto ~length =
  let word ip = Int32.to_int ip land 0xFFFF_FFFF in
  word src + word dst + (proto land 0xFF) + (length land 0xFFFF)
