(* Record framing for the L5 channel.

   A record is { content_type:u8, flags:u8, length:u16be } followed by the
   body. The splitter accumulates an untrusted byte stream (what the
   untrusted I/O stack delivers) and emits complete records; it never
   trusts the stream beyond the declared length, and oversized lengths are
   rejected outright. *)

type content_type = Handshake | Data | Alert | Rekey

let content_code = function Handshake -> 22 | Data -> 23 | Alert -> 21 | Rekey -> 24

let content_of_code = function
  | 22 -> Some Handshake
  | 23 -> Some Data
  | 21 -> Some Alert
  | 24 -> Some Rekey
  | _ -> None

let content_name = function
  | Handshake -> "handshake"
  | Data -> "data"
  | Alert -> "alert"
  | Rekey -> "rekey"

let header_len = 4
let max_plaintext = 16384
let max_body = max_plaintext + 256  (* AEAD expansion headroom *)

type record = { ctype : content_type; body : bytes }

let header ~ctype ~len =
  let b = Bytes.create header_len in
  Bytes.set b 0 (Char.chr (content_code ctype));
  Bytes.set b 1 '\000';
  Bytes.set_uint16_be b 2 len;
  b

let encode { ctype; body } =
  let len = Bytes.length body in
  if len > max_body then invalid_arg "Wire.encode: record body too large";
  Bytes.cat (header ~ctype ~len) body

type splitter = { buf : Buffer.t; mutable dead : bool }

let splitter () = { buf = Buffer.create 4096; dead = false }

type split_result = Records of record list | Malformed of string

let feed t data =
  if t.dead then Malformed "splitter poisoned by earlier malformed input"
  else begin
    Buffer.add_bytes t.buf data;
    let out = ref [] in
    let err = ref None in
    let continue = ref true in
    while !continue do
      let have = Buffer.length t.buf in
      if have < header_len then continue := false
      else begin
        let hdr = Buffer.sub t.buf 0 header_len in
        match content_of_code (Char.code hdr.[0]) with
        | None ->
            t.dead <- true;
            err := Some (Printf.sprintf "unknown content type %d" (Char.code hdr.[0]));
            continue := false
        | Some ctype ->
            let len = (Char.code hdr.[2] lsl 8) lor Char.code hdr.[3] in
            if len > max_body then begin
              t.dead <- true;
              err := Some (Printf.sprintf "record length %d exceeds limit" len);
              continue := false
            end
            else if have < header_len + len then continue := false
            else begin
              let body = Bytes.of_string (Buffer.sub t.buf header_len len) in
              let rest = Buffer.sub t.buf (header_len + len) (have - header_len - len) in
              Buffer.clear t.buf;
              Buffer.add_string t.buf rest;
              out := { ctype; body } :: !out
            end
      end
    done;
    match !err with Some e -> Malformed e | None -> Records (List.rev !out)
  end
