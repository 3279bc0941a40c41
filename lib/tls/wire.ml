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

(* Pending stream bytes are [buf.[start, stop)]. Complete records are
   handed out as views into [buf] rather than copied out of it, so a view
   is only valid until the next [feed], which may compact or replace the
   store. *)
type splitter = { mutable buf : bytes; mutable start : int; mutable stop : int; mutable dead : bool }

let splitter () = { buf = Bytes.create 4096; start = 0; stop = 0; dead = false }

type view = { kind : content_type; store : bytes; off : int; len : int }

let body v = Bytes.sub v.store v.off v.len

type split_result = Records of view list | Malformed of string

(* Make room for [n] more bytes at the tail: move the pending bytes to the
   front, into a store of twice the size if they still would not fit. *)
let reserve t n =
  let pending = t.stop - t.start in
  if t.stop + n > Bytes.length t.buf then begin
    let rec grow c = if c >= pending + n then c else grow (2 * c) in
    let cap = grow (Bytes.length t.buf) in
    let dst = if cap > Bytes.length t.buf then Bytes.create cap else t.buf in
    Bytes.blit t.buf t.start dst 0 pending;
    t.buf <- dst;
    t.start <- 0;
    t.stop <- pending
  end

let feed t data =
  if t.dead then Malformed "splitter poisoned by earlier malformed input"
  else begin
    reserve t (Bytes.length data);
    Bytes.blit data 0 t.buf t.stop (Bytes.length data);
    t.stop <- t.stop + Bytes.length data;
    let out = ref [] in
    let err = ref None in
    let continue = ref true in
    while !continue do
      let have = t.stop - t.start in
      if have < header_len then continue := false
      else begin
        let code = Char.code (Bytes.get t.buf t.start) in
        match content_of_code code with
        | None ->
            t.dead <- true;
            err := Some (Printf.sprintf "unknown content type %d" code);
            continue := false
        | Some kind ->
            let len = Bytes.get_uint16_be t.buf (t.start + 2) in
            if len > max_body then begin
              t.dead <- true;
              err := Some (Printf.sprintf "record length %d exceeds limit" len);
              continue := false
            end
            else if have < header_len + len then continue := false
            else begin
              out := { kind; store = t.buf; off = t.start + header_len; len } :: !out;
              t.start <- t.start + header_len + len
            end
      end
    done;
    match !err with Some e -> Malformed e | None -> Records (List.rev !out)
  end
