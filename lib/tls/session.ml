(* L5 secure channel session: PSK handshake + protected records.

   This is the mandatory TLS layer of §3.2: it guarantees integrity,
   confidentiality, ordering and replay protection *independently of the
   I/O stack below*, so a compromised stack (or host, or network) that
   replays, reorders, truncates or rewrites the TCP stream produces a
   detectable fatal error rather than wrong application data. Every
   failure is fatal and poisons the session — there is no error-recovery
   path to exploit. *)

open Cio_util
open Cio_crypto

type role = Client | Server

type error =
  | Auth_failed        (* AEAD/MAC verification failed: tamper or replay *)
  | Bad_format of string
  | Bad_state of string
  | Peer_alert
  | Payload_too_large of int  (* refused before sealing: over Wire.max_plaintext *)

let error_to_string = function
  | Auth_failed -> "authentication failed (tamper/replay/reorder)"
  | Bad_format s -> "malformed input: " ^ s
  | Bad_state s -> "protocol state violation: " ^ s
  | Peer_alert -> "peer sent fatal alert"
  | Payload_too_large n -> Printf.sprintf "payload of %d B exceeds %d B" n Wire.max_plaintext

type state =
  | Start
  | Wait_server_hello   (* client sent CH *)
  | Wait_client_finished  (* server sent SH + Finished *)
  | Wait_server_finished  (* client sent nothing yet; waiting for server Finished *)
  | Established
  | Dead

type t = {
  role : role;
  psk : bytes;
  psk_id : string;
  rng : Rng.t;
  meter : Cost.meter;
  model : Cost.model;
  splitter : Wire.splitter;
  mutable state : state;
  mutable my_random : bytes;
  mutable peer_random : bytes;
  mutable transcript : Buffer.t;
  mutable keys : Keys.t option;
  mutable send_seq : int64;
  mutable recv_seq : int64;
  mutable last_error : error option;
  mutable records_sent : int;
  mutable records_received : int;
}

let create ?(model = Cost.default) ?meter ~role ~psk ~psk_id ~rng () =
  {
    role;
    psk;
    psk_id;
    rng;
    meter = (match meter with Some m -> m | None -> Cost.meter ());
    model;
    splitter = Wire.splitter ();
    state = Start;
    my_random = Bytes.empty;
    peer_random = Bytes.empty;
    transcript = Buffer.create 128;
    keys = None;
    send_seq = 0L;
    recv_seq = 0L;
    last_error = None;
    records_sent = 0;
    records_received = 0;
  }

let is_established t = t.state = Established
let last_error t = t.last_error
let generation t = match t.keys with Some k -> k.Keys.generation | None -> -1
let records_sent t = t.records_sent
let records_received t = t.records_received
let meter t = t.meter

let die t err =
  t.state <- Dead;
  t.last_error <- Some err;
  Error err

let send_keys t (k : Keys.t) =
  match t.role with Client -> k.Keys.client | Server -> k.Keys.server

let recv_keys t (k : Keys.t) =
  match t.role with Client -> k.Keys.server | Server -> k.Keys.client

let ratchet t =
  match t.keys with
  | Some k ->
      t.keys <- Some (Keys.rekey k);
      t.send_seq <- 0L;
      t.recv_seq <- 0L
  | None -> ()

let charge_aead t nbytes = Cost.charge t.meter Cost.Crypto (Cost.aead_cost t.model nbytes)

(* Seal a plaintext into a protected wire record. The header (with the
   ciphertext length) is the AAD, so length tampering is also caught. *)
let seal_record t ~ctype plaintext =
  match t.keys with
  | None -> Error (Bad_state "no keys yet")
  | Some k ->
      let dk = send_keys t k in
      let clen = Bytes.length plaintext + Aead.tag_len in
      let aad = Wire.header ~ctype ~len:clen in
      let nonce = Keys.nonce ~iv:dk.Keys.iv ~seq:t.send_seq in
      let record = Bytes.create (Wire.header_len + clen) in
      Bytes.blit aad 0 record 0 Wire.header_len;
      Aead.seal_into ~key:dk.Keys.key ~nonce ~aad plaintext record ~off:Wire.header_len;
      charge_aead t (Bytes.length plaintext);
      t.send_seq <- Int64.add t.send_seq 1L;
      t.records_sent <- t.records_sent + 1;
      Ok record

let open_record t (r : Wire.view) =
  match t.keys with
  | None -> Error (Bad_state "protected record before key derivation")
  | Some k ->
      let dk = recv_keys t k in
      let aad = Wire.header ~ctype:r.Wire.kind ~len:r.Wire.len in
      let nonce = Keys.nonce ~iv:dk.Keys.iv ~seq:t.recv_seq in
      charge_aead t r.Wire.len;
      (match Aead.open_ ~off:r.Wire.off ~len:r.Wire.len ~key:dk.Keys.key ~nonce ~aad r.Wire.store with
      | Some plaintext ->
          (* The sequence number only advances on success: a replayed or
             reordered record authenticates against the wrong nonce and
             lands here as Auth_failed. *)
          t.recv_seq <- Int64.add t.recv_seq 1L;
          t.records_received <- t.records_received + 1;
          Ok plaintext
      | None -> Error Auth_failed)

(* Handshake message bodies. *)

let msg_client_hello = 1
let msg_server_hello = 2
let msg_finished = 3

let encode_client_hello t =
  let idb = Bytes.of_string t.psk_id in
  let b = Bytes.create (1 + 32 + 1 + Bytes.length idb) in
  Bytes.set b 0 (Char.chr msg_client_hello);
  Bytes.blit t.my_random 0 b 1 32;
  Bytes.set b 33 (Char.chr (Bytes.length idb));
  Bytes.blit idb 0 b 34 (Bytes.length idb);
  b

let encode_server_hello t =
  let b = Bytes.create 33 in
  Bytes.set b 0 (Char.chr msg_server_hello);
  Bytes.blit t.my_random 0 b 1 32;
  b

let transcript_hash t = Sha256.digest_bytes (Buffer.to_bytes t.transcript)

let finished_body t ~own =
  match t.keys with
  | None -> invalid_arg "finished_body: no keys"
  | Some k ->
      let fk =
        match (t.role, own) with
        | Client, true | Server, false -> k.Keys.client_finished_key
        | Server, true | Client, false -> k.Keys.server_finished_key
      in
      let mac = Keys.finished_mac ~finished_key:fk ~transcript:(transcript_hash t) in
      let b = Bytes.create 33 in
      Bytes.set b 0 (Char.chr msg_finished);
      Bytes.blit mac 0 b 1 32;
      b

let derive_keys t ~client_random ~server_random =
  t.keys <- Some (Keys.derive ~psk:t.psk ~client_random ~server_random);
  Cost.charge t.meter Cost.Crypto (4 * t.model.Cost.aead_base)

(* Client: produce the ClientHello that opens the connection. *)
let initiate t =
  match (t.role, t.state) with
  | Client, Start ->
      t.my_random <- Rng.bytes t.rng 32;
      let ch = encode_client_hello t in
      Buffer.add_bytes t.transcript ch;
      t.state <- Wait_server_hello;
      Ok [ Wire.encode { Wire.ctype = Wire.Handshake; body = ch } ]
  | Client, _ -> die t (Bad_state "initiate called twice")
  | Server, _ -> die t (Bad_state "server cannot initiate")

type feed_result = {
  outputs : bytes list;   (* wire bytes to hand to the transport *)
  app_data : bytes list;  (* decrypted application payloads *)
  err : error option;
}

let no_result = { outputs = []; app_data = []; err = None }

let handle_client_hello t body =
  if Bytes.length body < 34 then Error (Bad_format "short ClientHello")
  else begin
    let id_len = Char.code (Bytes.get body 33) in
    if Bytes.length body < 34 + id_len then Error (Bad_format "truncated psk id")
    else begin
      let peer_id = Bytes.sub_string body 34 id_len in
      if not (String.equal peer_id t.psk_id) then Error Auth_failed
      else begin
        t.peer_random <- Bytes.sub body 1 32;
        Buffer.add_bytes t.transcript body;
        t.my_random <- Rng.bytes t.rng 32;
        let sh = encode_server_hello t in
        Buffer.add_bytes t.transcript sh;
        derive_keys t ~client_random:t.peer_random ~server_random:t.my_random;
        let sh_record = Wire.encode { Wire.ctype = Wire.Handshake; body = sh } in
        match seal_record t ~ctype:Wire.Handshake (finished_body t ~own:true) with
        | Error e -> Error e
        | Ok fin_record ->
            t.state <- Wait_client_finished;
            Ok [ sh_record; fin_record ]
      end
    end
  end

let handle_server_hello t body =
  if Bytes.length body <> 33 then Error (Bad_format "bad ServerHello length")
  else begin
    t.peer_random <- Bytes.sub body 1 32;
    Buffer.add_bytes t.transcript body;
    derive_keys t ~client_random:t.my_random ~server_random:t.peer_random;
    t.state <- Wait_server_finished;
    Ok []
  end

let verify_finished t plaintext =
  if Bytes.length plaintext <> 33 || Char.code (Bytes.get plaintext 0) <> msg_finished then
    Error (Bad_format "bad Finished message")
  else begin
    let expected = finished_body t ~own:false in
    if Ct.equal (Bytes.sub expected 1 32) (Bytes.sub plaintext 1 32) then Ok () else Error Auth_failed
  end

let process_record t (r : Wire.view) =
  let msg_type = if r.Wire.len > 0 then Char.code (Bytes.get r.Wire.store r.Wire.off) else -1 in
  match (t.state, r.Wire.kind) with
  | Dead, _ -> Error (Bad_state "session dead")
  | Start, Wire.Handshake when t.role = Server && msg_type = msg_client_hello -> (
      match handle_client_hello t (Wire.body r) with Ok outs -> Ok (outs, []) | Error e -> Error e)
  | Start, _ -> Error (Bad_state "no handshake yet")
  | Wait_server_hello, Wire.Handshake when msg_type = msg_server_hello -> (
      match handle_server_hello t (Wire.body r) with Ok outs -> Ok (outs, []) | Error e -> Error e)
  | Wait_server_finished, Wire.Handshake -> (
      (* Protected server Finished. *)
      match open_record t r with
      | Error e -> Error e
      | Ok plaintext -> (
          match verify_finished t plaintext with
          | Error e -> Error e
          | Ok () -> (
              match seal_record t ~ctype:Wire.Handshake (finished_body t ~own:true) with
              | Error e -> Error e
              | Ok fin ->
                  t.state <- Established;
                  Ok ([ fin ], []))))
  | Wait_client_finished, Wire.Handshake -> (
      match open_record t r with
      | Error e -> Error e
      | Ok plaintext -> (
          match verify_finished t plaintext with
          | Error e -> Error e
          | Ok () ->
              t.state <- Established;
              Ok ([], [])))
  | Established, Wire.Data -> Result.map (fun pt -> ([], [ pt ])) (open_record t r)
  | Established, Wire.Rekey -> (
      match open_record t r with
      | Error e -> Error e
      | Ok _ ->
          ratchet t;
          Ok ([], []))
  | _, Wire.Alert -> Error Peer_alert
  | _, ct ->
      Error (Bad_state (Printf.sprintf "unexpected %s record" (Wire.content_name ct)))

let feed t stream_bytes =
  if t.state = Dead then { no_result with err = t.last_error }
  else begin
    match Wire.feed t.splitter stream_bytes with
    | Wire.Malformed e ->
        ignore (die t (Bad_format e));
        { no_result with err = t.last_error }
    | Wire.Records records ->
        let outputs = ref [] and app = ref [] and err = ref None in
        let rec go = function
          | [] -> ()
          | r :: rest -> (
              match process_record t r with
              | Ok (outs, data) ->
                  outputs := !outputs @ outs;
                  app := !app @ data;
                  go rest
              | Error e ->
                  ignore (die t e);
                  err := Some e)
        in
        go records;
        { outputs = !outputs; app_data = !app; err = !err }
  end

let send_data t payload =
  match t.state with
  | Established when Bytes.length payload > Wire.max_plaintext ->
      Error (Payload_too_large (Bytes.length payload))
  | Established -> seal_record t ~ctype:Wire.Data payload
  | _ -> Error (Bad_state "not established")

let initiate_rekey t =
  match t.state with
  | Established -> (
      match seal_record t ~ctype:Wire.Rekey Bytes.empty with
      | Error e -> Error e
      | Ok record ->
          ratchet t;
          Ok record)
  | _ -> Error (Bad_state "not established")

let alert _t = Wire.encode { Wire.ctype = Wire.Alert; body = Bytes.make 1 '\002' }
