(* Shared fixtures for the test suites. *)

open Cio_frame

let check_bytes msg expected actual =
  Alcotest.(check string) msg (Bytes.to_string expected) (Bytes.to_string actual)

let hex = Cio_util.Hex.to_bytes

let mac_a = Addr.mac_of_octets 0x02 0 0 0 0 0x01
let mac_b = Addr.mac_of_octets 0x02 0 0 0 0 0x02
let ip_a = Addr.ipv4_of_octets 10 0 0 1
let ip_b = Addr.ipv4_of_octets 10 0 0 2

(* A pair of stacks wired through loopback netifs with a shared manual
   clock: the minimal closed world for transport-layer tests. *)
type stack_pair = {
  stack_a : Cio_tcpip.Stack.t;
  stack_b : Cio_tcpip.Stack.t;
  clock : int64 ref;
}

let make_stack_pair ?(seed = 42L) () =
  let nif_a, nif_b = Cio_tcpip.Netif.loopback_pair ~mac_a ~mac_b ~mtu:1500 in
  let clock = ref 0L in
  let now () = !clock in
  let rng = Cio_util.Rng.create seed in
  let stack_a =
    Cio_tcpip.Stack.create ~netif:nif_a ~ip:ip_a ~neighbors:[ (ip_b, mac_b) ] ~now
      ~rng:(Cio_util.Rng.split rng) ()
  in
  let stack_b =
    Cio_tcpip.Stack.create ~netif:nif_b ~ip:ip_b ~neighbors:[ (ip_a, mac_a) ] ~now
      ~rng:(Cio_util.Rng.split rng) ()
  in
  { stack_a; stack_b; clock }

let step ?(ms = 1) pair =
  Cio_tcpip.Stack.poll pair.stack_a;
  Cio_tcpip.Stack.poll pair.stack_b;
  pair.clock := Int64.add !(pair.clock) (Int64.of_int (ms * 1_000_000))

let run_until ?(max_steps = 10_000) pair pred =
  let rec go n =
    if pred () then true
    else if n = 0 then false
    else begin
      step pair;
      go (n - 1)
    end
  in
  go max_steps

(* Established TCP connection pair over loopback. *)
let connected_pair ?seed () =
  let pair = make_stack_pair ?seed () in
  let tcp_a = Cio_tcpip.Stack.tcp pair.stack_a and tcp_b = Cio_tcpip.Stack.tcp pair.stack_b in
  let listener = Cio_tcpip.Tcp.listen tcp_b ~port:7777 () in
  let client = Cio_tcpip.Tcp.connect tcp_a ~dst:ip_b ~dst_port:7777 () in
  let server = ref None in
  let ok =
    run_until pair (fun () ->
        (match !server with None -> server := Cio_tcpip.Tcp.accept listener | Some _ -> ());
        Cio_tcpip.Tcp.conn_state client = Cio_tcpip.Tcp.Established && !server <> None)
  in
  if not ok then failwith "helpers.connected_pair: handshake did not complete";
  (pair, client, Option.get !server)

(* Pump [data] from [src_conn] on stack [src] to [dst_conn], returning
   what arrived. *)
let transfer pair ~src_tcp ~src_conn ~dst_tcp ~dst_conn data =
  let sent = ref 0 in
  let received = Buffer.create (Bytes.length data) in
  let total = Bytes.length data in
  let ok =
    run_until pair (fun () ->
        if !sent < total then begin
          let n =
            Cio_tcpip.Tcp.send src_tcp src_conn
              (Bytes.sub data !sent (min 8192 (total - !sent)))
          in
          sent := !sent + n;
          Cio_tcpip.Tcp.flush src_tcp src_conn
        end;
        Buffer.add_bytes received (Cio_tcpip.Tcp.recv dst_tcp dst_conn ~max:65536);
        Buffer.length received >= total)
  in
  if not ok then failwith "helpers.transfer: did not complete";
  Buffer.to_bytes received

(* TLS session pair, established. *)
let tls_pair ?(psk = Bytes.of_string "0123456789abcdef0123456789abcdef") ?(psk_id = "test") () =
  let rng = Cio_util.Rng.create 7L in
  let client = Cio_tls.Session.create ~role:Cio_tls.Session.Client ~psk ~psk_id ~rng () in
  let server = Cio_tls.Session.create ~role:Cio_tls.Session.Server ~psk ~psk_id ~rng () in
  let cat l = List.fold_left Bytes.cat Bytes.empty l in
  let f1 = match Cio_tls.Session.initiate client with Ok o -> cat o | Error _ -> failwith "initiate" in
  let r1 = Cio_tls.Session.feed server f1 in
  let r2 = Cio_tls.Session.feed client (cat r1.Cio_tls.Session.outputs) in
  ignore (Cio_tls.Session.feed server (cat r2.Cio_tls.Session.outputs));
  (client, server)

let cat_bytes l = List.fold_left Bytes.cat Bytes.empty l

let qtest = QCheck_alcotest.to_alcotest

(* Bytes allocated so far. [Gc.allocated_bytes] is not used: on OCaml
   5.1 its minor-heap count is wrong both ways. It under-reports about
   eightfold (it gave 13,012 B for 100 fresh 1000-byte buffers), and when
   a minor collection falls inside the measured window it over-reports
   (166,084 words for a window in which [Gc.minor_words] counted 44).
   [Gc.minor_words] is exact. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* Locate the repository root from wherever the test binary runs (dune
   executes it in _build/default/test, and dune copies the sources into
   _build/default, so walking up finds a complete lib/ tree). *)
let repo_root () =
  let marker = Filename.concat "lib" (Filename.concat "virtio" "driver_unhardened.ml") in
  let rec go dir =
    if Sys.file_exists (Filename.concat dir marker) then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else go parent
  in
  match go (Sys.getcwd ()) with
  | Some d -> d
  | None -> Alcotest.fail "repo root (containing lib/) not found above cwd"
