(* The campaign engine: run a full dual-boundary echo session while a
   seeded fault plan is injected through the discrete-event engine, and
   report what was detected, how the datapath healed, and whether a
   single plaintext byte ever reached the host.

   Self-healing under test, layer by layer:

   - host stall / ring freeze   -> driver watchdog deadline, exponential
                                   backoff, generation-bumping ring reset
                                   (statelessness: nothing to re-negotiate);
   - silent frame drop          -> TCP retransmission, no L2 involvement;
   - ring header sabotage       -> confined by construction at L2
                                   (masked indices, clamped lengths,
                                   skipped malformed slots);
   - link adversary burst       -> TCP integrity + L5 AEAD;
   - TLS record tampering       -> fail-closed session death, then a
                                   fresh TCP connection + PSK handshake
                                   (zero renegotiation by design);
   - I/O-stack compartment crash-> crash containment behind L5, domain
                                   restart, reconnect; the app's secrets
                                   never existed below the TLS boundary.

   Determinism: every random choice flows from the plan seed, injections
   are Engine-scheduled at absolute simulated times, and the report
   contains only counted quantities — same seed, byte-identical report. *)

open Cio_util
open Cio_core
open Cio_netsim
open Cio_cionet
module Trace = Cio_telemetry.Trace
module Kind = Cio_telemetry.Kind
module Region = Cio_mem.Region

(* One span per fault, from injection to the first post-injection round
   trip: the span's extent *is* the recovery time in virtual time. *)
let fault_span_name kind = Format.asprintf "%a" Plan.pp_kind kind

type config = {
  quantum_ns : int64;      (* engine advance per pump step *)
  watchdog_budget : int;   (* watchdog deadline in poll ticks *)
  target_echoes : int;     (* minimum successful echoes overall *)
  max_steps : int;
  payload_pad : int;       (* pad canary payloads up to this size *)
  sanitize : bool;         (* arm Region's double-fetch sanitizer on the
                              driver region, one epoch per pump step *)
  overload : Cio_overload.Plane.config option;
      (* stand up the overload-control plane on the unit (admission at
         the channel, bounded TX queue, shared retry budget, breaker on
         the watchdog); None = classic unguarded campaign *)
}

let default_config =
  { quantum_ns = 10_000L; watchdog_budget = 1_500; target_echoes = 24;
    max_steps = 400_000; payload_pad = 256; sanitize = false; overload = None }

type fault_report = {
  kind : Plan.kind;
  injected_at : int;
  classification : string;
  detected : bool;  (* false = tolerated silently (by construction/transport) *)
  recovered_in_steps : int option;
  recovered_in_cycles : int option;
}

type t = {
  seed : int64;
  steps : int;
  sent : int;
  echoes : int;
  lost : int;     (* in-flight messages abandoned by fail-closed recovery *)
  integrity_failures : int;
  leaks : int;
  confined : int; (* L2 constructions that fired: clamps + masks + skips *)
  sanitizer_double_fetches : int;
      (* overlapping same-epoch guest fetches seen by the runtime
         sanitizer; 0 unless [config.sanitize], and expected to stay 0
         over the safe cionet datapath (single fetch by construction) *)
  sanitizer_mutated_fetches : int;
  stalls_detected : int;
  resets : int;
  reconnects : int;
  crashes : int;
  restarts : int;
  (* Overload plane accounting; all zero / "closed" when the plane is
     disabled, so classic reports stay byte-identical. *)
  admitted : int;
  shed : int;
  breaker_transitions : int;
  breaker_state : string;
  faults : fault_report list;
  survived : bool;
}

let all_recovered t =
  t.faults <> []
  && List.for_all (fun f -> f.recovered_in_steps <> None) t.faults

(* Topology constants (same shape as the hand-wired experiments). *)
let ip_tee = Cio_frame.Addr.ipv4_of_octets 10 0 0 1
let ip_peer = Cio_frame.Addr.ipv4_of_octets 10 0 0 2
let mac_tee = Cio_frame.Addr.mac_of_octets 2 0 0 0 0 1
let mac_peer = Cio_frame.Addr.mac_of_octets 2 0 0 0 0 2
let echo_port = 443
let psk = Bytes.of_string "attestation-provisioned-psk-32b!"
let psk_id = "fault-campaign"

(* Flip one bit inside a TCP payload (a TLS record in flight), fixing the
   checksums up so the tamper survives L2–L4 and must be caught — and is,
   fail-closed — by the L5 AEAD. *)
let tamper_tls_record frame =
  let open Cio_frame in
  match Ethernet.parse frame with
  | Error _ -> None
  | Ok eth -> (
      match eth.Ethernet.ethertype with
      | Ethernet.Ipv4 -> (
          match Ipv4.parse eth.Ethernet.payload with
          | Ok ip when ip.Ipv4.protocol = Ipv4.Tcp -> (
              match Tcp_wire.parse ~src_ip:ip.Ipv4.src ~dst_ip:ip.Ipv4.dst ip.Ipv4.payload with
              | Ok seg when Bytes.length seg.Tcp_wire.payload > 5 ->
                  let p = Bytes.copy seg.Tcp_wire.payload in
                  let i = Bytes.length p - 1 in
                  Bytes.set p i (Char.chr (Char.code (Bytes.get p i) lxor 0x01));
                  let tcp' = Tcp_wire.build ~src_ip:ip.Ipv4.src ~dst_ip:ip.Ipv4.dst
                      { seg with Tcp_wire.payload = p } in
                  let ip' = Ipv4.build { ip with Ipv4.payload = tcp' } in
                  Some (Ethernet.build { eth with Ethernet.payload = ip' })
              | _ -> None)
          | _ -> None)
      | _ -> None)

type snap = {
  s_recovery : Cio_observe.Recovery.counts;
  s_confined : int;
  s_crashes : int;
  s_cycles : int;
}

type frec = {
  f_kind : Plan.kind;
  f_at : int;
  mutable f_applied : bool;
  mutable f_sent0 : int;  (* send counter when injected *)
  mutable f_snap : snap option;
  mutable f_resolved : (int * snap) option;
}

let classify kind ~d_recovery ~d_confined ~d_crashes =
  let open Cio_observe in
  ignore kind;
  if d_crashes > 0 then ("crash contained; I/O domain restarted behind L5", true)
  else if d_recovery.Recovery.reconnects > 0 then
    ("fail-closed at L5; fresh TCP + PSK session", true)
  else if d_recovery.Recovery.stalls_detected > 0 then
    ("stall detected; watchdog generation-bump reset", true)
  else if d_confined > 0 then ("confined at L2 by construction", true)
  else ("tolerated silently (transport absorbed it)", false)

let run ?(config = default_config) (plan : Plan.t) =
  let engine = Engine.create () in
  if Trace.on () then begin
    Trace.set_clock (fun () -> Engine.now engine);
    Trace.span_begin ~cat:Kind.fault "campaign"
  end;
  let link = Link.create ~latency_ns:5_000L ~gbps:10.0 engine in
  let rng = Rng.create plan.Plan.seed in
  let now () = Engine.now engine in
  let peer =
    Peer.create ~link ~endpoint:Link.B ~ip:ip_peer ~mac:mac_peer
      ~neighbors:[ (ip_tee, mac_tee) ] ~psk ~psk_id ~rng:(Rng.split rng) ~now ()
  in
  Peer.serve_echo peer ~port:echo_port;
  let unit_ =
    Dual.create ~mac:mac_tee ~name:"fault-campaign" ~ip:ip_tee
      ~neighbors:[ (ip_peer, mac_peer) ] ?overload:config.overload ~psk ~psk_id
      ~rng:(Rng.split rng) ~now ()
  in
  let plane = Dual.overload unit_ in
  let host =
    Host_model.create ~driver:(Dual.driver unit_)
      ~transmit:(fun f -> Link.send link ~src:Link.A f)
  in
  Link.attach link Link.A (fun f -> Host_model.deliver_rx host f);
  let recovery = Dual.recovery unit_ in
  let wd =
    Watchdog.create ~poll_budget:config.watchdog_budget ~recovery
      ~on_reset:(fun () -> Host_model.reattach host ~driver:(Dual.driver unit_))
      ?breaker:(Option.map Cio_overload.Plane.breaker plane)
      ?retry_budget:(Option.map Cio_overload.Plane.retry_budget plane)
      (Dual.driver unit_)
  in
  (* Leak detection: every frame entering the link — both directions, the
     complete host-visible surface — is scanned for the canary that every
     app payload embeds. *)
  let leaks = ref 0 in
  Link.set_transit_tap link
    (Some (fun ~time:_ ~src:_ frame -> if Cio_attack.Attack.contains_canary frame then incr leaks));
  (* L2 confinement accounting, accumulated across ring generations. *)
  let conf_of () =
    let d = Dual.driver unit_ in
    let c r =
      let k = Ring.counters r in
      k.Ring.len_clamped + k.Ring.index_masked + k.Ring.state_skipped
    in
    c (Driver.tx_ring d) + c (Driver.rx_ring d)
  in
  let confined_acc = ref 0 in
  let last_conf = ref 0 in
  let last_gen = ref (Driver.generation (Dual.driver unit_)) in
  let sample_confinement () =
    let g = Driver.generation (Dual.driver unit_) in
    let c = conf_of () in
    if g = !last_gen then confined_acc := !confined_acc + (c - !last_conf)
    else confined_acc := !confined_acc + c;
    last_conf := c;
    last_gen := g
  in
  (* Runtime double-fetch sanitizer: armed on the driver's region, one
     epoch per pump step (a poll is one logical parse). A compartment
     restart replaces driver and region, so bank the dead region's totals
     and re-arm the new one. *)
  let san_double = ref 0 in
  let san_mutated = ref 0 in
  let san_region = ref None in
  let bank_sanitizer r =
    let s = Region.sanitizer_stats r in
    san_double := !san_double + s.Region.double_fetches;
    san_mutated := !san_mutated + s.Region.mutated_fetches
  in
  let sample_sanitizer () =
    if config.sanitize then begin
      let r = Driver.region (Dual.driver unit_) in
      (match !san_region with
      | Some r0 when r0 == r -> ()
      | prev ->
          (match prev with Some r0 -> bank_sanitizer r0 | None -> ());
          Region.sanitizer_enable r;
          san_region := Some r);
      Region.sanitizer_epoch r
    end
  in
  let comp () = Cio_compartment.Compartment.counters (Dual.world unit_) in
  let snap () =
    {
      s_recovery = Cio_observe.Recovery.snapshot recovery;
      s_confined = !confined_acc;
      s_crashes = (comp ()).Cio_compartment.Compartment.crashes;
      s_cycles = Cost.total (Dual.meter unit_);
    }
  in
  (* Campaign state. *)
  let steps = ref 0 in
  let sent = ref 0 in
  let echoes = ref 0 in
  let lost = ref 0 in
  let integrity = ref 0 in
  let outstanding : bytes Queue.t = Queue.create () in
  let ch = ref (Dual.connect unit_ ~dst:ip_peer ~dst_port:echo_port) in
  let drop_outstanding () =
    lost := !lost + Queue.length outstanding;
    Queue.clear outstanding
  in
  (* Link adversary for burst windows. *)
  let adversary = Adversary.create ~rng:(Rng.split rng) Adversary.hostile in
  let burst_until = ref (-1) in
  (* One-shot TLS record tamper, armed by injection, fired on the next
     payload-bearing frame toward the guest. *)
  let tamper_armed = ref false in
  Link.set_tamper link ~src:Link.B
    (Some
       (fun frame ->
         if !tamper_armed then
           match tamper_tls_record frame with
           | Some frame' ->
               tamper_armed := false;
               [ { Link.extra_delay_ns = 0L; frame = frame' } ]
           | None -> [ { Link.extra_delay_ns = 0L; frame } ]
         else [ { Link.extra_delay_ns = 0L; frame } ]));
  (* Schedule the plan through the event engine. *)
  let records =
    List.map
      (fun { Plan.at_step; kind } ->
        { f_kind = kind; f_at = at_step; f_applied = false; f_sent0 = 0; f_snap = None;
          f_resolved = None })
      plan.Plan.injections
  in
  let inject r =
    r.f_applied <- true;
    r.f_sent0 <- !sent;
    r.f_snap <- Some (snap ());
    Cio_observe.Recovery.fault_injected recovery;
    if Trace.on () then Trace.span_begin ~cat:Kind.fault (fault_span_name r.f_kind);
    match r.f_kind with
    | Plan.Host_stall n -> Host_model.inject host (Host_model.Stall n)
    | Plan.Host_ring_freeze n -> Host_model.inject host (Host_model.Ring_freeze n)
    | Plan.Host_silent_drop n -> Host_model.inject host (Host_model.Silent_drop n)
    | Plan.Host_lie_len v -> Host_model.inject host (Host_model.Lie_len v)
    | Plan.Host_bad_index v -> Host_model.inject host (Host_model.Bad_index v)
    | Plan.Host_garbage_state v -> Host_model.inject host (Host_model.Garbage_state v)
    | Plan.Host_race_header v -> Host_model.inject host (Host_model.Race_header v)
    | Plan.Host_corrupt_payload -> Host_model.inject host Host_model.Corrupt_payload
    | Plan.Host_replay_slot -> Host_model.inject host Host_model.Replay_slot
    | Plan.Link_burst n ->
        Link.set_tamper link ~src:Link.A (Some (Adversary.tamper adversary));
        burst_until := r.f_at + n
    | Plan.Record_tamper -> tamper_armed := true
    | Plan.Stack_crash n ->
        Dual.crash_io unit_;
        Engine.schedule engine
          ~after:(Int64.mul (Int64.of_int n) config.quantum_ns)
          (fun () ->
            Dual.restart_io unit_;
            Host_model.reattach host ~driver:(Dual.driver unit_);
            drop_outstanding ();
            ch := Dual.reconnect unit_ !ch)
  in
  List.iter
    (fun r ->
      Engine.schedule_at engine
        ~time:(Int64.mul (Int64.of_int r.f_at) config.quantum_ns)
        (fun () -> inject r))
    records;
  (* The pump. *)
  let payload seq =
    let base = Printf.sprintf "%s #%06d" Cio_attack.Attack.canary seq in
    let b = Bytes.make (max config.payload_pad (String.length base)) '.' in
    Bytes.blit_string base 0 b 0 (String.length base);
    b
  in
  let done_ () =
    List.for_all (fun r -> r.f_applied && r.f_resolved <> None) records
    && !echoes >= config.target_echoes
  in
  while (not (done_ ())) && !steps < config.max_steps do
    incr steps;
    sample_sanitizer ();
    Dual.poll unit_;
    Host_model.poll host;
    Peer.poll peer;
    Engine.advance engine ~by:config.quantum_ns;
    sample_confinement ();
    if Dual.io_alive unit_ then begin
      Watchdog.tick wd ~expecting_rx:(not (Queue.is_empty outstanding));
      (* Fail-closed recovery: a poisoned session can only be replaced. *)
      match Channel.error !ch with
      | Some _ ->
          drop_outstanding ();
          ch := Dual.reconnect unit_ !ch
      | None -> ()
    end;
    if !burst_until >= 0 && !steps >= !burst_until then begin
      Link.set_tamper link ~src:Link.A None;
      burst_until := -1
    end;
    if Channel.is_established !ch && Queue.length outstanding < 2 then begin
      let p = payload !sent in
      (* Priority-class mix: a trickle of control traffic (always
         admitted, even breaker-open), alternating bulk/interactive for
         the rest — so a shedding plane demonstrably sheds bulk first. *)
      let klass =
        if !sent mod 5 = 0 then Cio_overload.Admission.Control
        else if !sent mod 2 = 1 then Cio_overload.Admission.Bulk
        else Cio_overload.Admission.Interactive
      in
      match
        Channel.send_admitted ~klass
          ?deadline:(Option.map Cio_overload.Plane.deadline plane)
          !ch p
      with
      | Channel.Sent ->
          incr sent;
          Queue.add p outstanding
      | Channel.Shed _ | Channel.Send_error _ -> ()
    end;
    match Channel.recv !ch with
    | Some m ->
        incr echoes;
        (match Queue.take_opt outstanding with
        | Some expect when Bytes.equal m expect -> ()
        | Some _ | None -> incr integrity);
        (* A fault counts as resolved only once a message *sent after the
           injection* completes a full round trip — an in-flight pre-fault
           echo proves nothing about recovery. *)
        let seq =
          let off = String.length Cio_attack.Attack.canary + 2 in
          if Bytes.length m >= off + 6 then
            int_of_string_opt (Bytes.sub_string m off 6)
          else None
        in
        let s = snap () in
        List.iter
          (fun r ->
            if r.f_applied && r.f_resolved = None
               && (match seq with Some q -> q >= r.f_sent0 | None -> false)
            then begin
              r.f_resolved <- Some (!steps, s);
              if Trace.on () then
                Trace.span_end ~cat:Kind.fault (fault_span_name r.f_kind)
            end)
          records
    | None -> ()
  done;
  Link.set_transit_tap link None;
  if Trace.on () then begin
    (* Close spans for faults that never resolved, then the campaign. *)
    List.iter
      (fun r ->
        if r.f_applied && r.f_resolved = None then
          Trace.span_end ~cat:Kind.fault (fault_span_name r.f_kind))
      records;
    Trace.span_end ~cat:Kind.fault "campaign"
  end;
  let end_snap = snap () in
  let faults =
    List.map
      (fun r ->
        let s0 = match r.f_snap with Some s -> s | None -> end_snap in
        let s1, rec_steps =
          match r.f_resolved with
          | Some (step, s1) -> (s1, Some (step - r.f_at))
          | None -> (end_snap, None)
        in
        let d_recovery =
          Cio_observe.Recovery.diff ~before:s0.s_recovery ~after:s1.s_recovery
        in
        let classification, detected =
          if not r.f_applied then ("never injected (campaign ended first)", false)
          else
            classify r.f_kind ~d_recovery
              ~d_confined:(s1.s_confined - s0.s_confined)
              ~d_crashes:(s1.s_crashes - s0.s_crashes)
        in
        {
          kind = r.f_kind;
          injected_at = r.f_at;
          classification;
          detected;
          recovered_in_steps = rec_steps;
          recovered_in_cycles =
            (match r.f_resolved with Some (_, s1) -> Some (s1.s_cycles - s0.s_cycles) | None -> None);
        })
      records
  in
  (match !san_region with Some r -> bank_sanitizer r | None -> ());
  let rec_ = Cio_observe.Recovery.snapshot recovery in
  let c = comp () in
  {
    seed = plan.Plan.seed;
    steps = !steps;
    sent = !sent;
    echoes = !echoes;
    lost = !lost;
    integrity_failures = !integrity;
    leaks = !leaks;
    confined = !confined_acc;
    sanitizer_double_fetches = !san_double;
    sanitizer_mutated_fetches = !san_mutated;
    stalls_detected = rec_.Cio_observe.Recovery.stalls_detected;
    resets = rec_.Cio_observe.Recovery.resets;
    reconnects = rec_.Cio_observe.Recovery.reconnects;
    crashes = c.Cio_compartment.Compartment.crashes;
    restarts = c.Cio_compartment.Compartment.restarts;
    admitted = (match plane with Some p -> Cio_overload.Plane.admitted p | None -> 0);
    shed = (match plane with Some p -> Cio_overload.Plane.shed p | None -> 0);
    breaker_transitions =
      (match plane with
      | Some p -> Cio_overload.Breaker.transitions (Cio_overload.Plane.breaker p)
      | None -> 0);
    breaker_state =
      (match plane with
      | Some p ->
          Cio_overload.Breaker.state_name
            (Cio_overload.Breaker.state (Cio_overload.Plane.breaker p))
      | None -> "closed");
    faults;
    survived =
      !echoes >= config.target_echoes && !integrity = 0 && !leaks = 0
      && List.for_all (fun r -> r.f_applied && r.f_resolved <> None) records;
  }

let pp ppf t =
  Format.fprintf ppf "  campaign seed=%Ld: %d faults over %d steps@." t.seed
    (List.length t.faults) t.steps;
  List.iter
    (fun f ->
      Format.fprintf ppf "    step %6d  %-28s -> %s%s@." f.injected_at
        (Format.asprintf "%a" Plan.pp_kind f.kind)
        f.classification
        (match (f.recovered_in_steps, f.recovered_in_cycles) with
        | Some s, Some c -> Format.asprintf "; recovered in %d steps / %d cycles" s c
        | _ -> "; NOT RECOVERED"))
    t.faults;
  Format.fprintf ppf
    "    echoes %d/%d sent (%d lost in-flight to fail-closed recovery), integrity failures %d@."
    t.echoes t.sent t.lost t.integrity_failures;
  Format.fprintf ppf
    "    L2 confinements %d; stalls detected %d; ring resets %d; reconnects %d; domain crashes %d (restarts %d)@."
    t.confined t.stalls_detected t.resets t.reconnects t.crashes t.restarts;
  if t.sanitizer_double_fetches > 0 || t.sanitizer_mutated_fetches > 0 then
    Format.fprintf ppf "    sanitizer: %d double fetch(es), %d mutated between reads@."
      t.sanitizer_double_fetches t.sanitizer_mutated_fetches;
  if t.admitted + t.shed + t.breaker_transitions > 0 then
    Format.fprintf ppf
      "    overload plane: %d admitted, %d shed; breaker %s after %d transition(s)@."
      t.admitted t.shed t.breaker_state t.breaker_transitions;
  Format.fprintf ppf "    canary leaks to host: %d; survived: %s@." t.leaks
    (if t.survived then "yes" else "NO")

(* Machine-readable report (cio-campaign-v1 payload): every counted
   quantity, flat, for CI artifacts and offline diffing. *)
let to_json buf t =
  let key name = Printf.bprintf buf "\"%s\":" name in
  let field name value = key name; Buffer.add_string buf value in
  let str_field name s = key name; Json.add_string buf s in
  let int_field name v = field name (string_of_int v) in
  Buffer.add_char buf '{';
  field "seed" (Printf.sprintf "%Ld" t.seed);
  Buffer.add_char buf ',';
  int_field "steps" t.steps; Buffer.add_char buf ',';
  int_field "sent" t.sent; Buffer.add_char buf ',';
  int_field "echoes" t.echoes; Buffer.add_char buf ',';
  int_field "lost" t.lost; Buffer.add_char buf ',';
  int_field "integrity_failures" t.integrity_failures; Buffer.add_char buf ',';
  int_field "leaks" t.leaks; Buffer.add_char buf ',';
  int_field "confined" t.confined; Buffer.add_char buf ',';
  int_field "stalls_detected" t.stalls_detected; Buffer.add_char buf ',';
  int_field "resets" t.resets; Buffer.add_char buf ',';
  int_field "reconnects" t.reconnects; Buffer.add_char buf ',';
  int_field "crashes" t.crashes; Buffer.add_char buf ',';
  int_field "restarts" t.restarts; Buffer.add_char buf ',';
  int_field "admitted" t.admitted; Buffer.add_char buf ',';
  int_field "shed" t.shed; Buffer.add_char buf ',';
  int_field "breaker_transitions" t.breaker_transitions; Buffer.add_char buf ',';
  str_field "breaker_state" t.breaker_state; Buffer.add_char buf ',';
  Printf.bprintf buf "\"faults\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '{';
      str_field "kind" (Format.asprintf "%a" Plan.pp_kind f.kind);
      Buffer.add_char buf ',';
      int_field "injected_at" f.injected_at; Buffer.add_char buf ',';
      field "detected" (if f.detected then "true" else "false"); Buffer.add_char buf ',';
      field "recovered_in_steps"
        (match f.recovered_in_steps with Some s -> string_of_int s | None -> "null");
      Buffer.add_char buf '}')
    t.faults;
  Buffer.add_string buf "],";
  field "survived" (if t.survived then "true" else "false");
  Buffer.add_char buf '}'
