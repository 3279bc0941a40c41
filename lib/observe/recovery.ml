(* Fault/recovery counters for the self-healing datapath.

   One live record shared by the driver watchdog (stall detection, ring
   resets), the dual-boundary unit (I/O-domain crash/restart, channel
   reconnects) and the fault-campaign engine (injections). Consumers
   only ever see immutable [counts] snapshots; the old API returned the
   mutable record itself and merely promised not to touch it. *)

type t = {
  mutable live_faults : int;
  mutable live_stalls : int;
  mutable live_resets : int;
  mutable live_reconnects : int;
}

type counts = {
  faults_injected : int;
  stalls_detected : int;
  resets : int;
  reconnects : int;
}

let create () =
  { live_faults = 0; live_stalls = 0; live_resets = 0; live_reconnects = 0 }

let fault_injected t = t.live_faults <- t.live_faults + 1
let stall_detected t = t.live_stalls <- t.live_stalls + 1
let reset t = t.live_resets <- t.live_resets + 1
let reconnect t = t.live_reconnects <- t.live_reconnects + 1

let snapshot t =
  {
    faults_injected = t.live_faults;
    stalls_detected = t.live_stalls;
    resets = t.live_resets;
    reconnects = t.live_reconnects;
  }

let diff ~before ~after =
  {
    faults_injected = after.faults_injected - before.faults_injected;
    stalls_detected = after.stalls_detected - before.stalls_detected;
    resets = after.resets - before.resets;
    reconnects = after.reconnects - before.reconnects;
  }

let pp ppf c =
  Format.fprintf ppf "faults injected %d, stalls detected %d, resets %d, reconnects %d"
    c.faults_injected c.stalls_detected c.resets c.reconnects
