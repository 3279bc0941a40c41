(** Fault/recovery counters shared by the driver watchdog, the
    dual-boundary unit and the fault-campaign engine.

    A live [t] is mutable and private to this module; consumers read it
    through {!snapshot}, which returns a plain immutable {!counts}
    record. *)

type t
(** Live, mutable counter set. *)

type counts = {
  faults_injected : int;
  stalls_detected : int;
  resets : int;
  reconnects : int;
}
(** Immutable snapshot / delta. *)

val create : unit -> t

val fault_injected : t -> unit
val stall_detected : t -> unit
val reset : t -> unit
val reconnect : t -> unit

val snapshot : t -> counts

val diff : before:counts -> after:counts -> counts

val pp : Format.formatter -> counts -> unit
