(** Simulated TEE memory: byte regions with per-page protection, page
    sharing/revocation, metered copies, adversary hooks and an opt-in
    runtime double-fetch sanitizer.

    Stands in for SEV/TDX/SGX memory protection (DESIGN.md §1): [Private]
    pages fault on host access; [Shared] pages model bounce/ring memory.
    Accesses are checked but not recorded. *)

open Cio_util

type actor = Guest | Host

val actor_name : actor -> string

type prot = Private | Shared

type fault =
  | Host_access_private of { off : int; len : int; write : bool }
  | Out_of_bounds of { actor : actor; off : int; len : int; write : bool }

val pp_fault : Format.formatter -> fault -> unit

exception Fault of fault

type event = |
(** Uninhabited: see {!events}. *)

type t

val create :
  ?page_size:int ->
  ?prot:prot ->
  ?model:Cost.model ->
  ?meter:Cost.meter ->
  name:string ->
  int ->
  t
(** [create ~name size] makes a zeroed region. [prot] is the initial
    protection of every page (default [Shared]). An optional [meter]
    shares cycle accounting with the caller. *)

val name : t -> string
val size : t -> int
val page_size : t -> int
val page_count : t -> int
val meter : t -> Cost.meter
val model : t -> Cost.model

val events : t -> event list
(** Always [[]]: the region keeps no access log. The accessor exists only
    for the benchmark probe that reports events per frame. *)

val page_of : t -> int -> int
val prot_of_page : t -> int -> prot

val range_shared : t -> int -> int -> bool
(** True iff every page the range touches is shared. O(1) for an
    in-bounds range while the region has no private page (the region
    counts its private pages); otherwise a walk over the range's pages. *)

(** {1 Access} — each raises {!Fault} on a protection or bounds violation. *)

val guest_read : t -> off:int -> len:int -> bytes
val guest_write : t -> off:int -> bytes -> unit
val host_read : t -> off:int -> len:int -> bytes
val host_write : t -> off:int -> bytes -> unit

val guest_read_into : t -> off:int -> bytes -> unit
(** [guest_read_into t ~off dst] reads [Bytes.length dst] bytes at [off]
    into [dst] — same checks, sanitizer capture and read-hook ordering as
    {!guest_read}, without allocating. *)

val host_read_into : t -> off:int -> bytes -> unit

val read_into : t -> actor -> off:int -> bytes -> unit
(** {!guest_read_into} or {!host_read_into} by [actor]: lets a wrapper
    that serves both sides (the cionet ring's single-fetch header read)
    fetch into its own scratch buffer. *)

(** Little-endian word accessors. They check like {!guest_read} /
    {!host_write} and keep the same fetch semantics — a guest read of
    shared memory is captured by the sanitizer first and fires the read
    hook after; a Host write fires the write hook with [~len] the word
    size — but work on the region's bytes in place: no per-word buffer,
    and no allocation except the boxed [int64] of {!read_u64}. *)

val read_u8 : t -> actor -> off:int -> int
val read_u16 : t -> actor -> off:int -> int
val read_u32 : t -> actor -> off:int -> int
val read_u64 : t -> actor -> off:int -> int64
val write_u8 : t -> actor -> off:int -> int -> unit
val write_u16 : t -> actor -> off:int -> int -> unit
val write_u32 : t -> actor -> off:int -> int -> unit
val write_u64 : t -> actor -> off:int -> int64 -> unit

(** {1 Sharing and revocation} *)

val share_page : t -> int -> unit
val unshare_page : t -> int -> unit
val share_range : t -> off:int -> len:int -> unit
val unshare_range : t -> off:int -> len:int -> unit

(** {1 Metered copies} *)

val copy_in : t -> off:int -> len:int -> bytes
(** Guest pull of shared bytes into private memory; charges [Copy]. *)

val copy_in_into : t -> off:int -> bytes -> unit
(** {!copy_in} into a caller-provided buffer (length = [Bytes.length dst]);
    charges [Copy] without allocating. *)

val copy_out : t -> off:int -> bytes -> unit
(** Guest publish of private bytes; charges [Copy]. *)

val set_host_write_hook : t -> (off:int -> len:int -> unit) option -> unit
(** Install an adversary callback fired after every host write (used by
    the attack harness to interleave mutations deterministically). *)

val set_guest_read_hook : t -> (off:int -> len:int -> unit) option -> unit
(** Install an adversary callback fired after every guest read of shared
    memory: models a host core racing the guest between two fetches. *)

(** {1 Runtime double-fetch sanitizer}

    The dynamic counterpart of cio_lint's DF rule, and the region's only
    double-fetch detector. It is armed from the outside — by a test or
    fault campaign — and watches code that never asked to be watched:
    every guest fetch of a shared range is compared against the current
    epoch's earlier fetches, and overlaps are counted in
    {!sanitizer_stats} ([mutated_fetches] when the bytes changed in
    between). When disabled the cost is a single [None] branch per
    access. *)

type sanitizer_stats = { double_fetches : int; mutated_fetches : int; epochs : int }

val sanitizer_enable : t -> unit
(** Idempotent: re-enabling keeps existing counts. *)

val sanitizer_disable : t -> unit
val sanitizer_on : t -> bool

val sanitizer_epoch : t -> unit
(** Start a new epoch (one logical parse, e.g. one poll): forgets the
    recorded fetches but keeps the totals. Re-reading an index across
    epochs is legitimate; re-reading inside one is a double fetch. *)

val sanitizer_stats : t -> sanitizer_stats
