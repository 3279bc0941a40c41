(* Simulated TEE memory: a byte region with per-page protection.

   This module is the root substitution of the reproduction (DESIGN.md §1):
   it stands in for SEV/TDX/SGX memory protection. Pages are either
   [Private] (guest-only; host access faults, modelling memory encryption +
   RMP/EPT protection) or [Shared] (host-visible bounce/ring memory).
   Accesses are checked, not recorded: the only double-fetch detector is
   the opt-in per-epoch sanitizer below, and the adversary hooks let the
   attack harness race the guest between two fetches. *)

open Cio_util
module Metrics = Cio_telemetry.Metrics

type actor = Guest | Host

let actor_name = function Guest -> "guest" | Host -> "host"

type prot = Private | Shared

type fault =
  | Host_access_private of { off : int; len : int; write : bool }
  | Out_of_bounds of { actor : actor; off : int; len : int; write : bool }

let pp_fault ppf = function
  | Host_access_private { off; len; write } ->
      Fmt.pf ppf "host %s of private memory [%d..%d)"
        (if write then "write" else "read")
        off (off + len)
  | Out_of_bounds { actor; off; len; write } ->
      Fmt.pf ppf "%s out-of-bounds %s [%d..%d)" (actor_name actor)
        (if write then "write" else "read")
        off (off + len)

exception Fault of fault

type event = |

type t = {
  name : string;
  data : bytes;
  page_size : int;
  prot : prot array;
  meter : Cost.meter;
  model : Cost.model;
  mutable host_write_hook : (off:int -> len:int -> unit) option;
  mutable guest_read_hook : (off:int -> len:int -> unit) option;
      (* fired after each guest read of shared memory: lets the attack
         harness model a host racing the guest between two fetches *)
  mutable san : san option;
      (* opt-in double-fetch sanitizer: when on, every guest fetch of
         shared memory is checked against the epoch's earlier fetches *)
}

(* Runtime double-fetch sanitizer state. The sanitizer is armed from the
   outside — by a test or fault campaign — and watches code that never
   asked to be watched. An epoch is one logical parse (one poll);
   re-reading an index across epochs is legitimate, re-reading inside one
   is the Fig. 3/4 double fetch. *)
and san = {
  mutable s_fetches : (int * int * string) list;  (* off, len, snapshot *)
  mutable s_double : int;
  mutable s_mutated : int;
  mutable s_epochs : int;
}

let create ?(page_size = 4096) ?(prot = Shared) ?(model = Cost.default) ?meter ~name size =
  if size <= 0 then invalid_arg "Region.create: size must be positive";
  if not (Bitops.is_power_of_two page_size) then
    invalid_arg "Region.create: page size must be a power of two";
  let pages = (size + page_size - 1) / page_size in
  {
    name;
    data = Bytes.make size '\000';
    page_size;
    prot = Array.make pages prot;
    meter = (match meter with Some m -> m | None -> Cost.meter ());
    model;
    host_write_hook = None;
    guest_read_hook = None;
    san = None;
  }

let name t = t.name
let size t = Bytes.length t.data
let page_size t = t.page_size
let page_count t = Array.length t.prot
let meter t = t.meter
let model t = t.model

let events _ = []

let page_of t off = off / t.page_size

let prot_of_page t page =
  if page < 0 || page >= Array.length t.prot then
    invalid_arg "Region.prot_of_page: bad page";
  t.prot.(page)

let range_ok t off len = off >= 0 && len >= 0 && off + len <= Bytes.length t.data

(* A range is host-accessible only if every page it touches is shared. *)
let range_shared t off len =
  let first = page_of t off and last = page_of t (off + len - 1) in
  let rec go p = p > last || (t.prot.(p) = Shared && go (p + 1)) in
  len = 0 || go first

let check_access t actor off len ~write =
  if not (range_ok t off len) then
    raise (Fault (Out_of_bounds { actor; off; len; write }));
  match actor with
  | Guest -> ()
  | Host ->
      if len > 0 && not (range_shared t off len) then
        raise (Fault (Host_access_private { off; len; write }))

let ranges_overlap (o1, l1) (o2, l2) = o1 < o2 + l2 && o2 < o1 + l1

(* Sanitizer capture: compare this fetch against every earlier fetch of
   an overlapping shared range in the current epoch, then record it. Runs
   *before* [guest_read_hook] fires, so a hook-modelled host race is seen
   by the second fetch's comparison, mirroring real time order. Costs a
   single [None] branch when the sanitizer is off. *)
let san_note t ~off ~len =
  match t.san with
  | None -> ()
  | Some s ->
      let snap = Bytes.sub_string t.data off len in
      List.iter
        (fun (off2, len2, snap2) ->
          if ranges_overlap (off, len) (off2, len2) then begin
            s.s_double <- s.s_double + 1;
            Metrics.inc (Metrics.counter Metrics.default "mem.sanitizer.double_fetch");
            let lo = max off off2 and hi = min (off + len) (off2 + len2) in
            let w1 = String.sub snap (lo - off) (hi - lo) in
            let w2 = String.sub snap2 (lo - off2) (hi - lo) in
            if not (String.equal w1 w2) then begin
              s.s_mutated <- s.s_mutated + 1;
              Metrics.inc
                (Metrics.counter Metrics.default "mem.sanitizer.double_fetch_mutated")
            end
          end)
        s.s_fetches;
      s.s_fetches <- (off, len, snap) :: s.s_fetches

(* The read path proper, after [check_access] has passed. The sanitizer
   captures the fetch first; the read hook fires after the value is
   copied out, so the *next* fetch observes any mutation the hook
   performs. *)
let fetch t actor ~off dst =
  let len = Bytes.length dst in
  let watched =
    match actor with Guest -> len > 0 && range_shared t off len | Host -> false
  in
  if watched then san_note t ~off ~len;
  Bytes.blit t.data off dst 0 len;
  match t.guest_read_hook with Some hook when watched -> hook ~off ~len | _ -> ()

(* [read_into] fills a caller-provided buffer — the allocation-free
   consume path; [read] checks before allocating so a bad length faults
   rather than failing inside [Bytes.create]. *)
let read_into t actor ~off dst =
  check_access t actor off (Bytes.length dst) ~write:false;
  fetch t actor ~off dst

let read t actor ~off ~len =
  check_access t actor off len ~write:false;
  let dst = Bytes.create len in
  fetch t actor ~off dst;
  dst

let write t actor ~off src =
  let len = Bytes.length src in
  check_access t actor off len ~write:true;
  Bytes.blit src 0 t.data off len;
  match (actor, t.host_write_hook) with
  | Host, Some hook -> hook ~off ~len
  | _ -> ()

let guest_read t ~off ~len = read t Guest ~off ~len
let guest_write t ~off src = write t Guest ~off src
let host_read t ~off ~len = read t Host ~off ~len
let host_write t ~off src = write t Host ~off src
let guest_read_into t ~off dst = read_into t Guest ~off dst
let host_read_into t ~off dst = read_into t Host ~off dst

(* Integer accessors used by the ring/descriptor layers. All are
   little-endian, matching the virtio wire format. *)

let read_u8 t actor ~off = Char.code (Bytes.get (read t actor ~off ~len:1) 0)

let read_u16 t actor ~off =
  let b = read t actor ~off ~len:2 in
  Bytes.get_uint16_le b 0

let read_u32 t actor ~off =
  let b = read t actor ~off ~len:4 in
  Int32.to_int (Bytes.get_int32_le b 0) land 0xFFFFFFFF

let read_u64 t actor ~off =
  let b = read t actor ~off ~len:8 in
  Bytes.get_int64_le b 0

let write_u8 t actor ~off v =
  let b = Bytes.create 1 in
  Bytes.set b 0 (Char.chr (v land 0xFF));
  write t actor ~off b

let write_u16 t actor ~off v =
  let b = Bytes.create 2 in
  Bytes.set_uint16_le b 0 (v land 0xFFFF);
  write t actor ~off b

let write_u32 t actor ~off v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int (v land 0xFFFFFFFF));
  write t actor ~off b

let write_u64 t actor ~off v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  write t actor ~off b

(* Page sharing / revocation. Unsharing is the paper's §3.2 "revocation"
   primitive: the guest reclaims a page from the host on the fly instead of
   copying out of it. *)

let share_page t page =
  if page < 0 || page >= Array.length t.prot then
    invalid_arg "Region.share_page: bad page";
  if t.prot.(page) <> Shared then begin
    t.prot.(page) <- Shared;
    Cost.charge t.meter Cost.Share t.model.Cost.page_share
  end

let unshare_page t page =
  if page < 0 || page >= Array.length t.prot then
    invalid_arg "Region.unshare_page: bad page";
  if t.prot.(page) <> Private then begin
    t.prot.(page) <- Private;
    Cost.charge t.meter Cost.Unshare t.model.Cost.page_unshare
  end

(* Range variants are batched: one shootdown/hypercall covers the whole
   range, so the first page pays full cost and the rest pay only PTE
   work. The transition itself is identical to the per-page calls. *)

let share_range t ~off ~len =
  if len > 0 then begin
    let first = page_of t off and last = page_of t (off + len - 1) in
    let changed = ref 0 in
    for p = first to last do
      if t.prot.(p) <> Shared then begin
        t.prot.(p) <- Shared;
        incr changed
      end
    done;
    if !changed > 0 then
      Cost.charge t.meter Cost.Share
        (t.model.Cost.page_share + ((!changed - 1) * t.model.Cost.page_share_extra))
  end

let unshare_range t ~off ~len =
  if len > 0 then begin
    let first = page_of t off and last = page_of t (off + len - 1) in
    let changed = ref 0 in
    for p = first to last do
      if t.prot.(p) <> Private then begin
        t.prot.(p) <- Private;
        incr changed
      end
    done;
    if !changed > 0 then
      Cost.charge t.meter Cost.Unshare
        (t.model.Cost.page_unshare + ((!changed - 1) * t.model.Cost.page_unshare_extra))
  end

(* Metered copies: the canonical "copy as a first-class citizen" operation.
   [copy_in] pulls shared bytes into a private buffer (and is the safe
   answer to double fetches); [copy_out] publishes private bytes. *)

let copy_in t ~off ~len =
  let b = guest_read t ~off ~len in
  Cost.charge t.meter Cost.Copy (Cost.copy_cost t.model len);
  b

let copy_in_into t ~off dst =
  guest_read_into t ~off dst;
  Cost.charge t.meter Cost.Copy (Cost.copy_cost t.model (Bytes.length dst))

let copy_out t ~off src =
  guest_write t ~off src;
  Cost.charge t.meter Cost.Copy (Cost.copy_cost t.model (Bytes.length src))

let set_host_write_hook t hook = t.host_write_hook <- hook
let set_guest_read_hook t hook = t.guest_read_hook <- hook

(* Sanitizer control surface. Enabling is idempotent (a campaign may
   re-enable after an I/O restart without losing totals for the same
   region); epochs delimit one logical parse each. *)

type sanitizer_stats = { double_fetches : int; mutated_fetches : int; epochs : int }

let sanitizer_enable t =
  match t.san with
  | Some _ -> ()
  | None -> t.san <- Some { s_fetches = []; s_double = 0; s_mutated = 0; s_epochs = 0 }

let sanitizer_disable t = t.san <- None

let sanitizer_on t = t.san <> None

let sanitizer_epoch t =
  match t.san with
  | None -> ()
  | Some s ->
      s.s_fetches <- [];
      s.s_epochs <- s.s_epochs + 1

let sanitizer_stats t =
  match t.san with
  | None -> { double_fetches = 0; mutated_fetches = 0; epochs = 0 }
  | Some s -> { double_fetches = s.s_double; mutated_fetches = s.s_mutated; epochs = s.s_epochs }
