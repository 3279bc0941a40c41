(* Intra-TEE compartmentalisation — the §3.1 lightweight L5 boundary.

   The dual-boundary design runs the I/O stack in its own compartment
   inside the TEE, so that compromising the stack (through the host
   boundary or a protocol bug) does not expose the confidential
   application. The paper argues a compartment boundary (MPK/CHERI-class,
   ~100 cycles) is the right tool because the relationship is *single*
   distrust — the stack trusts the app, the app does not trust the stack —
   whereas two separate TEEs would pay a full world switch (~10k cycles)
   for a dual-distrust boundary nobody needs. E8 reproduces exactly that
   comparison by flipping [crossing].

   Memory is modelled as domain-owned buffers with explicit grants; any
   access without ownership or a grant raises, which is how the attack
   harness shows that a compromised I/O stack cannot reach application
   memory. *)

open Cio_util
module Trace = Cio_telemetry.Trace
module Kind = Cio_telemetry.Kind

exception Access_violation of string

type domain = {
  id : int;
  dname : string;
  mutable alive : bool;
  mutable incarnation : int;  (* bumped on every restart *)
}

let domain_name d = d.dname
let domain_id d = d.id
let domain_alive d = d.alive
let domain_incarnation d = d.incarnation

type crossing = Gate | Tee_switch

type grant = { g_domain : int; g_write : bool }

type buf = {
  b_id : int;
  owner : int;
  data : bytes;
  mutable grants : grant list;
  mutable freed : bool;
}

type counters = {
  mutable crossings : int;
  mutable allocs : int;
  mutable denied : int;
  mutable crashes : int;
  mutable restarts : int;
}

type t = {
  model : Cost.model;
  meter : Cost.meter;
  crossing : crossing;
  mutable domains : domain list;
  mutable next_domain : int;
  mutable next_buf : int;
  counters : counters;
}

let create ?(model = Cost.default) ?meter ~crossing () =
  {
    model;
    meter = (match meter with Some m -> m | None -> Cost.meter ());
    crossing;
    domains = [];
    next_domain = 0;
    next_buf = 0;
    counters = { crossings = 0; allocs = 0; denied = 0; crashes = 0; restarts = 0 };
  }

let meter t = t.meter
let counters t = t.counters

let add_domain t ~name =
  let d = { id = t.next_domain; dname = name; alive = true; incarnation = 0 } in
  t.next_domain <- t.next_domain + 1;
  t.domains <- d :: t.domains;
  d

(* Crash containment (§3.1's quarantine made operational): a crashed
   domain can neither be entered nor touch any buffer — its grants are
   dead capabilities until a restart stands up a fresh incarnation. The
   crash is contained by construction: nothing the dead domain owned is
   reachable *from* it, and peers merely observe refused calls. *)
let crash_domain t d =
  if d.alive then begin
    d.alive <- false;
    t.counters.crashes <- t.counters.crashes + 1;
    if Trace.on () then Trace.instant ~cat:Kind.l5 ("crash:" ^ d.dname)
  end

let restart_domain t d =
  if not d.alive then begin
    d.alive <- true;
    d.incarnation <- d.incarnation + 1;
    t.counters.restarts <- t.counters.restarts + 1;
    if Trace.on () then
      Trace.instant ~arg:d.incarnation ~cat:Kind.l5 ("restart:" ^ d.dname)
  end

let crossing_cost t =
  match t.crossing with
  | Gate -> t.model.Cost.gate_crossing
  | Tee_switch -> t.model.Cost.tee_switch

(* Charge one boundary round trip without running anything: used when the
   domains interact through a shared mailbox rather than a synchronous
   call (the data-handoff pattern of the dual-boundary design). *)
let charge_crossing t =
  t.counters.crossings <- t.counters.crossings + 1;
  if Trace.on () then Trace.instant ~cat:Kind.l5 "handoff";
  Cost.charge t.meter Cost.Gate (2 * crossing_cost t)

let require_alive t d ~doing =
  if not d.alive then begin
    t.counters.denied <- t.counters.denied + 1;
    raise (Access_violation (Printf.sprintf "%s: %s refused, domain crashed" d.dname doing))
  end

(* A cross-domain call: entry and exit each pay the boundary cost. *)
let call t ~caller ~callee f =
  require_alive t caller ~doing:"call";
  require_alive t callee ~doing:"entry";
  if caller.id = callee.id then f ()
  else begin
    t.counters.crossings <- t.counters.crossings + 1;
    let traced = Trace.on () in
    if traced then Trace.span_begin ~cat:Kind.l5 ("call:" ^ callee.dname);
    Cost.charge t.meter Cost.Gate (crossing_cost t);
    let finish () =
      Cost.charge t.meter Cost.Gate (crossing_cost t);
      if traced then Trace.span_end ~cat:Kind.l5 ("call:" ^ callee.dname)
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let alloc t ~owner size =
  t.counters.allocs <- t.counters.allocs + 1;
  Cost.charge t.meter Cost.Alloc t.model.Cost.alloc;
  let b = { b_id = t.next_buf; owner = owner.id; data = Bytes.make size '\000'; grants = []; freed = false } in
  t.next_buf <- t.next_buf + 1;
  b

(* "Trusted component allocates" [34]: the trusted side allocates in its
   own domain and grants the less-trusted side access to exactly this
   buffer — the untrusted side never gets to name arbitrary memory. *)
let alloc_granted t ~owner ~reader ?(write = false) size =
  let b = alloc t ~owner size in
  b.grants <- { g_domain = reader.id; g_write = write } :: b.grants;
  b

let grant _t b ~to_ ?(write = false) () =
  b.grants <- { g_domain = to_.id; g_write = write } :: b.grants

let revoke _t b ~from =
  b.grants <- List.filter (fun g -> g.g_domain <> from.id) b.grants

let free _t b = b.freed <- true

let buf_size b = Bytes.length b.data

let check_access t ~as_ b ~write =
  require_alive t as_ ~doing:"memory access";
  if b.freed then begin
    t.counters.denied <- t.counters.denied + 1;
    raise (Access_violation (Printf.sprintf "%s: use after free of buffer %d" as_.dname b.b_id))
  end;
  if as_.id <> b.owner then begin
    Cost.charge t.meter Cost.Check t.model.Cost.check;
    match List.find_opt (fun g -> g.g_domain = as_.id && ((not write) || g.g_write)) b.grants with
    | Some _ -> ()
    | None ->
        t.counters.denied <- t.counters.denied + 1;
        raise
          (Access_violation
             (Printf.sprintf "%s: %s access to buffer %d owned by domain %d denied" as_.dname
                (if write then "write" else "read")
                b.b_id b.owner))
  end

let read t ~as_ b ~pos ~len =
  check_access t ~as_ b ~write:false;
  if pos < 0 || len < 0 || pos + len > Bytes.length b.data then
    raise (Access_violation (Printf.sprintf "%s: out-of-bounds read of buffer %d" as_.dname b.b_id));
  Bytes.sub b.data pos len

let write t ~as_ b ~pos src =
  check_access t ~as_ b ~write:true;
  if pos < 0 || pos + Bytes.length src > Bytes.length b.data then
    raise (Access_violation (Printf.sprintf "%s: out-of-bounds write of buffer %d" as_.dname b.b_id));
  Bytes.blit src 0 b.data pos (Bytes.length src)

let copy_between t ~as_ ~src ~dst ~src_pos ~dst_pos ~len =
  let chunk = read t ~as_ src ~pos:src_pos ~len in
  write t ~as_ dst ~pos:dst_pos chunk;
  Cost.charge t.meter Cost.Copy (Cost.copy_cost t.model len)
