(* The safe ring — §3.2's host↔TEE data path, safe by construction.

   Design principles implemented here, mapped to the paper's bullets:

   - *Stateless interface*: a slot is a self-contained transaction
     { state, len, info, tag }. There are no cross-slot or cross-operation
     dependencies, no sequence numbers to resynchronise, and no error
     path: a malformed slot is skipped and counted, never "handled".
   - *Copy as a first-class citizen*: the consumer performs exactly one
     early copy (or one revocation) per message; nothing else ever touches
     shared bytes twice.
   - *No notifications*: both sides poll. (A stateless, idempotent
     doorbell can be layered on top for E11; nothing in the ring needs it.)
   - *Zero (re-)negotiation*: geometry and positioning are fixed at
     construction; there is no control plane in the ring at all.
   - *Safe ring buffer & shared data area*: every size is a power of two.
     Slot cursors, pool indices and indirect buffer offsets taken from
     shared memory are confined by masking — a wild value aliases a valid
     slot instead of escaping the arena. Untrusted lengths are clamped to
     the slot capacity. The header is fetched exactly once per operation
     (double fetches are impossible by construction, so no copy is needed
     to defend against them).

   One ring carries one direction: the producer side is fixed at creation
   (guest for TX, host for RX). Each side's cursor and allocator state is
   private to that side; the only shared control word is [state]. *)

open Cio_util
open Cio_mem
module Trace = Cio_telemetry.Trace
module Kind = Cio_telemetry.Kind

let state_empty = 0
let state_full = 1

let header_bytes = 16

type layout = {
  total : int;          (* bytes needed from base *)
  hdr_off : int;        (* headers, slots * 16 *)
  desc_off : int;       (* indirect descriptors (0 width otherwise) *)
  desc_count : int;
  data_off : int;       (* payload arena, power-of-two sized and aligned *)
  data_size : int;
  unit_size : int;      (* payload bytes per slot / pool slot *)
  units : int;          (* number of payload units in the arena *)
}

let layout ~page_size ~slots (positioning : Config.positioning) =
  if not (Bitops.is_power_of_two slots) then invalid_arg "Ring.layout: slots must be a power of two";
  let unit_size, units, desc_count =
    match positioning with
    | Config.Inline { data_capacity } -> (data_capacity, slots, 0)
    | Config.Pool { pool_slots; pool_slot_size } -> (pool_slot_size, pool_slots, 0)
    | Config.Indirect { desc_count; pool_slots; pool_slot_size } ->
        (pool_slot_size, pool_slots, desc_count)
  in
  if not (Bitops.is_power_of_two unit_size) then
    invalid_arg "Ring.layout: payload unit size must be a power of two";
  if not (Bitops.is_power_of_two units) then
    invalid_arg "Ring.layout: payload unit count must be a power of two";
  if desc_count <> 0 && not (Bitops.is_power_of_two desc_count) then
    invalid_arg "Ring.layout: descriptor count must be a power of two";
  let hdr_off = 0 in
  let desc_off = hdr_off + (slots * header_bytes) in
  let data_size = units * unit_size in
  (* The arena is aligned to its own (power-of-two) size so that offset
     confinement is a single AND, and to the page size so revocation can
     operate on whole payload pages. *)
  let align = max page_size data_size in
  let data_off = Bitops.align_up (desc_off + (desc_count * 8)) ~align in
  { total = data_off + data_size; hdr_off; desc_off; desc_count; data_off; data_size; unit_size; units }

type counters = {
  mutable produced : int;
  mutable consumed : int;
  mutable full_misses : int;   (* produce found no EMPTY slot *)
  mutable empty_polls : int;   (* consume found no FULL slot *)
  mutable len_clamped : int;   (* untrusted length confined *)
  mutable index_masked : int;  (* untrusted index/offset confined *)
  mutable state_skipped : int; (* malformed state word skipped *)
}

type t = {
  region : Region.t;
  base : int;
  slots : int;
  lay : layout;
  positioning : Config.positioning;
  producer : Region.actor;
  guest_meter : Cost.meter;
  host_meter : Cost.meter;
  model : Cost.model;
  mutable prod_next : int;  (* producer-private cursor *)
  mutable cons_next : int;  (* consumer-private cursor *)
  (* Producer-private payload allocator (pool / indirect modes): a stack of
     free units, and each slot's unit (-1: none), reclaimed on slot reuse. *)
  free_units : int array;
  mutable free_count : int;
  bindings : int array;
  mutable next_desc : int;
  mutable next_tag : int;
  run_lens : int array;     (* consumer-private: lengths of a revoked run *)
  hdr : bytes;              (* scratch of the one 16-byte header fetch *)
  desc : bytes;             (* scratch of the one 8-byte descriptor fetch *)
  mutable hdr_len : int; mutable hdr_info : int;  (* of the last header read *)
  mutable payload_off : int;  (* payload offset [locate] resolved last *)
  counters : counters;
}

let create ~region ~base ~slots ~positioning ~producer ~host_meter =
  let lay = layout ~page_size:(Region.page_size region) ~slots positioning in
  if base + lay.total > Region.size region then invalid_arg "Ring.create: does not fit in region";
  if base mod max (Region.page_size region) 1 <> 0 then
    invalid_arg "Ring.create: base must be page-aligned";
  {
    region;
    base;
    slots;
    lay;
    positioning;
    producer;
    guest_meter = Region.meter region;
    host_meter;
    model = Region.model region;
    prod_next = 0;
    cons_next = 0;
    free_units = Array.init lay.units (fun u -> lay.units - 1 - u);
    free_count = lay.units;
    bindings = Array.make slots (-1);
    next_desc = 0;
    next_tag = 0;
    run_lens = Array.make slots 0;
    hdr = Bytes.create header_bytes; desc = Bytes.create 8; hdr_len = 0; hdr_info = 0; payload_off = 0;
    counters =
      {
        produced = 0;
        consumed = 0;
        full_misses = 0;
        empty_polls = 0;
        len_clamped = 0;
        index_masked = 0;
        state_skipped = 0;
      };
  }

let counters t = t.counters
let slots t = t.slots

(* Occupancy from the private cursors: both live in guest-private memory
   (the producer's and consumer's own bookkeeping, never the shared
   region), so the reading costs nothing and cannot be lied to by the
   host. This is the root backpressure signal the overload plane
   propagates upward. *)
let occupancy t = t.prod_next - t.cons_next
let region t = t.region
let capacity t = t.lay.unit_size
let consumer t = match t.producer with Region.Guest -> Region.Host | Region.Host -> Region.Guest
let data_arena t = (t.base + t.lay.data_off, t.lay.data_size)

let meter_of t (actor : Region.actor) =
  match actor with Region.Guest -> t.guest_meter | Region.Host -> t.host_meter

let charge t actor cat cycles = Cost.charge (meter_of t actor) cat cycles

let hdr_off t slot = t.base + t.lay.hdr_off + (header_bytes * (slot land (t.slots - 1)))
let header_offset = hdr_off
let unit_off t u = t.base + t.lay.data_off + (t.lay.unit_size * (u land (t.lay.units - 1)))
let desc_off t d = t.base + t.lay.desc_off + (8 * (d land (max t.lay.desc_count 1 - 1)))

(* Cost of one ring word/header access. The first access of a crossing
   pays [ring_op] in full (cache miss + cursor bookkeeping); subsequent
   slots of the same burst touch adjacent lines and pay [ring_burst_op].
   Only ring words amortize — validation checks and payload copies are
   per-message work and always charge in full. *)
let ring_word_cost t ~amortized =
  if amortized then t.model.Cost.ring_burst_op else t.model.Cost.ring_op

let word b i = Int32.to_int (Bytes.get_int32_le b i) land 0xFFFFFFFF

(* Single-fetch header read: one 16-byte pull into the ring's scratch,
   decoded at once — len and info into [hdr_len]/[hdr_info], the state
   word returned. The tag word is the producer's sequence stamp; no
   consumer decision uses it. *)
let read_header t ~amortized actor slot =
  charge t actor Cost.Ring (ring_word_cost t ~amortized);
  Region.read_into t.region actor ~off:(hdr_off t slot) t.hdr;
  t.hdr_len <- word t.hdr 4;
  t.hdr_info <- word t.hdr 8;
  word t.hdr 0

let write_word t ~amortized actor ~off v =
  charge t actor Cost.Ring (ring_word_cost t ~amortized);
  Region.write_u32 t.region actor ~off v

let write_payload t actor ~off payload =
  match actor with
  | Region.Guest -> Region.copy_out t.region ~off payload
  | Region.Host ->
      Region.host_write t.region ~off payload;
      charge t actor Cost.Dma (Cost.dma_cost t.model (Bytes.length payload))

let empty_poll t =
  t.counters.empty_polls <- t.counters.empty_polls + 1

(* A confined untrusted index or offset: counted when confinement moved it. *)
let note_masked t ~raw confined =
  if confined <> raw then begin
    t.counters.index_masked <- t.counters.index_masked + 1;
    if Trace.on () then Trace.instant ~arg:raw ~cat:Kind.l2 "slot-mask"
  end;
  confined

(* Skip a malformed slot (no error path): count it, hand it back EMPTY and
   move on. Progress is made; no message comes out. *)
let skip_slot t ~amortized actor slot ~state =
  t.counters.state_skipped <- t.counters.state_skipped + 1;
  if Trace.on () then Trace.instant ~arg:state ~cat:Kind.l2 "slot-skip";
  write_word t ~amortized actor ~off:(hdr_off t slot) state_empty;
  t.cons_next <- t.cons_next + 1

let private_buf ?pool len =
  match pool with Some p -> Bufpool.acquire p len | None -> Bytes.create len

(* The consumer's one early copy. With a [pool] the destination buffer is
   recycled instead of freshly allocated — same charges either way. *)
let read_payload ?pool t actor ~off ~len =
  let b = private_buf ?pool len in
  (match actor with
  | Region.Guest -> Region.copy_in_into t.region ~off b
  | Region.Host ->
      Region.host_read_into t.region ~off b;
      charge t actor Cost.Dma (Cost.dma_cost t.model len));
  b

let produce_one t ~amortized payload =
  let actor = t.producer in
  let len = Bytes.length payload in
  if len > t.lay.unit_size then invalid_arg "Ring.try_produce: payload larger than slot capacity";
  if len = 0 then invalid_arg "Ring.try_produce: messages carry at least one byte";
  let slot = t.prod_next land (t.slots - 1) in
  if read_header t ~amortized actor slot <> state_empty then begin
    t.counters.full_misses <- t.counters.full_misses + 1;
    false
  end
  else begin
    (* Reclaim the payload unit the slot was last bound to: the "free"
       message is the slot's return to EMPTY, seen here on reuse. The
       binding is overwritten below whenever a unit is taken. *)
    let u = t.bindings.(slot) in
    if u >= 0 then begin t.free_units.(t.free_count) <- u; t.free_count <- t.free_count + 1 end;
    let info =
      match t.positioning with
      | Config.Inline _ ->
          write_payload t actor ~off:(unit_off t slot) payload;
          0
      | Config.Pool _ | Config.Indirect _ ->
          if t.free_count = 0 then begin
            t.counters.full_misses <- t.counters.full_misses + 1;
            -1
          end
          else begin
            t.free_count <- t.free_count - 1;
            let u = t.free_units.(t.free_count) in
            t.bindings.(slot) <- u;
            write_payload t actor ~off:(unit_off t u) payload;
            match t.positioning with
            | Config.Indirect _ ->
                let d = t.next_desc land (t.lay.desc_count - 1) in
                t.next_desc <- t.next_desc + 1;
                write_word t ~amortized actor ~off:(desc_off t d)
                  (unit_off t u - (t.base + t.lay.data_off));
                write_word t ~amortized actor ~off:(desc_off t d + 4) len;
                d
            | _ -> u
          end
    in
    if info < 0 then false
    else begin
      (* Publish: len and info first, state FULL last. *)
      write_word t ~amortized actor ~off:(hdr_off t slot + 4) len;
      write_word t ~amortized actor ~off:(hdr_off t slot + 8) info;
      write_word t ~amortized actor ~off:(hdr_off t slot + 12) (t.next_tag land 0xFFFFFFFF);
      t.next_tag <- t.next_tag + 1;
      write_word t ~amortized actor ~off:(hdr_off t slot) state_full;
      t.prod_next <- t.prod_next + 1;
      t.counters.produced <- t.counters.produced + 1;
      if Trace.on () then Trace.instant ~arg:len ~cat:Kind.l2 "slot-produce";
      true
    end
  end

let try_produce t payload = produce_one t ~amortized:false payload

(* Burst produce: up to [Array.length frames] messages in one crossing.
   The first slot pays full ring cost; the rest amortize. Stops at the
   first full slot (or exhausted pool) and returns how many went in —
   per-slot publish order is unchanged, so the safety argument is exactly
   the single-slot one, N times over. *)
let try_produce_burst t frames =
  let n = Array.length frames in
  let rec go i =
    if i >= n then i
    else if produce_one t ~amortized:(i > 0) frames.(i) then go (i + 1)
    else i
  in
  go 0

(* Confine an untrusted length to the slot capacity: counted when moved. *)
let clamp t actor len =
  charge t actor Cost.Check t.model.Cost.check;
  if len > t.lay.unit_size then begin
    t.counters.len_clamped <- t.counters.len_clamped + 1;
    if Trace.on () then Trace.instant ~arg:len ~cat:Kind.l2 "slot-clamp";
    t.lay.unit_size
  end
  else len

(* Resolve the payload location of the slot whose header was just read,
   confining every untrusted value by masking/clamping. Returns the
   confined length and leaves the payload offset in [payload_off]. *)
let locate t ~amortized actor slot =
  match t.positioning with
  | Config.Inline _ ->
      t.payload_off <- unit_off t slot;
      clamp t actor t.hdr_len
  | Config.Pool _ ->
      charge t actor Cost.Check t.model.Cost.check;
      let u = note_masked t ~raw:t.hdr_info (t.hdr_info land (t.lay.units - 1)) in
      t.payload_off <- unit_off t u;
      clamp t actor t.hdr_len
  | Config.Indirect _ ->
      charge t actor Cost.Check t.model.Cost.check;
      let d = note_masked t ~raw:t.hdr_info (t.hdr_info land (t.lay.desc_count - 1)) in
      (* Single fetch of the descriptor. *)
      charge t actor Cost.Ring (ring_word_cost t ~amortized);
      Region.read_into t.region actor ~off:(desc_off t d) t.desc;
      let raw_off = word t.desc 0 in
      (* Confine the buffer offset: wrap into the arena, align down to a
         unit boundary. A hostile offset aliases a valid unit. *)
      charge t actor Cost.Check t.model.Cost.check;
      let confined =
        note_masked t ~raw:raw_off
          (Bitops.align_down (raw_off land (t.lay.data_size - 1)) ~align:t.lay.unit_size)
      in
      t.payload_off <- t.base + t.lay.data_off + confined;
      clamp t actor (min t.hdr_len (word t.desc 4))

(* One consume step. [Cr_skip] means a malformed slot was skipped and the
   cursor advanced — progress was made but no message came out. *)
type consume_result = Cr_empty | Cr_skip | Cr_frame of bytes

let consume_one ?pool t ~amortized =
  let actor = consumer t in
  let slot = t.cons_next land (t.slots - 1) in
  let state = read_header t ~amortized actor slot in
  if state = state_empty then begin
    empty_poll t;
    Cr_empty
  end
  else if state <> state_full then begin
    skip_slot t ~amortized actor slot ~state;
    Cr_skip
  end
  else begin
    let len = locate t ~amortized actor slot in
    if len = 0 then begin
      (* A message carries at least one byte by contract: a zero-length
         claim is malformed, so the slot is skipped like any other. *)
      skip_slot t ~amortized actor slot ~state;
      Cr_skip
    end
    else begin
      let payload = read_payload ?pool t actor ~off:t.payload_off ~len in
      write_word t ~amortized actor ~off:(hdr_off t slot) state_empty;
      t.cons_next <- t.cons_next + 1;
      t.counters.consumed <- t.counters.consumed + 1;
      if Trace.on () then Trace.instant ~arg:len ~cat:Kind.l2 "slot-consume";
      Cr_frame payload
    end
  end

let try_consume ?pool t =
  match consume_one ?pool t ~amortized:false with
  | Cr_frame b -> Some b
  | Cr_empty | Cr_skip -> None

(* Burst consume: drain up to [max] messages in one crossing. Malformed
   slots inside the batch are skipped-and-counted exactly as in the
   single-slot path — each skip writes EMPTY and advances, so the loop
   terminates — without poisoning the rest of the batch. Only the first
   header access of the crossing pays full ring cost. *)
let try_consume_burst ?pool ?(max = 64) t =
  let rec go ~amortized n acc =
    if n >= max then List.rev acc
    else
      match consume_one ?pool t ~amortized with
      | Cr_empty -> List.rev acc
      | Cr_skip -> go ~amortized:true n acc
      | Cr_frame b -> go ~amortized:true (n + 1) (b :: acc)
  in
  go ~amortized:false 0 []

(* Receive by revocation (guest consumer, Inline positioning): validate
   a contiguous run of FULL slots, revoke its span with one unshare (one
   shootdown), snapshot each payload from now-private pages, re-share and
   return every slot EMPTY. The run never wraps the ring (a wrap would
   split the span) and ends before the first slot that is not a valid FULL
   one; that slot is left for the next call, whose head handles it exactly
   as [consume_one] does. Lengths go through the copy path's [locate]. *)
let try_consume_revoke_burst ?pool ?(max = 64) t =
  let actor = consumer t in
  if actor <> Region.Guest then
    invalid_arg "Ring.try_consume_revoke_burst: guest-consumer rings only";
  (match t.positioning with
  | Config.Inline _ -> ()
  | _ -> invalid_arg "Ring.try_consume_revoke_burst: inline positioning only");
  let start = t.cons_next land (t.slots - 1) in
  let limit = min max (t.slots - start) in
  let rec scan k =
    if k >= limit then k
    else begin
      let slot = start + k in
      let state = read_header t ~amortized:(k > 0) actor slot in
      let len =
        if state = state_full then locate t ~amortized:false actor slot
        else begin
          (* A non-FULL header that ends a run pays its check like the
             rest of the run; at the head it pays none, as on the copy path. *)
          if k > 0 then charge t actor Cost.Check t.model.Cost.check;
          0
        end
      in
      if len > 0 then begin
        t.run_lens.(k) <- len;
        scan (k + 1)
      end
      else begin
        if k = 0 then
          if state = state_empty then empty_poll t else skip_slot t ~amortized:false actor slot ~state;
        k
      end
    end
  in
  let k = scan 0 in
  if k = 0 then []
  else begin
    let span_off = unit_off t start and span_len = k * t.lay.unit_size in
    Region.unshare_range t.region ~off:span_off ~len:span_len;
    let frames =
      List.init k (fun i ->
          let b = private_buf ?pool t.run_lens.(i) in
          Region.guest_read_into t.region ~off:(unit_off t (start + i)) b;
          b)
    in
    Region.share_range t.region ~off:span_off ~len:span_len;
    for i = 0 to k - 1 do
      write_word t ~amortized:(i > 0) actor ~off:(hdr_off t (start + i)) state_empty
    done;
    t.cons_next <- t.cons_next + k;
    t.counters.consumed <- t.counters.consumed + k;
    if Trace.on () then Trace.instant ~arg:k ~cat:Kind.l2 "slot-revoke-burst";
    frames
  end
