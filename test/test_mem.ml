(* Tests for the TEE memory model: protections, sharing/revocation, the
   runtime double-fetch sanitizer, and the pool allocator policies. *)

open Cio_util
open Cio_mem

let make ?(prot = Region.Shared) ?(size = 4 * 4096) () =
  Region.create ~prot ~name:"test" size

let test_guest_rw_roundtrip () =
  let r = make () in
  Region.guest_write r ~off:100 (Bytes.of_string "hello");
  Helpers.check_bytes "roundtrip" (Bytes.of_string "hello") (Region.guest_read r ~off:100 ~len:5)

let test_host_rw_shared () =
  let r = make () in
  Region.host_write r ~off:0 (Bytes.of_string "host");
  Helpers.check_bytes "host sees shared" (Bytes.of_string "host") (Region.host_read r ~off:0 ~len:4)

let test_host_faults_on_private () =
  let r = make ~prot:Region.Private () in
  (match Region.host_read r ~off:0 ~len:4 with
  | _ -> Alcotest.fail "host read of private memory must fault"
  | exception Region.Fault (Region.Host_access_private _) -> ());
  match Region.host_write r ~off:0 (Bytes.of_string "x") with
  | _ -> Alcotest.fail "host write of private memory must fault"
  | exception Region.Fault (Region.Host_access_private _) -> ()

let test_guest_reads_private () =
  let r = make ~prot:Region.Private () in
  Region.guest_write r ~off:0 (Bytes.of_string "secret");
  Helpers.check_bytes "guest ok" (Bytes.of_string "secret") (Region.guest_read r ~off:0 ~len:6)

let test_out_of_bounds_faults () =
  let r = make ~size:4096 () in
  (match Region.guest_read r ~off:4090 ~len:10 with
  | _ -> Alcotest.fail "oob read must fault"
  | exception Region.Fault (Region.Out_of_bounds _) -> ());
  (match Region.guest_read r ~off:(-1) ~len:1 with
  | _ -> Alcotest.fail "negative offset must fault"
  | exception Region.Fault (Region.Out_of_bounds _) -> ());
  (* Checked before the result buffer is allocated. *)
  match Region.guest_read r ~off:0 ~len:(-1) with
  | _ -> Alcotest.fail "negative length must fault"
  | exception Region.Fault (Region.Out_of_bounds _) -> ()

let test_unshare_revokes_host_access () =
  let r = make () in
  Region.host_write r ~off:0 (Bytes.of_string "ok");
  Region.unshare_page r 0;
  (match Region.host_read r ~off:0 ~len:2 with
  | _ -> Alcotest.fail "revoked page must fault for host"
  | exception Region.Fault (Region.Host_access_private _) -> ());
  (* Other pages remain shared. *)
  Region.host_write r ~off:4096 (Bytes.of_string "ok");
  (* Re-sharing restores access. *)
  Region.share_page r 0;
  Region.host_write r ~off:0 (Bytes.of_string "ok")

let test_partial_range_shared () =
  let r = make () in
  Region.unshare_page r 1;
  Alcotest.(check bool) "page 0 shared" true (Region.range_shared r 0 4096);
  Alcotest.(check bool) "range spanning private page" false (Region.range_shared r 4000 200);
  match Region.host_read r ~off:4000 ~len:200 with
  | _ -> Alcotest.fail "spanning read must fault"
  | exception Region.Fault (Region.Host_access_private _) -> ()

let test_share_costs_batched () =
  let model = Cost.default in
  let r = make () in
  let m = Region.meter r in
  (* Unshare all 4 pages in one batched call. *)
  Region.unshare_range r ~off:0 ~len:(4 * 4096);
  let batched = Cost.cycles_of m Cost.Unshare in
  Alcotest.(check int) "one full + three extras"
    (model.Cost.page_unshare + (3 * model.Cost.page_unshare_extra))
    batched;
  (* Per-page calls cost full price each. *)
  let r2 = make () in
  let m2 = Region.meter r2 in
  for p = 0 to 3 do
    Region.unshare_page r2 p
  done;
  Alcotest.(check int) "per-page pays full each" (4 * model.Cost.page_unshare)
    (Cost.cycles_of m2 Cost.Unshare)

let test_unshare_idempotent_cost () =
  let r = make () in
  let m = Region.meter r in
  Region.unshare_page r 0;
  let once = Cost.cycles_of m Cost.Unshare in
  Region.unshare_page r 0;
  Alcotest.(check int) "no double charge" once (Cost.cycles_of m Cost.Unshare)

let test_copy_in_charges () =
  let r = make () in
  let m = Region.meter r in
  ignore (Region.copy_in r ~off:0 ~len:1024);
  Alcotest.(check bool) "copy charged" (Cost.cycles_of m Cost.Copy > 0) true;
  Alcotest.(check int) "exact" (Cost.copy_cost (Region.model r) 1024) (Cost.cycles_of m Cost.Copy)

let test_guest_read_hook_fires () =
  let r = make () in
  Region.guest_write r ~off:0 (Bytes.of_string "\x01\x02\x03\x04");
  let fired = ref 0 in
  Region.set_guest_read_hook r
    (Some
       (fun ~off:_ ~len:_ ->
         incr fired;
         Region.set_guest_read_hook r None;
         Region.host_write r ~off:0 (Bytes.of_string "\xFF")));
  let first = Region.guest_read r ~off:0 ~len:1 in
  let second = Region.guest_read r ~off:0 ~len:1 in
  Alcotest.(check int) "fired once" 1 !fired;
  Alcotest.(check char) "first read honest" '\x01' (Bytes.get first 0);
  Alcotest.(check char) "second read sees race" '\xFF' (Bytes.get second 0)

let test_word_accessors () =
  let r = make () in
  Region.write_u16 r Region.Guest ~off:0 0xBEEF;
  Alcotest.(check int) "u16" 0xBEEF (Region.read_u16 r Region.Guest ~off:0);
  Region.write_u32 r Region.Guest ~off:4 0xDEADBEEF;
  Alcotest.(check int) "u32" 0xDEADBEEF (Region.read_u32 r Region.Guest ~off:4);
  Region.write_u64 r Region.Guest ~off:8 0x1122334455667788L;
  Alcotest.(check int64) "u64" 0x1122334455667788L (Region.read_u64 r Region.Guest ~off:8);
  Region.write_u8 r Region.Guest ~off:16 0xAB;
  Alcotest.(check int) "u8" 0xAB (Region.read_u8 r Region.Guest ~off:16)

let test_word_accessor_semantics () =
  (* In place, but with [read]'s fetch semantics: sanitizer capture,
     read hook on guest reads of shared memory, write hook on Host
     writes. *)
  let doubles read =
    let r = make () in
    Region.sanitizer_enable r;
    read r;
    read r;
    (Region.sanitizer_stats r).Region.double_fetches
  in
  Alcotest.(check (pair int int)) "two reads, two read_u32 of one word: one double fetch each"
    (1, 1)
    ( doubles (fun r -> ignore (Region.guest_read r ~off:8 ~len:4)),
      doubles (fun r -> ignore (Region.read_u32 r Region.Guest ~off:8)) );
  let r = make () in
  let writes = ref [] and reads = ref [] in
  Region.set_host_write_hook r (Some (fun ~off ~len -> writes := (off, len) :: !writes));
  Region.set_guest_read_hook r (Some (fun ~off ~len -> reads := (off, len) :: !reads));
  Region.write_u32 r Region.Host ~off:12 7;
  Region.write_u32 r Region.Guest ~off:16 7;
  Alcotest.(check (list (pair int int))) "host write_u32 fires the write hook" [ (12, 4) ] !writes;
  Alcotest.(check int) "value landed" 7 (Region.read_u32 r Region.Guest ~off:12);
  reads := [];
  ignore (Region.read_u32 r Region.Host ~off:20);
  ignore (Region.read_u32 r Region.Guest ~off:24);
  Alcotest.(check (list (pair int int))) "guest read_u32 fires the read hook" [ (24, 4) ] !reads

let test_word_accessors_allocation_free () =
  let r = make () in
  let sum = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to 4_999 do
    let off = 4 * (i land 1023) in
    Region.write_u32 r (if i land 1 = 0 then Region.Guest else Region.Host) ~off i;
    sum := !sum + Region.read_u32 r (if i land 2 = 0 then Region.Guest else Region.Host) ~off
  done;
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !sum);
  if words > 64. then
    Alcotest.failf "10k read_u32 + write_u32 allocated %.0f minor words (bound 64)" words

(* --- pool --------------------------------------------------------- *)

let make_pool metadata =
  let r = make ~size:(64 * 1024) () in
  (r, Pool.create ~region:r ~base:0 ~slot_size:512 ~slots:16 ~metadata)

let test_pool_alloc_free_cycle () =
  let _, p = make_pool Pool.Trusted in
  let slots = List.init 16 (fun _ -> Option.get (Pool.alloc p)) in
  Alcotest.(check int) "all allocated" 16 (Pool.allocated_count p);
  Alcotest.(check (option int)) "exhausted" None (Pool.alloc p);
  List.iter (Pool.free p) slots;
  Alcotest.(check int) "all freed" 0 (Pool.allocated_count p)

let test_pool_no_double_alloc () =
  let _, p = make_pool Pool.Trusted in
  let a = Option.get (Pool.alloc p) and b = Option.get (Pool.alloc p) in
  Alcotest.(check bool) "distinct slots" true (a <> b)

let test_pool_free_validation () =
  let _, p = make_pool Pool.Trusted in
  Alcotest.check_raises "free unallocated" (Invalid_argument "Pool.free: slot not allocated")
    (fun () -> Pool.free p 3);
  Alcotest.check_raises "free out of range" (Invalid_argument "Pool.free: bad slot") (fun () ->
      Pool.free p 99)

let test_pool_shared_unvalidated_corruptible () =
  let r, p = make_pool Pool.Shared_unvalidated in
  (* The host plants a wild slot id on top of the shared free stack. *)
  let meta_off = Pool.base p + (Pool.slot_size p * Pool.slot_count p) in
  let count = Region.read_u16 r Region.Host ~off:meta_off in
  Region.write_u16 r Region.Host ~off:(meta_off + 2 + (2 * (count - 1))) 999;
  match Pool.alloc p with
  | _ -> Alcotest.fail "unvalidated pop must blow up on wild id"
  | exception Pool.Corrupted_metadata _ -> ()

let test_pool_shared_masked_confines () =
  let r, p = make_pool Pool.Shared_masked in
  let meta_off = Pool.base p + (Pool.slot_size p * Pool.slot_count p) in
  let count = Region.read_u16 r Region.Host ~off:meta_off in
  Region.write_u16 r Region.Host ~off:(meta_off + 2 + (2 * (count - 1))) 999;
  match Pool.alloc p with
  | Some slot -> Alcotest.(check bool) "confined to range" true (Pool.slot_in_bounds p slot)
  | None -> Alcotest.fail "masked pop must still produce a slot"

let test_pool_slot_io () =
  let _, p = make_pool Pool.Trusted in
  let slot = Option.get (Pool.alloc p) in
  Pool.write_slot p slot (Bytes.of_string "payload");
  Helpers.check_bytes "slot io" (Bytes.of_string "payload") (Pool.read_slot p slot ~len:7)

let test_pool_geometry_validated () =
  let r = make () in
  Alcotest.check_raises "non-pow2 slot size"
    (Invalid_argument "Pool.create: slot_size must be a power of two") (fun () ->
      ignore (Pool.create ~region:r ~base:0 ~slot_size:100 ~slots:16 ~metadata:Pool.Trusted))

let prop_pool_alloc_unique =
  QCheck.Test.make ~name:"pool never double-allocates" ~count:100
    QCheck.(int_range 1 16)
    (fun n ->
      let _, p = make_pool Pool.Trusted in
      let allocated = List.filter_map (fun _ -> Pool.alloc p) (List.init n (fun i -> i)) in
      let sorted = List.sort_uniq compare allocated in
      List.length sorted = List.length allocated)

let prop_masked_pool_always_in_bounds =
  QCheck.Test.make ~name:"masked slot ids stay in bounds" ~count:300 QCheck.small_nat (fun v ->
      let _, p = make_pool Pool.Shared_masked in
      Pool.slot_in_bounds p (Pool.mask_slot p v))

(* --- buffer pool (allocation-free datapath) --------------------------- *)

let test_bufpool_acquire_recycle_reuse () =
  let p = Bufpool.create () in
  let b = Bufpool.acquire p 100 in
  Alcotest.(check int) "exact length" 100 (Bytes.length b);
  Bufpool.recycle p b;
  let b2 = Bufpool.acquire p 100 in
  Alcotest.(check bool) "same buffer handed back" true (b == b2);
  let s = Bufpool.stats p in
  Alcotest.(check int) "one fresh" 1 s.Bufpool.fresh;
  Alcotest.(check int) "one reused" 1 s.Bufpool.reused;
  Alcotest.(check int) "one recycled" 1 s.Bufpool.recycled;
  Alcotest.(check int) "nothing dropped" 0 s.Bufpool.dropped

let test_bufpool_exact_length_buckets () =
  (* 64 and 65 share a pow2 class but are distinct buckets: recycling one
     length never serves an acquire of another. *)
  let p = Bufpool.create () in
  let b = Bufpool.acquire p 64 in
  Bufpool.recycle p b;
  let c = Bufpool.acquire p 65 in
  Alcotest.(check int) "right length" 65 (Bytes.length c);
  Alcotest.(check int) "65 was a fresh allocation" 2 (Bufpool.stats p).Bufpool.fresh;
  Alcotest.(check int) "64 still retained" 1 (Bufpool.retained p);
  Alcotest.(check bool) "64 reusable" true (Bufpool.acquire p 64 == b)

let test_bufpool_class_cap_drops () =
  let p = Bufpool.create ~cap:2 () in
  let bs = List.init 4 (fun _ -> Bufpool.acquire p 128) in
  List.iter (Bufpool.recycle p) bs;
  Alcotest.(check int) "retained capped at 2" 2 (Bufpool.retained p);
  Alcotest.(check int) "overflow dropped" 2 (Bufpool.stats p).Bufpool.dropped;
  (* Same class, different exact length, shares the class budget. *)
  let odd = Bufpool.acquire p 100 in
  Bufpool.recycle p odd;
  Alcotest.(check int) "class budget shared across lengths" 3 (Bufpool.stats p).Bufpool.dropped

let test_bufpool_rejects_nonpositive () =
  let p = Bufpool.create () in
  Alcotest.check_raises "zero length"
    (Invalid_argument "Bufpool.acquire: length must be positive") (fun () ->
      ignore (Bufpool.acquire p 0));
  Alcotest.check_raises "negative length"
    (Invalid_argument "Bufpool.acquire: length must be positive") (fun () ->
      ignore (Bufpool.acquire p (-3)))

let test_bufpool_warm_cycle_allocates_nothing () =
  let p = Bufpool.create () in
  Bufpool.recycle p (Bufpool.acquire p 1514);
  Bufpool.recycle p (Bufpool.acquire p 60);
  let w0 = Gc.minor_words () in
  for i = 1 to 1000 do
    Bufpool.recycle p (Bufpool.acquire p (if i land 1 = 0 then 1514 else 60))
  done;
  Alcotest.(check (float 0.)) "no minor words" 0. (Gc.minor_words () -. w0);
  Alcotest.(check int) "one fresh per length" 2 (Bufpool.stats p).Bufpool.fresh

let prop_bufpool_acquire_is_exact_and_balanced =
  QCheck.Test.make ~name:"bufpool acquires are exact-length; stats balance" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 1 4096))
    (fun lens ->
      let p = Bufpool.create ~cap:8 () in
      let held = List.map (fun len -> Bufpool.acquire p len) lens in
      List.iter (Bufpool.recycle p) held;
      let again = List.map (fun len -> (len, Bufpool.acquire p len)) lens in
      let s = Bufpool.stats p in
      List.for_all (fun (len, b) -> Bytes.length b = len) again
      && s.Bufpool.fresh + s.Bufpool.reused = 2 * List.length lens
      && s.Bufpool.recycled + s.Bufpool.dropped = List.length lens
      && Bufpool.retained p >= 0)

(* Property: however a sequence of share/unshare calls built the page
   map, of a region created Shared or Private, the private-page count
   keeps [range_shared] equal to a per-page walk, and Host access that
   touches a private page still faults. *)
let prop_private_page_count =
  let pages = 5 and page = 4096 in
  let size = pages * page in
  let range =
    QCheck.Gen.(
      int_range 0 (size - 1) >>= fun off -> map (fun len -> (off, len)) (int_range 0 (size - off)))
  in
  let ops = QCheck.Gen.(list_size (int_range 1 16) (pair (int_range 0 3) range)) in
  QCheck.Test.make ~name:"region: private-page count keeps range checks exact" ~count:200
    (QCheck.make QCheck.Gen.(triple bool ops (list_repeat 8 range)))
    (fun (start_private, ops, probes) ->
      let prot = if start_private then Region.Private else Region.Shared in
      let r = Region.create ~prot ~name:"prop" size in
      let private_page p = Region.prot_of_page r p = Region.Private in
      let walk off len =
        let first = off / page and last = (off + len - 1) / page in
        len = 0 || not (List.exists private_page (List.init (last - first + 1) (( + ) first)))
      in
      let host_faults f =
        match f () with () -> false | exception Region.Fault (Region.Host_access_private _) -> true
      in
      let consistent () =
        List.for_all
          (fun (off, len) -> Region.range_shared r off len = walk off len)
          ((0, size) :: probes)
        && List.for_all
             (fun p ->
               let off = p * page and priv = private_page p in
               let span = max 0 (off - 2) in
               host_faults (fun () -> ignore (Region.host_read r ~off ~len:1)) = priv
               && host_faults (fun () -> Region.write_u32 r Region.Host ~off 0) = priv
               && host_faults (fun () -> ignore (Region.read_u32 r Region.Host ~off:span))
                  = (priv || private_page (span / page)))
             (List.init pages Fun.id)
      in
      List.for_all
        (fun (kind, (off, len)) ->
          (match kind with
          | 0 -> Region.share_page r (off / page)
          | 1 -> Region.unshare_page r (off / page)
          | 2 -> Region.share_range r ~off ~len
          | _ -> Region.unshare_range r ~off ~len);
          consistent ())
        ops)

(* --- runtime double-fetch sanitizer ----------------------------------- *)

let test_sanitizer_off_counts_nothing () =
  let r = make () in
  Alcotest.(check bool) "off by default" false (Region.sanitizer_on r);
  ignore (Region.guest_read r ~off:0 ~len:8);
  ignore (Region.guest_read r ~off:0 ~len:8);
  let s = Region.sanitizer_stats r in
  Alcotest.(check int) "no doubles recorded" 0 s.Region.double_fetches;
  Alcotest.(check int) "no mutations recorded" 0 s.Region.mutated_fetches

let test_sanitizer_counts_double_fetch () =
  let r = make () in
  let s0 = Region.sanitizer_stats r in
  Region.sanitizer_enable r;
  ignore (Region.guest_read r ~off:0 ~len:8);
  ignore (Region.guest_read r ~off:4 ~len:8);
  let s = Region.sanitizer_stats r in
  Alcotest.(check int) "overlap counted" 1 s.Region.double_fetches;
  Alcotest.(check int) "bytes unchanged: not mutated" 0 s.Region.mutated_fetches;
  Alcotest.(check int) "metric bumped" (s0.Region.double_fetches + 1) s.Region.double_fetches

let test_sanitizer_sees_host_race () =
  (* The attack harness's race hook rewrites the bytes after the first
     fetch; the second fetch must be counted as a *mutated* double. *)
  let r = make () in
  Region.guest_write r ~off:0 (Bytes.of_string "AAAA");
  Region.sanitizer_enable r;
  Region.set_guest_read_hook r
    (Some
       (fun ~off:_ ~len:_ ->
         Region.set_guest_read_hook r None;
         Region.host_write r ~off:0 (Bytes.of_string "BBBB")));
  ignore (Region.guest_read r ~off:0 ~len:4);
  ignore (Region.guest_read r ~off:0 ~len:4);
  let s = Region.sanitizer_stats r in
  Alcotest.(check int) "double fetch" 1 s.Region.double_fetches;
  Alcotest.(check int) "raced mutation seen" 1 s.Region.mutated_fetches

let test_sanitizer_epoch_resets_window () =
  let r = make () in
  Region.sanitizer_enable r;
  ignore (Region.guest_read r ~off:0 ~len:8);
  Region.sanitizer_epoch r;
  ignore (Region.guest_read r ~off:0 ~len:8);
  let s = Region.sanitizer_stats r in
  Alcotest.(check int) "cross-epoch re-read is legitimate" 0 s.Region.double_fetches;
  Alcotest.(check int) "epoch counted" 1 s.Region.epochs;
  Region.sanitizer_disable r;
  Alcotest.(check bool) "disabled" false (Region.sanitizer_on r)

let test_sanitizer_ignores_private_and_host () =
  let r = make () in
  Region.unshare_page r 0;
  Region.sanitizer_enable r;
  (* Private-page guest reads and host reads of shared memory are not
     guest fetches of host-writable state. *)
  ignore (Region.guest_read r ~off:0 ~len:8);
  ignore (Region.guest_read r ~off:0 ~len:8);
  ignore (Region.host_read r ~off:4096 ~len:8);
  ignore (Region.host_read r ~off:4096 ~len:8);
  Alcotest.(check int) "nothing counted" 0 (Region.sanitizer_stats r).Region.double_fetches

(* Property: the sanitizer's semantics within one epoch are exactly
   "overlapping fetches = a double fetch, changed bytes in the overlap =
   mutated" — whether the second fetch is disjoint, overlaps, or is raced
   by a host write in between. *)
let prop_sanitizer_overlap_and_race =
  QCheck.Test.make
    ~name:"sanitizer: overlap/race semantics" ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair
           (quad (int_range 0 1000) (int_range 1 64) (int_range 0 1000) (int_range 1 64))
           bool))
    (fun ((off1, len1, off2, len2), mutate) ->
      let r = make () in
      Region.sanitizer_enable r;
      ignore (Region.guest_read r ~off:off1 ~len:len1);
      if mutate then Region.host_write r ~off:off2 (Bytes.make len2 '\xFF');
      ignore (Region.guest_read r ~off:off2 ~len:len2);
      let overlap = off1 < off2 + len2 && off2 < off1 + len1 in
      let s = Region.sanitizer_stats r in
      s.Region.double_fetches = (if overlap then 1 else 0)
      && s.Region.mutated_fetches = (if overlap && mutate then 1 else 0))

let suite =
  [
    Alcotest.test_case "region: guest roundtrip" `Quick test_guest_rw_roundtrip;
    Alcotest.test_case "region: host access to shared" `Quick test_host_rw_shared;
    Alcotest.test_case "region: host faults on private" `Quick test_host_faults_on_private;
    Alcotest.test_case "region: guest reads private" `Quick test_guest_reads_private;
    Alcotest.test_case "region: bounds faults" `Quick test_out_of_bounds_faults;
    Alcotest.test_case "region: revocation" `Quick test_unshare_revokes_host_access;
    Alcotest.test_case "region: partial range protection" `Quick test_partial_range_shared;
    Alcotest.test_case "region: batched revocation cost" `Quick test_share_costs_batched;
    Alcotest.test_case "region: idempotent unshare cost" `Quick test_unshare_idempotent_cost;
    Alcotest.test_case "region: copy-in charged" `Quick test_copy_in_charges;
    Alcotest.test_case "region: guest-read race hook" `Quick test_guest_read_hook_fires;
    Alcotest.test_case "region: word accessors" `Quick test_word_accessors;
    Alcotest.test_case "region: word accessors keep fetch semantics" `Quick
      test_word_accessor_semantics;
    Alcotest.test_case "region: word accessors allocate nothing" `Quick
      test_word_accessors_allocation_free;
    Alcotest.test_case "pool: alloc/free cycle" `Quick test_pool_alloc_free_cycle;
    Alcotest.test_case "pool: unique allocation" `Quick test_pool_no_double_alloc;
    Alcotest.test_case "pool: free validation" `Quick test_pool_free_validation;
    Alcotest.test_case "pool: unvalidated metadata corruptible" `Quick
      test_pool_shared_unvalidated_corruptible;
    Alcotest.test_case "pool: masked metadata confined" `Quick test_pool_shared_masked_confines;
    Alcotest.test_case "pool: slot io" `Quick test_pool_slot_io;
    Alcotest.test_case "pool: geometry validated" `Quick test_pool_geometry_validated;
    Alcotest.test_case "bufpool: acquire/recycle/reuse" `Quick test_bufpool_acquire_recycle_reuse;
    Alcotest.test_case "bufpool: exact-length buckets" `Quick test_bufpool_exact_length_buckets;
    Alcotest.test_case "bufpool: class cap drops overflow" `Quick test_bufpool_class_cap_drops;
    Alcotest.test_case "bufpool: non-positive length rejected" `Quick
      test_bufpool_rejects_nonpositive;
    Alcotest.test_case "bufpool: warm cycle allocates nothing" `Quick
      test_bufpool_warm_cycle_allocates_nothing;
    Alcotest.test_case "sanitizer: off by default, counts nothing" `Quick
      test_sanitizer_off_counts_nothing;
    Alcotest.test_case "sanitizer: overlapping fetch counted" `Quick
      test_sanitizer_counts_double_fetch;
    Alcotest.test_case "sanitizer: host race marks mutation" `Quick test_sanitizer_sees_host_race;
    Alcotest.test_case "sanitizer: epoch resets the window" `Quick
      test_sanitizer_epoch_resets_window;
    Alcotest.test_case "sanitizer: private/host reads ignored" `Quick
      test_sanitizer_ignores_private_and_host;
    Helpers.qtest prop_sanitizer_overlap_and_race;
    Helpers.qtest prop_pool_alloc_unique;
    Helpers.qtest prop_masked_pool_always_in_bounds;
    Helpers.qtest prop_bufpool_acquire_is_exact_and_balanced;
    Helpers.qtest prop_private_page_count;
  ]
