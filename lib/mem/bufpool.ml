(* Reusable buffer pool for the allocation-free datapath.

   OCaml [bytes] cannot be sub-viewed, and the netif contract hands out
   exact-length frames, so "reuse" here means recycling buffers keyed by
   their exact length. Steady-state traffic repeats a small set of frame
   sizes (data segments, ACKs, padded frames), so after warm-up every
   acquire is served from a free list and the pool performs zero
   allocations per frame — the property the zero-alloc echo test pins.

   Retention is capped per power-of-two size class (the shape a real
   implementation would use for its slab sizes), so a burst of unusual
   lengths cannot pin unbounded memory: beyond the cap a recycled buffer
   is simply dropped for the GC. *)

open Cio_util

type stats = {
  mutable fresh : int;     (* acquires that had to allocate *)
  mutable reused : int;    (* acquires served from a free list *)
  mutable recycled : int;  (* buffers accepted back *)
  mutable dropped : int;   (* returns rejected by the class cap *)
}

type t = {
  buckets : (int, bytes Queue.t) Hashtbl.t;      (* exact length -> free buffers *)
  class_retained : (int, int ref) Hashtbl.t;     (* pow2 class -> retained count *)
  cap : int;                                     (* max retained per size class *)
  mutable retained_count : int;                  (* free buffers held right now *)
  mutable high_watermark : int;                  (* most ever held at once *)
  stats : stats;
}

let create ?(cap = 256) () =
  if cap < 0 then invalid_arg "Bufpool.create: cap must be non-negative";
  {
    buckets = Hashtbl.create 16;
    class_retained = Hashtbl.create 16;
    cap;
    retained_count = 0;
    high_watermark = 0;
    stats = { fresh = 0; reused = 0; recycled = 0; dropped = 0 };
  }

let stats t = t.stats
let cap t = t.cap
let high_watermark t = t.high_watermark

let class_of len = Bitops.next_power_of_two (max 1 len)

let class_counter t cls =
  match Hashtbl.find_opt t.class_retained cls with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.class_retained cls r;
      r

let retained t =
  Hashtbl.fold (fun _ r acc -> acc + !r) t.class_retained 0

let acquire t len =
  if len <= 0 then invalid_arg "Bufpool.acquire: length must be positive";
  match Hashtbl.find_opt t.buckets len with
  | Some q when not (Queue.is_empty q) ->
      t.stats.reused <- t.stats.reused + 1;
      decr (class_counter t (class_of len));
      t.retained_count <- t.retained_count - 1;
      Queue.take q
  | _ ->
      t.stats.fresh <- t.stats.fresh + 1;
      Bytes.create len

let recycle t b =
  let len = Bytes.length b in
  if len > 0 then begin
    let counter = class_counter t (class_of len) in
    if !counter >= t.cap then t.stats.dropped <- t.stats.dropped + 1
    else begin
      incr counter;
      t.stats.recycled <- t.stats.recycled + 1;
      t.retained_count <- t.retained_count + 1;
      if t.retained_count > t.high_watermark then t.high_watermark <- t.retained_count;
      let q =
        match Hashtbl.find_opt t.buckets len with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.add t.buckets len q;
            q
      in
      Queue.add b q
    end
  end
