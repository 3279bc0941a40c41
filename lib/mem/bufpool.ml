(* Reusable buffer pool for the allocation-free datapath.

   OCaml [bytes] cannot be sub-viewed, and the netif contract hands out
   exact-length frames, so "reuse" here means recycling buffers keyed by
   their exact length. Steady-state traffic repeats a small set of frame
   sizes (data segments, ACKs, padded frames), so after warm-up every
   acquire is served from a free list and the pool performs zero
   allocations per frame — the property the zero-alloc echo test pins.
   A warm acquire or recycle allocates nothing at all: a walk of one
   short chain, then an array-stack pop or push.

   Retention is capped per power-of-two size class (the shape a real
   implementation would use for its slab sizes), so a burst of unusual
   lengths cannot pin unbounded memory: beyond the cap a recycled buffer
   is simply dropped for the GC. *)

type stats = {
  mutable fresh : int;     (* acquires that had to allocate *)
  mutable reused : int;    (* acquires served from a free list *)
  mutable recycled : int;  (* buffers accepted back *)
  mutable dropped : int;   (* returns rejected by the class cap *)
}

(* One bucket per exact length: a stack of free buffers, and the log2
   size class the length belongs to. *)
type bucket = { len : int; cls : int; mutable free : bytes array; mutable n : int }

type t = {
  table : bucket list array;  (* buckets, chained by [len land chain_mask] *)
  class_counts : int array;   (* log2 size class -> retained count *)
  cap : int;                  (* max retained per size class *)
  mutable retained_count : int;  (* free buffers held right now *)
  mutable high_watermark : int;  (* most ever held at once *)
  stats : stats;
}

let chain_mask = 63

let create ?(cap = 256) () =
  if cap < 0 then invalid_arg "Bufpool.create: cap must be non-negative";
  {
    table = Array.make (chain_mask + 1) [];
    class_counts = Array.make Sys.int_size 0;
    cap;
    retained_count = 0;
    high_watermark = 0;
    stats = { fresh = 0; reused = 0; recycled = 0; dropped = 0 };
  }

let stats t = t.stats
let cap t = t.cap
let high_watermark t = t.high_watermark
let retained t = t.retained_count

let rec find len = function
  | [] -> raise Not_found
  | q :: rest -> if q.len = len then q else find len rest

(* The bit length of [len - 1]: log2 of the power-of-two class of [len]. *)
let rec bit_length acc n = if n = 0 then acc else bit_length (acc + 1) (n lsr 1)

let acquire t len =
  if len <= 0 then invalid_arg "Bufpool.acquire: length must be positive";
  match find len t.table.(len land chain_mask) with
  | q when q.n > 0 ->
      t.stats.reused <- t.stats.reused + 1;
      t.class_counts.(q.cls) <- t.class_counts.(q.cls) - 1;
      t.retained_count <- t.retained_count - 1;
      q.n <- q.n - 1;
      let b = q.free.(q.n) in
      q.free.(q.n) <- Bytes.empty;
      b
  | _ | (exception Not_found) ->
      t.stats.fresh <- t.stats.fresh + 1;
      Bytes.create len

let recycle t b =
  let len = Bytes.length b in
  if len > 0 then begin
    let chain = t.table.(len land chain_mask) in
    let q =
      match find len chain with
      | q -> q
      | exception Not_found -> { len; cls = bit_length 0 (len - 1); free = [||]; n = 0 }
    in
    if t.class_counts.(q.cls) >= t.cap then t.stats.dropped <- t.stats.dropped + 1
    else begin
      t.class_counts.(q.cls) <- t.class_counts.(q.cls) + 1;
      t.stats.recycled <- t.stats.recycled + 1;
      t.retained_count <- t.retained_count + 1;
      if t.retained_count > t.high_watermark then t.high_watermark <- t.retained_count;
      if q.n = Array.length q.free then begin
        (* Only a new bucket has an empty stack: it is filed on its first
           push, so a dropped return leaves nothing behind. *)
        if q.n = 0 then t.table.(len land chain_mask) <- q :: chain;
        let grown = Array.make (max 4 (2 * q.n)) Bytes.empty in
        Array.blit q.free 0 grown 0 q.n;
        q.free <- grown
      end;
      q.free.(q.n) <- b;
      q.n <- q.n + 1
    end
  end
