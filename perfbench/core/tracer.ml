(* Span recorder for the traced benchmark run.

   A span covers one call from the benchmark into a layer. Spans nest
   (the stack's poll calls the driver through the netif closure), so each
   span's self time and self allocation are its own interval minus the
   part its children cover. Aggregates are folded in as spans close; the
   raw spans (id, parent, op, layer, start, end) are kept in a bounded
   in-memory log and written out when the run ends.

   When [on] is false, [enter]/[leave] return immediately: the untraced
   run pays one branch per call site. *)

type layer = Tls | L5 | Stack | Driver | Host_model | Peer | Netsim | Overload

let layers = [ Tls; L5; Stack; Driver; Host_model; Peer; Netsim; Overload ]
let n_layers = List.length layers

let index = function
  | Tls -> 0
  | L5 -> 1
  | Stack -> 2
  | Driver -> 3
  | Host_model -> 4
  | Peer -> 5
  | Netsim -> 6
  | Overload -> 7

let name = function
  | Tls -> "tls"
  | L5 -> "l5"
  | Stack -> "stack"
  | Driver -> "driver"
  | Host_model -> "host_model"
  | Peer -> "peer"
  | Netsim -> "netsim"
  | Overload -> "overload"

let max_depth = 32
let log_fields = 6

type t = {
  mutable on : bool;
  mutable op : int;  (* op id stamped on spans opened from now on *)
  self_ns : int array;
  self_words : float array;
  (* Open spans, innermost last. *)
  st_layer : int array;
  st_id : int array;
  st_t0 : int array;
  st_w0 : float array;
  st_child_ns : int array;
  st_child_words : float array;
  mutable depth : int;
  mutable next_id : int;
  log : int array;
  mutable logged : int;
}

(* Spans kept for writing out; aggregates cover every span. *)
let log_cap = 200_000

let create () =
  {
    on = false;
    op = -1;
    self_ns = Array.make n_layers 0;
    self_words = Array.make n_layers 0.;
    st_layer = Array.make max_depth 0;
    st_id = Array.make max_depth 0;
    st_t0 = Array.make max_depth 0;
    st_w0 = Array.make max_depth 0.;
    st_child_ns = Array.make max_depth 0;
    st_child_words = Array.make max_depth 0.;
    depth = 0;
    next_id = 0;
    log = Array.make (log_cap * log_fields) 0;
    logged = 0;
  }

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let enter t layer =
  if t.on then begin
    let d = t.depth in
    if d >= max_depth then invalid_arg "Tracer.enter: spans nested too deep";
    t.st_layer.(d) <- index layer;
    t.st_id.(d) <- t.next_id;
    t.next_id <- t.next_id + 1;
    t.st_child_ns.(d) <- 0;
    t.st_child_words.(d) <- 0.;
    t.depth <- d + 1;
    t.st_w0.(d) <- Gc.minor_words ();
    t.st_t0.(d) <- now_ns ()
  end

let leave t =
  if t.on then begin
    let t1 = now_ns () in
    let w1 = Gc.minor_words () in
    let d = t.depth - 1 in
    t.depth <- d;
    let l = t.st_layer.(d) in
    let dur = t1 - t.st_t0.(d) in
    let words = w1 -. t.st_w0.(d) in
    t.self_ns.(l) <- t.self_ns.(l) + dur - t.st_child_ns.(d);
    t.self_words.(l) <- t.self_words.(l) +. words -. t.st_child_words.(d);
    if d > 0 then begin
      t.st_child_ns.(d - 1) <- t.st_child_ns.(d - 1) + dur;
      t.st_child_words.(d - 1) <- t.st_child_words.(d - 1) +. words
    end;
    if t.logged < log_cap then begin
      let base = t.logged * log_fields in
      t.log.(base) <- t.st_id.(d);
      t.log.(base + 1) <- (if d > 0 then t.st_id.(d - 1) else -1);
      t.log.(base + 2) <- t.op;
      t.log.(base + 3) <- l;
      t.log.(base + 4) <- t.st_t0.(d);
      t.log.(base + 5) <- t1;
      t.logged <- t.logged + 1
    end
  end

let self_ns t layer = t.self_ns.(index layer)
let self_words t layer = t.self_words.(index layer)
let logged t = t.logged

(* One line per span, in closing order: id, parent id (-1 at top level),
   op id (-1 outside any op), layer name, start and end in ns of the
   monotonic clock. *)
let write_log t oc =
  output_string oc "id\tparent\top\tlayer\tstart_ns\tend_ns\n";
  let names = Array.of_list (List.map name layers) in
  for i = 0 to t.logged - 1 do
    let b = i * log_fields in
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" t.log.(b) t.log.(b + 1) t.log.(b + 2)
      names.(t.log.(b + 3))
      t.log.(b + 4) t.log.(b + 5)
  done
