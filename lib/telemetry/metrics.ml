(* Instruments are mutable records reached once through the registry
   and then held as handles at the call-site, so the hot path is a bare
   field update. 63 log2 buckets cover the whole positive int range on
   64-bit; we never resize. *)

module Bitops = Cio_util.Bitops

let buckets = 63

type counter = { mutable c : int }
type gauge = { mutable g : int }

type histogram = {
  counts : int array; (* length [buckets] *)
  mutable n : int;
  mutable lo : int;
  mutable hi : int;
}

type instr = C of counter | G of gauge | H of histogram

type t = { tbl : (string, instr) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }
let default = create ()
let reset t = Hashtbl.reset t.tbl

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (C c) -> c
  | Some _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter")
  | None ->
      let c = { c = 0 } in
      Hashtbl.add t.tbl name (C c);
      c

let add c n = c.c <- c.c + n
let inc c = c.c <- c.c + 1
let counter_value c = c.c

let gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (G g) -> g
  | Some _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge")
  | None ->
      let g = { g = 0 } in
      Hashtbl.add t.tbl name (G g);
      g

let set g v = g.g <- v
let gauge_value g = g.g

let histogram t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (H h) -> h
  | Some _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram")
  | None ->
      let h = { counts = Array.make buckets 0; n = 0; lo = max_int; hi = 0 } in
      Hashtbl.add t.tbl name (H h);
      h

(* Bucket i holds values in (2^(i-1), 2^i]; bucket 0 holds v <= 1.
   Bitops.log2 demands an exact power of two, hence the round-up. *)
let bucket_of v =
  if v <= 1 then 0 else min (buckets - 1) (Bitops.log2 (Bitops.next_power_of_two v))

let observe h v =
  let v = if v < 0 then 0 else v in
  h.counts.(bucket_of v) <- h.counts.(bucket_of v) + 1;
  h.n <- h.n + 1;
  if v < h.lo then h.lo <- v;
  if v > h.hi then h.hi <- v

let count h = h.n
let hmax h = if h.n = 0 then 0 else h.hi
let hmin h = if h.n = 0 then 0 else h.lo

let bucket_upper i = if i >= 62 then max_int else (1 lsl i)

let quantile h q =
  if h.n = 0 then 0
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank =
      let r = int_of_float (ceil (q *. float_of_int h.n)) in
      if r < 1 then 1 else r
    in
    (* Rank 1 is the smallest observation itself, which we track
       exactly; buckets are only needed for interior ranks. *)
    if rank = 1 then h.lo
    else
    let rec walk i cum =
      if i >= buckets then h.hi
      else
        let cum = cum + h.counts.(i) in
        if cum >= rank then bucket_upper i else walk (i + 1) cum
    in
    let v = walk 0 0 in
    (* Clamp to the observed range: keeps quantiles exact at the
       extremes and monotone across q despite bucket granularity. *)
    if v < h.lo then h.lo else if v > h.hi then h.hi else v
  end

type instrument =
  | Counter of int
  | Gauge of int
  | Histogram of {
      n : int;
      p50 : int;
      p90 : int;
      p99 : int;
      min : int;
      max : int;
    }

let snapshot t =
  Hashtbl.fold
    (fun name i acc ->
      let v =
        match i with
        | C c -> Counter c.c
        | G g -> Gauge g.g
        | H h ->
            Histogram
              {
                n = h.n;
                p50 = quantile h 0.5;
                p90 = quantile h 0.9;
                p99 = quantile h 0.99;
                min = hmin h;
                max = hmax h;
              }
      in
      (name, v) :: acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp ppf t =
  let items = snapshot t in
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i (name, instr) ->
      if i > 0 then Format.fprintf ppf "@,";
      match instr with
      | Counter v -> Format.fprintf ppf "%-40s %d" name v
      | Gauge v -> Format.fprintf ppf "%-40s %d (gauge)" name v
      | Histogram { n; p50; p90; p99; min; max } ->
          Format.fprintf ppf "%-40s n=%d p50=%d p90=%d p99=%d min=%d max=%d"
            name n p50 p90 p99 min max)
    items;
  Format.fprintf ppf "@]"

let to_json buf t =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (name, instr) ->
      if i > 0 then Buffer.add_char buf ',';
      Cio_util.Json.add_string buf name;
      Buffer.add_char buf ':';
      match instr with
      | Counter v -> Buffer.add_string buf (string_of_int v)
      | Gauge v -> Buffer.add_string buf (string_of_int v)
      | Histogram { n; p50; p90; p99; min; max } ->
          Buffer.add_string buf
            (Printf.sprintf
               "{\"n\":%d,\"p50\":%d,\"p90\":%d,\"p99\":%d,\"min\":%d,\"max\":%d}"
               n p50 p90 p99 min max))
    (snapshot t);
  Buffer.add_char buf '}'
