(* Runs one workload for a time budget and reduces its rounds to the
   benchmark's metrics.

   The seed makes [blocks] blocks of inputs; round i replays block
   i mod [blocks] through a freshly set-up program. Rounds are short, so
   a run holds many and host-time metrics are medians over them; one
   cycle through the blocks is always completed, and the simulated
   metrics are pooled over that cycle.

   Untraced run: every round uses [Dual] itself; the end-to-end metrics
   come from these rounds. Traced run: each block runs on [Dual] and then
   on the traced assembly, so one run yields the per-layer split, the
   tracing overhead (untraced vs traced ops/s) and a fidelity check of
   the assembly against [Dual]. *)

open Workloads

type spec = { name : string; shape : shape; blocks : int }

let specs =
  [
    {
      name = "echo-64";
      shape = Echo { size_lo = 48; size_hi = 80; msgs = 1_000 };
      blocks = 10;
    };
    {
      name = "echo-16k";
      shape = Echo { size_lo = 15_360; size_hi = 16_384; msgs = 10 };
      blocks = 100;
    };
    {
      name = "l2-mixed";
      shape = L2 { frames = 2_000 };
      blocks = 10;
    };
    {
      name = "overload-4x";
      shape = Overload { steps = 1_000 };
      blocks = 10;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

(* Set-ups timed per run, so that [setup_s] is a median of many. *)
let setups = 100

(* Host time on a shared virtual machine drifts by up to 2x over minutes as
   neighbours load the machine, and every run would inherit the phase it
   landed in. So each round is bracketed by a fixed kernel and host times
   are reported at reference speed: scaled by [reference_ns] / the
   kernel's time next to them. The kernel does what the simulator spends
   its time on, sequential writes (as allocation does) and scattered
   reads and writes, but shares nothing with the program that could move
   it: it lives here, not in lib/; it does not allocate, so no collection
   runs inside it; its buffers are outside the OCaml heap; and it runs
   twice with only the second run timed, so the timed run starts from the
   caches the kernel itself left, whatever the program left before it.
   What is left to slow it down is the machine. *)
let reference_ns = 1_000_000
let ints n = Bigarray.Array1.init Bigarray.int Bigarray.c_layout n (fun _ -> 0)
let stream_buf = ints (1 lsl 16)
let scatter_buf = ints (1 lsl 16)

(* 2 MiB of sequential writes over one 512 KiB buffer, then 100k
   scattered read-modify-writes over another: 1 MiB in all, half a core's
   L2, so that once warm the kernel evicts nothing of the program's. *)
let kernel () =
  for _ = 1 to 4 do
    for i = 0 to Bigarray.Array1.dim stream_buf - 1 do
      Bigarray.Array1.unsafe_set stream_buf i i
    done
  done;
  let acc = ref 0 in
  let mask = Bigarray.Array1.dim scatter_buf - 1 in
  for i = 0 to 100_000 do
    let k = i * 7919 land mask in
    acc := !acc + Bigarray.Array1.unsafe_get scatter_buf (k * 31 land mask);
    Bigarray.Array1.unsafe_set scatter_buf k (!acc land 255)
  done;
  ignore (Sys.opaque_identity !acc)

let calibration_ns () =
  kernel ();
  let t0 = Tracer.now_ns () in
  kernel ();
  Tracer.now_ns () - t0

type run = { block : int; traced : bool; r : round; cal_ns : int  (** kernel time around it *) }

(* Host time [ns] measured next to a kernel run of [cal_ns], at
   reference speed. *)
let at_reference ns ~cal_ns = float_of_int ns *. float_of_int reference_ns /. float_of_int cal_ns

type result = {
  runs : run list;  (** in run order *)
  blocks : int;
  setup_ns : (int * int) list;  (** timed set-ups, with the kernel time next to each *)
  layer_ref_ns : float array;  (** traced self time per layer, at reference speed *)
  tracer : Tracer.t;
  errors : string list;
  peak_heap_words : int;
}

let untraced res = List.filter (fun x -> not x.traced) res.runs
let traced res = List.filter (fun x -> x.traced) res.runs

(* Every round of a block repeats its simulation exactly, traced or not:
   the assembly is [Dual]. *)
let det_errors runs =
  List.concat_map
    (fun x ->
      match List.find_opt (fun y -> y.block = x.block && not y.traced) runs with
      | None -> []
      | Some ref_ ->
          (if x.r.rtt_ns = ref_.r.rtt_ns then []
           else [ Printf.sprintf "block %d: simulated round trips differ from the first" x.block ])
          @ List.filter_map
            (fun (k, v) ->
              let v' = det_get x.r k in
              if v = v' then None
              else
                Some
                  (Printf.sprintf "block %d %s round differs from the first: %s %.17g <> %.17g"
                     x.block
                     (if x.traced then "traced" else "untraced")
                     k v v'))
            ref_.r.det)
    runs

let run ~(spec : spec) ~seed ~seconds ~trace () =
  let inputs = Array.init spec.blocks (fun block -> generate spec.shape ~seed ~block) in
  let tracer = Tracer.create () in
  let errors = ref [] in
  let session traced =
    match open_session ~tracer ~traced ~seed inputs.(0) with
    | Some s -> Some s
    | None ->
        errors := "a set-up did not establish its channel" :: !errors;
        None
  in
  (* Set-ups are timed first, on the small heap a program starts with,
     after one untimed set-up has loaded the code. *)
  ignore (session false);
  let setup_ns = ref [] in
  for _ = 1 to setups do
    let c0 = calibration_ns () in
    let t = Tracer.now_ns () in
    ignore (session false);
    let dt = Tracer.now_ns () - t in
    setup_ns := (dt, (c0 + calibration_ns ()) / 2) :: !setup_ns
  done;
  (* Then a discarded cycle: code and data caches, and the heap growing
     to its working size. *)
  Option.iter
    (fun s -> Array.iter (fun b -> ignore (block ~tracer ~traced:false s b)) inputs)
    (session false);
  let deadline = Tracer.now_ns () + int_of_float (seconds *. 1e9) in
  let min_cycles = if trace then 2 else 1 in
  let runs = ref [] in
  let layer_ref_ns = Array.make Tracer.n_layers 0. in
  (* Top heap after the warm-up and first measured cycle: later cycles
     would make it depend on how many fit in the run. *)
  let first_cycle_heap = ref 0 in
  let cycle = ref 0 in
  while !cycle < min_cycles || Tracer.now_ns () < deadline do
    let traced = trace && !cycle mod 2 = 1 in
    (* Each cycle starts with the previous cycles' garbage collected. *)
    Gc.compact ();
    (match session traced with
    | None -> ()
    | Some s ->
        let b = ref 0 in
        while !b < spec.blocks && (!cycle < min_cycles || Tracer.now_ns () < deadline) do
          let c0 = calibration_ns () in
          let self0 = Array.of_list (List.map (Tracer.self_ns tracer) Tracer.layers) in
          let r = block ~tracer ~traced s inputs.(!b) in
          let c1 = calibration_ns () in
          let cal_ns = (c0 + c1) / 2 in
          List.iteri
            (fun i l ->
              layer_ref_ns.(i) <-
                layer_ref_ns.(i) +. at_reference (Tracer.self_ns tracer l - self0.(i)) ~cal_ns)
            Tracer.layers;
          runs := { block = !b; traced; r; cal_ns } :: !runs;
          incr b
        done);
    if !cycle = 0 then first_cycle_heap := (Gc.quick_stat ()).Gc.top_heap_words;
    incr cycle
  done;
  let runs = List.rev !runs in
  let errors = !errors @ List.concat_map (fun x -> x.r.errors) runs @ det_errors runs in
  {
    runs;
    blocks = spec.blocks;
    setup_ns = !setup_ns;
    layer_ref_ns;
    tracer;
    errors = List.sort_uniq compare errors;
    peak_heap_words = !first_cycle_heap;
  }

(* --- reduction to metrics -------------------------------------------------- *)

(* Nearest-rank percentile of an ascending array; 0 when empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0. else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let sorted_floats a =
  let a = Array.map float_of_int a in
  Array.sort compare a;
  a

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ops_per_s (r : round) = float_of_int r.attempted /. (float_of_int r.wall_ns /. 1e9)
let ref_ops_per_s x =
  float_of_int x.r.attempted /. (at_reference x.r.wall_ns ~cal_ns:x.cal_ns /. 1e9)
let attempted res = List.fold_left (fun a x -> a + x.r.attempted) 0 res.runs
let failed res = List.fold_left (fun a x -> a + x.r.attempted - x.r.ok) 0 res.runs

(* The first round of each block: one cycle through the inputs. *)
let cycle res runs =
  List.filter_map
    (fun b -> List.find_opt (fun x -> x.block = b) runs)
    (List.init res.blocks Fun.id)

(* A simulated per-op metric over one cycle, weighted by ops. *)
let det_over rounds k =
  let ops = List.fold_left (fun a x -> a + x.r.attempted) 0 rounds in
  List.fold_left (fun a x -> a +. (det_get x.r k *. float_of_int x.r.attempted)) 0. rounds
  /. float_of_int (max 1 ops)

type metric = { key : string; unit_ : string; value : float; note : string }

let m ?(note = "") key unit_ value = { key; unit_; value; note }
let samples n = Printf.sprintf "%d samples" n

let end_to_end res =
  let u = untraced res in
  let c = cycle res u in
  let det = det_over c in
  let ref_lat =
    Array.concat
      (List.map (fun x -> Array.map (fun l -> at_reference l ~cal_ns:x.cal_ns) x.r.lat_ns) u)
  in
  Array.sort compare ref_lat;
  let raw_lat = sorted_floats (Array.concat (List.map (fun x -> x.r.lat_ns) u)) in
  let rtt = sorted_floats (Array.concat (List.map (fun x -> x.r.rtt_ns) c)) in
  let rtt_note = samples (Array.length rtt) in
  let per_round f = median (List.map f u) in
  let rounds = List.length u in
  let setup f = median (List.map f res.setup_ns) in
  let lat p =
    m (Printf.sprintf "host_lat_us_p%.0f" (p *. 100.)) "us"
      (percentile ref_lat p /. 1e3)
      ~note:
        (Printf.sprintf "%s; host %.1f" (samples (Array.length raw_lat))
           (percentile raw_lat p /. 1e3))
  in
  [
    m "setup_s" "s"
      (setup (fun (ns, cal_ns) -> at_reference ns ~cal_ns /. 1e9))
      ~note:
        (Printf.sprintf "median of %d; host %.6f" (List.length res.setup_ns)
           (setup (fun (ns, _) -> float_of_int ns /. 1e9)));
    m "ops_per_s" "ops/s" (per_round ref_ops_per_s)
      ~note:
        (Printf.sprintf "median of %d rounds; host %.1f" rounds
           (per_round (fun x -> ops_per_s x.r)));
    lat 0.50;
    lat 0.99;
    m "sim_cycles_per_op" "cycles" (det "sim_cycles_per_op");
    m "sim_rtt_us_p50" "virtual_us" (percentile rtt 0.50 /. 1e3) ~note:rtt_note;
    m "sim_rtt_us_p99" "virtual_us" (percentile rtt 0.99 /. 1e3) ~note:rtt_note;
    m "alloc_words_per_op" "words"
      (per_round (fun x -> x.r.words /. float_of_int x.r.attempted))
      ~note:(Printf.sprintf "median of %d rounds" rounds);
    m "peak_heap_mb" "MiB" (float_of_int (res.peak_heap_words * (Sys.word_size / 8)) /. 1048576.);
    m "goodput_ratio" "ratio" (det "goodput_ratio");
  ]

(* Host times here are at reference speed too, so that the layers'
   self times and the harness remainder add up to the traced time per op. *)
let per_layer res =
  let t = traced res in
  let tr = res.tracer in
  let ops = float_of_int (List.fold_left (fun a x -> a + x.r.attempted) 0 t) in
  let wall = List.fold_left (fun a x -> a +. at_reference x.r.wall_ns ~cal_ns:x.cal_ns) 0. t in
  let us l = res.layer_ref_ns.(Tracer.index l) /. ops /. 1e3 in
  let words l = Tracer.self_words tr l /. ops in
  let det = det_over (cycle res t) in
  let u_ops = median (List.map ref_ops_per_s (untraced res)) in
  let t_ops = median (List.map ref_ops_per_s t) in
  let open Tracer in
  [
    m "tls.us_per_op" "us/op" (us Tls);
    m "tls.words_per_op" "words/op" (words Tls);
    m "cost.crypto.cycles_per_op" "cycles/op" (det "cost.crypto.cycles_per_op");
    m "l5.us_per_op" "us/op" (us L5);
    m "compartment.crossings_per_op" "count/op" (det "compartment.crossings_per_op");
    m "cost.gate.cycles_per_op" "cycles/op" (det "cost.gate.cycles_per_op");
    m "cost.copy.cycles_per_op" "cycles/op" (det "cost.copy.cycles_per_op");
    m "stack.us_per_op" "us/op" (us Stack);
    m "stack.words_per_op" "words/op" (words Stack);
    m "cost.stack.cycles_per_op" "cycles/op" (det "cost.stack.cycles_per_op");
    m "tcp.segments_per_op" "count/op" (det "tcp.segments_per_op");
    m "tcp.retransmit_ratio" "ratio" (det "tcp.retransmit_ratio");
    m "stack.tx_backlog_max" "frames" (det "stack.tx_backlog_max");
    m "driver.us_per_op" "us/op" (us Driver);
    m "driver.words_per_op" "words/op" (words Driver);
    m "driver.frames_per_op" "count/op" (det "driver.frames_per_op");
    m "cost.ring.cycles_per_op" "cycles/op" (det "cost.ring.cycles_per_op");
    m "ring.tx.full_misses" "count" (det "ring.tx.full_misses");
    m "ring.tx.empty_polls" "count" (det "ring.tx.empty_polls");
    m "ring.rx.full_misses" "count" (det "ring.rx.full_misses");
    m "ring.rx.empty_polls" "count" (det "ring.rx.empty_polls");
    m "bufpool.reuse_ratio" "ratio" (det "bufpool.reuse_ratio");
    m "region.log_events_per_frame" "count/frame" (det "region.log_events_per_frame");
    m "host_model.us_per_op" "us/op" (us Host_model);
    m "host_model.words_per_op" "words/op" (words Host_model);
    m "host_model.rx_dropped" "count" (det "host_model.rx_dropped");
    m "peer.us_per_op" "us/op" (us Peer);
    m "peer.words_per_op" "words/op" (words Peer);
    m "netsim.us_per_op" "us/op" (us Netsim);
    m "link.wire_bytes_per_app_byte" "ratio" (det "link.wire_bytes_per_app_byte");
    m "overload.us_per_offered" "us/op" (us Overload);
    m "overload.admit_ratio" "ratio" (det "overload.admit_ratio");
    m "overload.deadline_shed" "count" (det "overload.deadline_shed");
    m "harness.us_per_op" "us/op"
      ((wall -. Array.fold_left ( +. ) 0. res.layer_ref_ns) /. ops /. 1e3);
    m "sim.steps_per_op" "count/op" (det "sim.steps_per_op");
    m "trace.untraced_ops_per_s" "ops/s" u_ops;
    m "trace.traced_ops_per_s" "ops/s" t_ops;
    m "trace.overhead_ratio" "ratio" ((u_ops /. t_ops) -. 1.);
    m "host.calibration_us" "us"
      (median (List.map (fun x -> float_of_int x.cal_ns) res.runs) /. 1e3);
  ]

(* The result line: one JSON object, numbers with all their digits. *)
let json ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" correct
    attempted failed;
  List.iteri
    (fun i x ->
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        x.key x.value x.unit_)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
