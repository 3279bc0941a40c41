(* The benchmark's own tests: the traced assembly must be the program
   [Dual] is, and a seed must fix everything simulated. *)

open Perfbench_core
open Cio_util

let small_echo size_lo size_hi = Workloads.Echo { size_lo; size_hi; msgs = 40 }

(* What the simulation did over a session's whole life: cycles and counts
   per cost category, virtual end time, frames each way. *)
let fingerprint = function
  | Workloads.Topo tp ->
      let m = tp.Workloads.tee.Tee.meter in
      let d = tp.Workloads.tee.Tee.driver in
      ( List.map
          (fun c -> (Cost.category_name c, Cost.cycles_of m c, Cost.count_of m c))
          Cost.all_categories,
        Cio_netsim.Engine.now tp.Workloads.engine,
        (Cio_cionet.Driver.tx_frames d, Cio_cionet.Driver.rx_frames d) )
  | Workloads.L2_unit _ -> Alcotest.fail "not a topology session"

let session ~traced ~seed inputs =
  let tracer = Tracer.create () in
  match Workloads.open_session ~tracer ~traced ~seed inputs with
  | None -> Alcotest.fail "channel did not establish"
  | Some s ->
      let r = Workloads.block ~tracer ~traced s inputs in
      Alcotest.(check (list string)) "outputs verified" [] r.Workloads.errors;
      (s, tracer)

let fidelity shape () =
  let inputs = Workloads.generate shape ~seed:5 ~block:0 in
  let dual, _ = session ~traced:false ~seed:5 inputs in
  let assembled, tracer = session ~traced:true ~seed:5 inputs in
  let cats, vtime, frames = fingerprint dual in
  let cats', vtime', frames' = fingerprint assembled in
  Alcotest.(check (list (triple string int int))) "cost meter per category" cats cats';
  Alcotest.(check int64) "virtual end time" vtime vtime';
  Alcotest.(check (pair int int)) "driver tx/rx frames" frames frames';
  Alcotest.(check bool) "the assembly was traced" true (Tracer.logged tracer > 0)

let spec name shape blocks = { Runner.name; shape; blocks }

let small_specs =
  [
    spec "echo-64" (small_echo 48 80) 2;
    spec "echo-16k" (small_echo 15_360 16_384) 2;
    spec "l2-mixed" (Workloads.L2 { frames = 300 }) 2;
    spec "overload-4x" (Workloads.Overload { steps = 300 }) 2;
  ]

(* Everything but host time: simulated metrics, allocation, cost and
   counts, from both reports. *)
let repeatable res =
  let keep (x : Runner.metric) =
    not
      (List.mem x.Runner.key
         [ "setup_s"; "ops_per_s"; "host_lat_us_p50"; "host_lat_us_p99"; "peak_heap_mb" ]
      || String.ends_with ~suffix:".us_per_op" x.Runner.key
      || String.ends_with ~suffix:".us_per_offered" x.Runner.key
      || String.starts_with ~prefix:"trace." x.Runner.key
      || String.starts_with ~prefix:"host." x.Runner.key
      || String.ends_with ~suffix:".words_per_op" x.Runner.key)
  in
  List.filter_map
    (fun x -> if keep x then Some (x.Runner.key, x.Runner.value) else None)
    (Runner.end_to_end res @ Runner.per_layer res)

let run s ~seed =
  let res = Runner.run ~spec:s ~seed ~seconds:0. ~trace:true () in
  Alcotest.(check (list string)) "no check failed" [] res.Runner.errors;
  res

let determinism s () =
  let a = repeatable (run s ~seed:3) and b = repeatable (run s ~seed:3) in
  Alcotest.(check (list (pair string (float 0.)))) "same seed, same simulation" a b;
  let gen seed = Workloads.generate s.Runner.shape ~seed ~block:0 in
  Alcotest.(check bool) "another seed, other inputs" false (gen 3 = gen 4)

let () =
  Alcotest.run "perfbench"
    [
      ( "fidelity",
        [
          Alcotest.test_case "echo-64: assembly = Dual" `Quick (fidelity (small_echo 48 80));
          Alcotest.test_case "echo-16k: assembly = Dual" `Quick
            (fidelity (small_echo 15_360 16_384));
          Alcotest.test_case "overload-4x: assembly = Dual" `Quick
            (fidelity (Workloads.Overload { steps = 300 }));
        ] );
      ( "determinism",
        List.map
          (fun s -> Alcotest.test_case s.Runner.name `Quick (determinism s))
          small_specs );
    ]
