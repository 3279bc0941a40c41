(* Telemetry: metrics registry, histogram quantiles, trace recorder, and
   end-to-end tracing of an experiment across both isolation boundaries. *)

module Metrics = Cio_telemetry.Metrics
module Trace = Cio_telemetry.Trace
module Kind = Cio_telemetry.Kind

let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- metrics: counters and gauges ----------------------------------- *)

let test_counter_basics () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "c" in
  check_int "fresh counter" 0 (Metrics.counter_value c);
  Metrics.inc c;
  Metrics.add c 41;
  check_int "inc + add" 42 (Metrics.counter_value c);
  let c' = Metrics.counter reg "c" in
  Metrics.inc c';
  check_int "idempotent handle shares state" 43 (Metrics.counter_value c)

let test_gauge_basics () =
  let reg = Metrics.create () in
  let g = Metrics.gauge reg "g" in
  Metrics.set g 7;
  Metrics.set g (-3);
  check_int "gauge keeps last value" (-3) (Metrics.gauge_value g)

let test_name_type_clash () =
  let reg = Metrics.create () in
  let _ = Metrics.counter reg "x" in
  Alcotest.check_raises "counter name reused as histogram"
    (Invalid_argument "Metrics.histogram: x is not a histogram") (fun () ->
      ignore (Metrics.histogram reg "x"))

let test_snapshot_and_json () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "reqs" in
  Metrics.add c 5;
  let h = Metrics.histogram reg "lat" in
  List.iter (Metrics.observe h) [ 1; 2; 100; 1000 ];
  (match Metrics.snapshot reg with
  | [ ("lat", Metrics.Histogram { n; min; max; _ }); ("reqs", Metrics.Counter 5) ] ->
      check_int "histogram n" 4 n;
      check_int "histogram min" 1 min;
      check_int "histogram max" 1000 max
  | _ -> Alcotest.fail "unexpected snapshot shape");
  let buf = Buffer.create 256 in
  Metrics.to_json buf reg;
  let js = Buffer.contents buf in
  Alcotest.(check bool) "json mentions both instruments" true
    (contains js "\"reqs\":5" && contains js "\"lat\"")

(* --- histogram properties (qcheck) ---------------------------------- *)

let values_arb = QCheck.(list_of_size Gen.(int_range 1 200) (int_bound 2_000_000))

let prop_count_conservation =
  QCheck.Test.make ~name:"histogram count equals number of observations" ~count:300
    values_arb (fun vs ->
      let h = Metrics.histogram (Metrics.create ()) "h" in
      List.iter (Metrics.observe h) vs;
      Metrics.count h = List.length vs)

let prop_quantiles_monotone =
  QCheck.Test.make ~name:"quantiles are monotone and within [min,max]" ~count:300
    QCheck.(pair values_arb (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
    (fun (vs, (qa, qb)) ->
      let h = Metrics.histogram (Metrics.create ()) "h" in
      List.iter (Metrics.observe h) vs;
      let qlo = min qa qb and qhi = max qa qb in
      let vlo = Metrics.quantile h qlo and vhi = Metrics.quantile h qhi in
      vlo <= vhi && Metrics.hmin h <= vlo && vhi <= Metrics.hmax h)

let prop_quantile_extremes =
  QCheck.Test.make ~name:"q=0 and q=1 hit observed extremes" ~count:300 values_arb
    (fun vs ->
      let h = Metrics.histogram (Metrics.create ()) "h" in
      List.iter (Metrics.observe h) vs;
      Metrics.quantile h 0.0 = Metrics.hmin h && Metrics.quantile h 1.0 = Metrics.hmax h)

(* --- recovery snapshots are immutable ------------------------------- *)

let test_recovery_snapshot_immutable () =
  let r = Cio_observe.Recovery.create () in
  Cio_observe.Recovery.fault_injected r;
  let before = Cio_observe.Recovery.snapshot r in
  Cio_observe.Recovery.fault_injected r;
  Cio_observe.Recovery.reset r;
  Cio_observe.Recovery.reconnect r;
  check_int "old snapshot unaffected by later mutation" 1
    before.Cio_observe.Recovery.faults_injected;
  check_int "old snapshot resets" 0 before.Cio_observe.Recovery.resets;
  let after = Cio_observe.Recovery.snapshot r in
  let d = Cio_observe.Recovery.diff ~before ~after in
  check_int "diff faults" 1 d.Cio_observe.Recovery.faults_injected;
  check_int "diff resets" 1 d.Cio_observe.Recovery.resets;
  check_int "diff reconnects" 1 d.Cio_observe.Recovery.reconnects

(* --- trace recorder -------------------------------------------------- *)

let with_tracing ?capacity f =
  Trace.enable ?capacity ();
  Fun.protect ~finally:(fun () ->
      Trace.disable ();
      Trace.reset_clock ())
    f

let test_trace_disabled_records_nothing () =
  Trace.disable ();
  Trace.span_begin ~cat:"x" "a";
  Trace.instant ~cat:"x" "b";
  Alcotest.(check bool) "off" false (Trace.on ());
  check_int "nothing recorded while disabled" 0 (List.length (Trace.events ()))

let test_trace_span_pairing () =
  with_tracing (fun () ->
      Trace.with_span ~cat:"t" "outer" (fun () ->
          Trace.instant ~arg:7 ~cat:"t" "tick");
      (try Trace.with_span ~cat:"t" "boom" (fun () -> failwith "x")
       with Failure _ -> ());
      let evs = Trace.events () in
      check_int "5 events" 5 (List.length evs);
      let phases = List.map (fun e -> e.Trace.phase) evs in
      Alcotest.(check bool) "B/E matched even on raise" true
        (phases = [ Trace.B; Trace.I; Trace.E; Trace.B; Trace.E ]);
      let tick = List.nth evs 1 in
      check_int "instant arg carried" 7 tick.Trace.arg)

let test_trace_ring_wrap () =
  with_tracing ~capacity:16 (fun () ->
      for i = 0 to 99 do
        Trace.instant ~arg:i ~cat:"w" "e"
      done;
      check_int "recorded counts everything" 100 (Trace.recorded ());
      check_int "ring keeps the newest capacity events" 16
        (List.length (Trace.events ()));
      check_int "dropped = recorded - capacity" 84 (Trace.dropped ());
      match List.rev (Trace.events ()) with
      | last :: _ -> check_int "newest survives the wrap" 99 last.Trace.arg
      | [] -> Alcotest.fail "empty ring")

let test_trace_chrome_json_shape () =
  with_tracing (fun () ->
      Trace.span_begin ~cat:"c" "s\"pan";
      Trace.span_end ~cat:"c" "s\"pan";
      let buf = Buffer.create 256 in
      Trace.to_chrome_json buf;
      let js = Buffer.contents buf in
      Alcotest.(check bool) "array brackets" true
        (String.length js > 2 && js.[0] = '[');
      Alcotest.(check bool) "escapes quotes in names" true
        (contains js "s\\\"pan");
      Alcotest.(check bool) "has begin and end phases" true
        (contains js "\"ph\":\"B\"" && contains js "\"ph\":\"E\""))

(* --- a traced e2 run crosses both boundaries ------------------------- *)

let null_ppf =
  Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let test_traced_e2_spans_both_boundaries () =
  with_tracing ~capacity:262_144 (fun () ->
      Alcotest.(check bool) "e2 runs" true
        (Cio_experiments.Experiments.run_one null_ppf "e2");
      let evs = Trace.events () in
      check_int "nothing dropped" 0 (Trace.dropped ());
      let count cat ph =
        List.length
          (List.filter (fun e -> e.Trace.cat = cat && e.Trace.phase = ph) evs)
      in
      List.iter
        (fun cat ->
          let b = count cat Trace.B and e = count cat Trace.E in
          Alcotest.(check bool)
            (Printf.sprintf "cat %s has spans" cat)
            true (b > 0);
          check_int (Printf.sprintf "cat %s begin/end matched" cat) b e)
        [ Kind.l2; Kind.l5; Kind.experiment ])

(* --- metric census ------------------------------------------------ *)

(* DESIGN.md §7 "Metric names" is a table with one row per instrument of
   the process-wide registry: [| `name` | kind | ... |]. Its rows must be
   exactly the instruments registered, with [echo.rtt_us.<config>]
   standing for the per-configuration RTT family. *)
let documented_metrics () =
  let lines =
    In_channel.with_open_text (Filename.concat (Helpers.repo_root ()) "DESIGN.md")
      In_channel.input_all
    |> String.split_on_char '\n'
  in
  let rec section = function
    | [] -> Alcotest.fail "DESIGN.md has no \"### Metric names\" section"
    | l :: rest -> if String.trim l = "### Metric names" then rest else section rest
  in
  let rec rows acc = function
    | l :: rest when not (String.starts_with ~prefix:"#" l) ->
        let acc =
          match String.split_on_char '|' l with
          | "" :: name :: kind :: _ -> (
              match String.split_on_char '`' (String.trim name) with
              | [ ""; name; "" ] -> (name, String.trim kind) :: acc
              | _ -> acc)
          | _ -> acc
        in
        rows acc rest
    | _ -> List.sort compare acc
  in
  rows [] (section lines)

let test_metric_census () =
  ignore (Cio_core.Configurations.run_echo ~messages:2 Cio_core.Configurations.Dual_boundary);
  let family name =
    if String.starts_with ~prefix:"echo.rtt_us." name then "echo.rtt_us.<config>" else name
  in
  let kind = function
    | Metrics.Counter _ -> "counter"
    | Metrics.Gauge _ -> "gauge"
    | Metrics.Histogram _ -> "histogram"
  in
  let live =
    Metrics.snapshot Metrics.default
    |> List.map (fun (name, i) -> (family name, kind i))
    |> List.sort_uniq compare
  in
  Alcotest.(check (list (pair string string)))
    "DESIGN.md §7 lists exactly the registered metrics" live (documented_metrics ())

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "gauge basics" `Quick test_gauge_basics;
    Alcotest.test_case "name/type clash rejected" `Quick test_name_type_clash;
    Alcotest.test_case "snapshot and json" `Quick test_snapshot_and_json;
    Helpers.qtest prop_count_conservation;
    Helpers.qtest prop_quantiles_monotone;
    Helpers.qtest prop_quantile_extremes;
    Alcotest.test_case "recovery snapshot immutable" `Quick
      test_recovery_snapshot_immutable;
    Alcotest.test_case "trace disabled records nothing" `Quick
      test_trace_disabled_records_nothing;
    Alcotest.test_case "trace span pairing" `Quick test_trace_span_pairing;
    Alcotest.test_case "trace ring wrap" `Quick test_trace_ring_wrap;
    Alcotest.test_case "chrome json shape" `Quick test_trace_chrome_json_shape;
    Alcotest.test_case "traced e2 spans both boundaries" `Slow
      test_traced_e2_spans_both_boundaries;
    Alcotest.test_case "metric census matches DESIGN.md" `Quick test_metric_census;
  ]
