(* perfbench: the repository's benchmark. Runs one workload for a time
   budget, checks every output against its seeded input, prints each
   metric by name and unit, and ends with one JSON result line.

     perfbench --workload echo-64 --seed 1 --seconds 10 --trace 0

   --trace 0 reports the end-to-end metrics from untraced rounds;
   --trace 1 reports the per-layer metrics from traced rounds (and writes
   the raw spans to --spans FILE when given). Exit code 1 on any
   correctness failure, 2 on bad arguments. *)

open Perfbench_core

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun s -> s.Runner.name) Runner.specs));
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let spans = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        parse rest
    | "--spans" :: v :: rest ->
        spans := Some v;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (Runner.find !workload, !seed, !seconds, !trace) with
  | Some spec, Some seed, Some seconds, Some trace when seconds > 0. ->
      Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n%!" spec.Runner.name seed seconds
        (Bool.to_int trace);
      let res = Runner.run ~spec ~seed ~seconds ~trace () in
      let metrics = if trace then Runner.per_layer res else Runner.end_to_end res in
      let correct = res.Runner.errors = [] in
      Printf.printf "rounds: %d untraced, %d traced; ops attempted %d, failed %d\n"
        (List.length (Runner.untraced res)) (List.length (Runner.traced res)) (Runner.attempted res)
        (Runner.failed res);
      List.iter
        (fun x ->
          Printf.printf "  %-30s %16.6f %-12s %s\n" x.Runner.key x.Runner.value x.Runner.unit_
            x.Runner.note)
        metrics;
      (match !spans with
      | Some file when trace ->
          let oc = open_out file in
          Tracer.write_log res.Runner.tracer oc;
          close_out oc;
          Printf.printf "spans: %d written to %s\n" (Tracer.logged res.Runner.tracer) file
      | _ -> ());
      List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) res.Runner.errors;
      print_endline
        (Runner.json ~correct ~attempted:(Runner.attempted res) ~failed:(Runner.failed res)
           metrics);
      if not correct then exit 1
  | _ -> usage ()
