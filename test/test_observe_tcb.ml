(* Observability scoring + TCB accounting tests. *)

open Cio_observe
open Cio_tcb

let test_tap_records () =
  let t = Observe.create "tap" in
  Observe.record t ~time:0L ~kind:"frame" ~size:100;
  Observe.record t ~time:1000L ~kind:"frame" ~size:200;
  Observe.record t ~time:2000L ~kind:"kick" ~size:0;
  Alcotest.(check int) "count" 3 (Observe.count t);
  Alcotest.(check int) "kinds" 2 (Observe.kinds t)

let test_uniform_stream_low_entropy () =
  let uniform = Observe.create "uniform" and varied = Observe.create "varied" in
  for i = 0 to 99 do
    Observe.record uniform ~time:(Int64.of_int (i * 1000)) ~kind:"blob" ~size:1600;
    Observe.record varied
      ~time:(Int64.of_int (i * i * 137))
      ~kind:(if i mod 3 = 0 then "send" else "recv")
      ~size:(17 * ((i * 31 mod 11) + 1) * (i mod 7 + 1))
  done;
  Alcotest.(check bool) "uniform < varied" true (Observe.score uniform < Observe.score varied)

let test_empty_tap_scores_zero () =
  let t = Observe.create "empty" in
  Alcotest.(check (float 1e-9)) "zero" 0.0 (Observe.entropy_bits t)

let test_clear () =
  let t = Observe.create "c" in
  Observe.record t ~time:0L ~kind:"x" ~size:1;
  Observe.clear t;
  Alcotest.(check int) "cleared" 0 (Observe.count t)

let test_more_kinds_more_score () =
  let few = Observe.create "few" and many = Observe.create "many" in
  for i = 0 to 63 do
    Observe.record few ~time:(Int64.of_int (i * 1000)) ~kind:"frame" ~size:(100 + (i mod 4));
    Observe.record many
      ~time:(Int64.of_int (i * 1000))
      ~kind:(Printf.sprintf "op%d" (i mod 8))
      ~size:(100 + (i mod 4))
  done;
  Alcotest.(check bool) "richer vocabulary scores higher" true
    (Observe.score many > Observe.score few)

let test_tcb_components_measured () =
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " nonzero") true (Tcb.loc name > 0))
    [ "tcpip-stack"; "virtio-driver"; "cionet-driver"; "tls"; "crypto"; "compartment-runtime" ]

let test_tcb_unknown_component () =
  Alcotest.check_raises "unknown" (Invalid_argument "Tcb.loc: unknown component nonesuch")
    (fun () -> ignore (Tcb.loc "nonesuch"))

let test_tcb_missing_tree_raises () =
  (* No stand-in numbers: counting against a tree without lib/ fails. *)
  let root = Helpers.repo_root () in
  Fun.protect
    ~finally:(fun () -> Tcb.set_repo_root root)
    (fun () ->
      Tcb.set_repo_root (Filename.concat root "no-such-tree");
      match Tcb.loc "tls" with
      | n -> Alcotest.failf "counted %d LoC from a missing tree" n
      | exception Failure _ -> ())

(* Nor from a missing file: an unreadable source counts as an error, not as
   zero lines, so an E6 figure cannot fall without code being deleted. *)
let test_tcb_missing_file_raises () =
  let path = Filename.concat (Helpers.repo_root ()) "lib/tls/no_such_file.ml" in
  match Tcb.count_file path with
  | n -> Alcotest.failf "counted %d lines from a missing file" n
  | exception Failure _ -> ()

let test_tcb_profiles_complete () =
  List.iter
    (fun config ->
      let p = Tcb.profile config in
      Alcotest.(check bool) (config ^ " has a core") true (p.Tcb.core <> []);
      Alcotest.(check bool) (config ^ " core loc > 0") true (Tcb.core_loc config > 0))
    [ "syscall-l5"; "passthrough-l2"; "hardened-virtio"; "tunneled"; "dual-boundary" ]

let test_tcb_dual_smallest_l2_core () =
  Alcotest.(check bool) "dual < passthrough" true
    (Tcb.core_loc "dual-boundary" < Tcb.core_loc "passthrough-l2");
  Alcotest.(check bool) "dual quarantined > 0" true (Tcb.quarantined_loc "dual-boundary" > 0);
  Alcotest.(check int) "passthrough quarantines nothing" 0 (Tcb.quarantined_loc "passthrough-l2")

let test_tcb_stack_outside_dual_core () =
  let p = Tcb.profile "dual-boundary" in
  Alcotest.(check bool) "stack quarantined" true (List.mem "tcpip-stack" p.Tcb.quarantined);
  Alcotest.(check bool) "stack not in core" false (List.mem "tcpip-stack" p.Tcb.core)

(* Every component a profile names must resolve against the *real* source
   tree: its directories exist, contain OCaml, and count to a nonzero LoC.
   A renamed lib/ directory or a typo in a profile would otherwise skew
   Fig. 5 (and cio_lint's trusted-file set, which derives from the same
   dirs). *)
let test_tcb_profiles_resolve_against_tree () =
  let root = Helpers.repo_root () in
  let referenced =
    List.concat_map (fun p -> p.Tcb.core @ p.Tcb.quarantined) Tcb.profiles
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "profiles reference components" true (referenced <> []);
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " is a declared component") true
        (List.mem name Tcb.component_names);
      List.iter
        (fun dir ->
          let abs = Filename.concat root dir in
          Alcotest.(check bool) (dir ^ " exists") true
            (Sys.file_exists abs && Sys.is_directory abs);
          let mls =
            Array.to_list (Sys.readdir abs)
            |> List.filter (fun f -> Filename.check_suffix f ".ml")
          in
          Alcotest.(check bool) (dir ^ " has OCaml sources") true (mls <> []))
        (Tcb.component_dirs name);
      Alcotest.(check bool) (name ^ " counts real LoC") true (Tcb.loc name > 0))
    referenced

(* EXPERIMENTS.md's E6 section quotes the live [cio_sim run e6] lines;
   every profile's line, as [Tcb.pp_profile] prints it now, must appear
   there verbatim, so a TCB change that is not re-documented fails here. *)
let test_tcb_e6_doc_matches_live () =
  let doc =
    In_channel.with_open_text (Filename.concat (Helpers.repo_root ()) "EXPERIMENTS.md")
      In_channel.input_all
  in
  let rec body = function
    | l :: rest when not (String.starts_with ~prefix:"## " l) -> l :: body rest
    | _ -> []
  in
  let rec from_e6 = function
    | [] -> Alcotest.fail "EXPERIMENTS.md has no E6 section"
    | l :: rest -> if String.starts_with ~prefix:"## E6 " l then body rest else from_e6 rest
  in
  let section = from_e6 (String.split_on_char '\n' doc) in
  List.iter
    (fun p ->
      let live = Fmt.str "  %a" Tcb.pp_profile p.Tcb.config in
      if not (List.mem live section) then
        Alcotest.failf "E6 in EXPERIMENTS.md does not show the live line:\n%s" live)
    Tcb.profiles

let suite =
  [
    Alcotest.test_case "observe: tap records" `Quick test_tap_records;
    Alcotest.test_case "observe: uniform stream scores low" `Quick test_uniform_stream_low_entropy;
    Alcotest.test_case "observe: empty tap" `Quick test_empty_tap_scores_zero;
    Alcotest.test_case "observe: clear" `Quick test_clear;
    Alcotest.test_case "observe: kind richness" `Quick test_more_kinds_more_score;
    Alcotest.test_case "tcb: components measured" `Quick test_tcb_components_measured;
    Alcotest.test_case "tcb: unknown component" `Quick test_tcb_unknown_component;
    Alcotest.test_case "tcb: missing tree raises" `Quick test_tcb_missing_tree_raises;
    Alcotest.test_case "tcb: profiles complete" `Quick test_tcb_profiles_complete;
    Alcotest.test_case "tcb: dual smallest L2 core" `Quick test_tcb_dual_smallest_l2_core;
    Alcotest.test_case "tcb: stack quarantined in dual" `Quick test_tcb_stack_outside_dual_core;
    Alcotest.test_case "tcb: EXPERIMENTS.md E6 matches live count" `Quick
      test_tcb_e6_doc_matches_live;
    Alcotest.test_case "tcb: profiles resolve against the tree" `Quick
      test_tcb_profiles_resolve_against_tree;
    Alcotest.test_case "tcb: missing file raises" `Quick test_tcb_missing_file_raises;
  ]
