(* TCB accounting — the "TCB" axis of Figure 5.

   Each architectural component is measured in lines of OCaml from this
   repository itself (the simulator's components *are* the system being
   compared), counted live from the source tree; a missing directory is
   an error, never a stand-in number. Host-side simulators that live next
   to the guest code they exercise are not guest code and are not counted.
   What matters for Figure 5 is which components sit inside each
   configuration's *core* TCB — the code whose compromise exposes
   application data:

   - in a single-boundary L2 design, the whole I/O stack is core TCB;
   - in the dual-boundary design, the I/O stack moves to a quarantined
     compartment: its compromise yields only observability (§3.1), so the
     core TCB shrinks to the driver rim + compartment runtime + TLS. *)

type component = {
  comp_name : string;
  dirs : string list;     (* source dirs counted, relative to repo root *)
}

let components =
  [
    { comp_name = "tcpip-stack"; dirs = [ "lib/tcpip"; "lib/frame" ] };
    { comp_name = "virtio-driver"; dirs = [ "lib/virtio" ] };
    { comp_name = "cionet-driver"; dirs = [ "lib/cionet" ] };
    { comp_name = "tls"; dirs = [ "lib/tls" ] };
    { comp_name = "crypto"; dirs = [ "lib/crypto" ] };
    { comp_name = "compartment-runtime"; dirs = [ "lib/compartment" ] };
    { comp_name = "mem-protection"; dirs = [ "lib/mem" ] };
  ]

(* Host-side simulators: they play the untrusted host (the device model,
   the host end of the cionet rings, the network adversary), so they run
   in no guest trust domain. The TCB count skips them, and cio_lint exempts
   them from the guest interface-safety rules. *)
let host_side_files =
  [ "lib/virtio/device.ml"; "lib/cionet/host_model.ml"; "lib/netsim/adversary.ml" ]

let count_file path =
  match open_in path with
  | exception Sys_error _ -> failwith ("Tcb: source file not readable: " ^ path)
  | ic ->
      let n = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr n
         done
       with End_of_file -> ());
      close_in ic;
      !n

let repo_root = ref "."

let set_repo_root p = repo_root := p

let count_dir dir =
  let abs = Filename.concat !repo_root dir in
  match Sys.readdir abs with
  | exception Sys_error _ -> failwith ("Tcb: source directory not found: " ^ abs)
  | entries ->
      Array.fold_left
        (fun acc f ->
          if Filename.check_suffix f ".ml" && not (List.mem (dir ^ "/" ^ f) host_side_files)
          then acc + count_file (Filename.concat abs f)
          else acc)
        0 entries

let loc_of_component c = List.fold_left (fun acc d -> acc + count_dir d) 0 c.dirs

let loc name =
  match List.find_opt (fun c -> c.comp_name = name) components with
  | Some c -> loc_of_component c
  | None -> invalid_arg ("Tcb.loc: unknown component " ^ name)

let component_names = List.map (fun c -> c.comp_name) components

let component_dirs name =
  match List.find_opt (fun c -> c.comp_name = name) components with
  | Some c -> c.dirs
  | None -> invalid_arg ("Tcb.component_dirs: unknown component " ^ name)

(* Core-TCB composition per configuration (Figure 5 / E6). The component
   lists encode the architectural argument, not implementation details. *)

type profile = { config : string; core : string list; quarantined : string list }

let profiles =
  [
    {
      config = "syscall-l5";
      (* Graphene/CCF-class: the stack lives on the host (outside the TEE
         entirely), the TEE keeps TLS + crypto. *)
      core = [ "tls"; "crypto" ];
      quarantined = [];
    };
    {
      config = "passthrough-l2";
      (* rkt-io/ShieldBox-class: full stack and driver in the core TCB. *)
      core = [ "tcpip-stack"; "virtio-driver"; "tls"; "crypto" ];
      quarantined = [];
    };
    {
      config = "hardened-virtio";
      core = [ "tcpip-stack"; "virtio-driver"; "tls"; "crypto" ];
      quarantined = [];
    };
    {
      config = "tunneled";
      (* LightBox-class: stack + tunnel endpoint in the TEE. *)
      core = [ "tcpip-stack"; "virtio-driver"; "tls"; "crypto" ];
      quarantined = [];
    };
    {
      config = "dual-boundary";
      (* This work: the stack and driver are quarantined behind the L5
         compartment boundary; their compromise yields observability
         only. *)
      core = [ "tls"; "crypto"; "compartment-runtime" ];
      quarantined = [ "tcpip-stack"; "cionet-driver" ];
    };
  ]

let profile config =
  match List.find_opt (fun p -> p.config = config) profiles with
  | Some p -> p
  | None -> invalid_arg ("Tcb.profile: unknown configuration " ^ config)

let core_loc config = List.fold_left (fun acc c -> acc + loc c) 0 (profile config).core

let quarantined_loc config =
  List.fold_left (fun acc c -> acc + loc c) 0 (profile config).quarantined

let pp_profile ppf config =
  let p = profile config in
  Fmt.pf ppf "%-16s core=%5d LoC (%s)" p.config (core_loc config) (String.concat "+" p.core);
  if p.quarantined <> [] then
    Fmt.pf ppf " | quarantined=%d LoC (%s)" (quarantined_loc config) (String.concat "+" p.quarantined)
