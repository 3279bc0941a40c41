(** TCB accounting (Figure 5 / E6): per-component LoC counted from this
    repository's own sources, composed into per-configuration core TCBs. *)

val set_repo_root : string -> unit
(** Directory containing [lib/]; defaults to ["."]. *)

val loc : string -> int
(** Lines of OCaml in a named component, counted from the tree under the
    repo root, {!host_side_files} excluded. Raises [Invalid_argument] on
    unknown names and [Failure] when a component directory is missing. *)

val count_file : string -> int
(** Lines in one source file. Raises [Failure] when it cannot be read, as
    {!loc} does for a missing directory: never a stand-in count. *)

val host_side_files : string list
(** Files (relative to the repo root) that simulate the untrusted host:
    never counted as TCB, even inside a component directory, and exempt
    from [cio_lint]'s guest rules. *)

val component_names : string list
(** Every component that can appear in a profile's [core]/[quarantined]. *)

val component_dirs : string -> string list
(** Source directories (relative to the repo root) a component is counted
    from; raises on unknown names. Used by [cio_lint] to derive the
    trusted-component file set from the same profiles Figure 5 uses. *)

type profile = { config : string; core : string list; quarantined : string list }

val profiles : profile list
val profile : string -> profile

val core_loc : string -> int
(** LoC whose compromise exposes application data. *)

val quarantined_loc : string -> int
(** LoC isolated behind the intra-TEE L5 boundary (dual design only). *)

val pp_profile : Format.formatter -> string -> unit
