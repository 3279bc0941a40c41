(** JSON string output, shared by every machine-readable artifact. *)

val escape : Buffer.t -> string -> unit
(** Append [s] with JSON string escapes and without the surrounding
    quotes: backslash escapes for the quote, the backslash, newline,
    carriage return and tab, [\u00XX] for the other control bytes. Other
    bytes pass through unchanged. *)

val add_string : Buffer.t -> string -> unit
(** Append [s] as a quoted, escaped JSON string. *)
