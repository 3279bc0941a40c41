(** Record framing and a defensive record splitter for the untrusted byte
    stream the I/O stack delivers. *)

type content_type = Handshake | Data | Alert | Rekey

val content_code : content_type -> int
val content_of_code : int -> content_type option
val content_name : content_type -> string

val header_len : int
val max_plaintext : int
(** Largest payload one record carries. *)

val max_body : int

type record = { ctype : content_type; body : bytes }

val header : ctype:content_type -> len:int -> bytes
val encode : record -> bytes

type splitter

val splitter : unit -> splitter

type view = { kind : content_type; store : bytes; off : int; len : int }
(** A split record: its body is the [len] bytes at [off] of [store], the
    splitter's own buffer. Valid only until the next {!feed} on the same
    splitter, which may overwrite it. *)

val body : view -> bytes
(** A copy of the body that outlives the view. *)

type split_result = Records of view list | Malformed of string

val feed : splitter -> bytes -> split_result
(** Accumulate stream bytes; emit views of the complete records, with no
    copy of their bodies. Malformed input poisons the splitter
    permanently (fail-closed, no error recovery path). *)
