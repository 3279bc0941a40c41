(** Sealed wire bytes queued at the L5 boundary until TCP accepts them.
    Handing bytes to TCP costs time linear in the bytes handed over,
    however long the backlog grows. *)

type t

val create : unit -> t

val length : t -> int
(** Bytes not yet accepted by TCP. *)

val add : t -> bytes -> unit

val flush : Cio_tcpip.Tcp.t -> Cio_tcpip.Tcp.conn -> t -> int
(** Hand TCP as much of the backlog as it takes, oldest first, and
    flush the connection when it took any. Returns the bytes taken. *)
