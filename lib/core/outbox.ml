(* Sealed wire bytes on their way from L5 into TCP.

   TCP takes what its send store has room for and the rest waits here.
   The sent prefix is skipped by an offset rather than cut off by
   rewriting the unsent tail on every partial send, which would copy a
   growing backlog once per pump. The live bytes move to the front only
   when the dead prefix outgrows them, so each byte moves O(1) times. *)

open Cio_tcpip

type t = { buf : Buffer.t; mutable off : int }

let create () = { buf = Buffer.create 4096; off = 0 }
let length t = Buffer.length t.buf - t.off
let add t wire = Buffer.add_bytes t.buf wire

let flush tcp conn t =
  let live = length t in
  if live = 0 then 0
  else begin
    let accepted = Tcp.send_buffer tcp conn ~off:t.off t.buf in
    t.off <- t.off + accepted;
    if t.off > live - accepted then begin
      let rest = Buffer.sub t.buf t.off (live - accepted) in
      Buffer.clear t.buf;
      Buffer.add_string t.buf rest;
      t.off <- 0
    end;
    if accepted > 0 then Tcp.flush tcp conn;
    accepted
  end
