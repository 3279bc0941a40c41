(* TCP (RFC 9293 subset) — the in-TEE I/O stack's transport.

   Implemented: active/passive open, data transfer with cumulative ACKs,
   MSS negotiation via the SYN option, sliding-window flow control,
   out-of-order reassembly, retransmission with exponential backoff, fast
   retransmit on triple duplicate ACKs, slow start + congestion avoidance,
   graceful close through FIN states and TIME-WAIT, and RST handling.

   Deliberately omitted (documented simplifications): RTT estimation
   (fixed base RTO; the simulator's latencies are known), zero-window
   probes, SACK, urgent data, and simultaneous open. None of these affect
   the experiments, which exercise correctness-under-adversary and counted
   work, not TCP micro-tuning.

   The module is callback-free towards the driver: the stack calls [input]
   with parsed segments and [tick] with the polling clock — the paper's
   no-notifications principle end to end. *)

open Cio_util
open Cio_frame

type state =
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait
  | Closed

let state_name = function
  | Listen -> "LISTEN"
  | Syn_sent -> "SYN-SENT"
  | Syn_received -> "SYN-RECEIVED"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN-WAIT-1"
  | Fin_wait_2 -> "FIN-WAIT-2"
  | Close_wait -> "CLOSE-WAIT"
  | Closing -> "CLOSING"
  | Last_ack -> "LAST-ACK"
  | Time_wait -> "TIME-WAIT"
  | Closed -> "CLOSED"

(* A sent segment awaiting its ACK. Its payload is not copied: it stays
   in the connection's send store until acknowledged. *)
type retx_entry = {
  rseq : int32;
  rlen : int;
  rsyn : bool;
  rfin : bool;
  mutable retries : int;
}

let retx_end e = Tcp_wire.seq_add e.rseq (e.rlen + (if e.rsyn then 1 else 0) + if e.rfin then 1 else 0)

type conn = {
  local_port : int;
  remote_ip : Addr.ipv4;
  remote_port : int;
  mutable state : state;
  (* send side *)
  mutable snd_una : int32;
  mutable snd_nxt : int32;
  mutable snd_wnd : int;
  (* Send store: [sq.[sq_head .. sq_tail)] is the stream from sequence
     [sq_seq], the first byte a retransmission may still need; bytes
     from [sq_next] on are not segmented yet. *)
  mutable sq : bytes;
  mutable sq_head : int;
  mutable sq_next : int;
  mutable sq_tail : int;
  mutable sq_seq : int32;
  retx : retx_entry Queue.t; (* oldest first *)
  mutable dup_acks : int;
  mutable fin_pending : bool;
  mutable fin_seq : int32 option;
  (* receive side *)
  mutable rcv_nxt : int32;
  rcv_capacity : int;
  mutable recv_buf : Buffer.t;   (* in-order stream awaiting the app *)
  mutable ooo : (int32 * bytes) list;  (* out-of-order stash, seq-sorted *)
  mutable fin_rcvd : bool;
  (* congestion control *)
  mutable mss : int;
  mutable cwnd : int;
  mutable ssthresh : int;
  (* timers *)
  mutable rto_ns : int64;
  mutable rtx_deadline : int64 option;
  mutable timewait_deadline : int64 option;
  mutable error : string option;
}

type listener = { lport : int; backlog : int; accept_queue : conn Queue.t }

type t = {
  local_ip : Addr.ipv4;
  send_segment : dst:Addr.ipv4 -> bytes -> int -> unit;
  now : unit -> int64;
  rng : Rng.t;
  meter : Cost.meter;
  model : Cost.model;
  default_mss : int;
  base_rto_ns : int64;
  max_retries : int;
  (* Shared retry budget (overload plane): every retransmit — RTO or
     fast — spends from it, so a lossy episode cannot turn into a
     self-synchronised retry storm across connections. *)
  retry_budget : Cio_overload.Retry_budget.t option;
  mutable conns : conn list;
  mutable listeners : listener list;
  mutable next_ephemeral : int;
  mutable segments_in : int;
  mutable segments_out : int;
  mutable retransmits : int;
}

let m_segment_bytes =
  Cio_telemetry.Metrics.histogram Cio_telemetry.Metrics.default "tcp.segment_bytes"

(* Both retransmission paths (triple-dup-ack fast retransmit and RTO
   expiry) funnel through here. *)
let note_retransmit t =
  t.retransmits <- t.retransmits + 1;
  if Cio_telemetry.Trace.on () then
    Cio_telemetry.Trace.instant ~cat:Cio_telemetry.Kind.tcp "retransmit"

let create ?(default_mss = 1460) ?(base_rto_ns = 200_000_000L) ?(max_retries = 8)
    ?(model = Cost.default) ?meter ?retry_budget ~local_ip ~send_segment ~now ~rng () =
  {
    local_ip;
    send_segment;
    now;
    rng;
    meter = (match meter with Some m -> m | None -> Cost.meter ());
    model;
    default_mss;
    base_rto_ns;
    max_retries;
    retry_budget;
    conns = [];
    listeners = [];
    (* Randomised ephemeral-port start (deterministic per rng seed): a
       restarted stack must not march through the same port sequence as
       its dead predecessor, or its first SYN collides with the peer's
       lingering half of the old connection. *)
    next_ephemeral = 49152 + Rng.int rng 16_000;
    segments_in = 0;
    segments_out = 0;
    retransmits = 0;
  }

let meter t = t.meter
let segments_in t = t.segments_in
let segments_out t = t.segments_out
let retransmits t = t.retransmits

let conn_state c = c.state
let conn_error c = c.error
let conn_remote c = (c.remote_ip, c.remote_port)

(* Every segment processed charges stack work: the cycles that live inside
   the TEE's I/O stack TCB. This is what the dual-boundary design pushes
   out of the core TCB. *)
let charge_stack t nbytes =
  Cost.charge t.meter Cost.Stack (300 + Cost.copy_cost t.model nbytes)

(* Count, charge and send one segment; its payload [data.[at .. at+len)]
   is written straight into the frame. *)
let transmit t ~dst seg ~data ~at ~len =
  t.segments_out <- t.segments_out + 1;
  charge_stack t len;
  let frame = Tcp_wire.build_frame ~src_ip:t.local_ip ~dst_ip:dst seg ~data ~off:at ~len in
  t.send_segment ~dst frame (Tcp_wire.header_bytes seg + len)

(* A segment on [conn] carrying [len] bytes of its send store from [at]. *)
let emit t conn ?(at = 0) ?(len = 0) ?(syn = false) ?(fin = false) ?(rst = false)
    ?(ack = true) ~seq () =
  let seg =
    {
      Tcp_wire.src_port = conn.local_port;
      dst_port = conn.remote_port;
      seq;
      ack = (if ack then conn.rcv_nxt else 0l);
      flags = { Tcp_wire.syn; fin; rst; ack; psh = len > 0 };
      window = max 0 (conn.rcv_capacity - Buffer.length conn.recv_buf);
      mss = (if syn then Some t.default_mss else None);
      payload = Bytes.empty;
    }
  in
  Cio_telemetry.Metrics.observe m_segment_bytes len;
  transmit t ~dst:conn.remote_ip seg ~data:conn.sq ~at ~len

let send_rst t ~dst ~(to_seg : Tcp_wire.t) =
  (* RFC 9293 §3.10.7.1 reset generation for segments with no connection. *)
  if not to_seg.Tcp_wire.flags.Tcp_wire.rst then begin
    let seq, ack, ack_flag =
      if to_seg.Tcp_wire.flags.Tcp_wire.ack then (to_seg.Tcp_wire.ack, 0l, false)
      else
        ( 0l,
          Tcp_wire.seq_add to_seg.Tcp_wire.seq
            (Bytes.length to_seg.Tcp_wire.payload
            + (if to_seg.Tcp_wire.flags.Tcp_wire.syn then 1 else 0)
            + if to_seg.Tcp_wire.flags.Tcp_wire.fin then 1 else 0),
          true )
    in
    let seg =
      {
        Tcp_wire.src_port = to_seg.Tcp_wire.dst_port;
        dst_port = to_seg.Tcp_wire.src_port;
        seq;
        ack;
        flags = { Tcp_wire.flags_none with rst = true; ack = ack_flag };
        window = 0;
        mss = None;
        payload = Bytes.empty;
      }
    in
    transmit t ~dst seg ~data:Bytes.empty ~at:0 ~len:0
  end

let isn t = Rng.next_int64 t.rng |> Int64.to_int32

let fresh_conn t ~local_port ~remote_ip ~remote_port ~state =
  let iss = isn t in
  let c =
    {
      local_port;
      remote_ip;
      remote_port;
      state;
      snd_una = iss;
      snd_nxt = iss;
      snd_wnd = 0;
      sq = Bytes.create 4096;
      sq_head = 0;
      sq_next = 0;
      sq_tail = 0;
      sq_seq = Tcp_wire.seq_add iss 1;
      retx = Queue.create ();
      dup_acks = 0;
      fin_pending = false;
      fin_seq = None;
      rcv_nxt = 0l;
      rcv_capacity = 65535;
      recv_buf = Buffer.create 4096;
      ooo = [];
      fin_rcvd = false;
      mss = t.default_mss;
      cwnd = 2 * t.default_mss;
      ssthresh = 65535;
      rto_ns = t.base_rto_ns;
      rtx_deadline = None;
      timewait_deadline = None;
      error = None;
    }
  in
  t.conns <- c :: t.conns;
  c

let find_conn t ~local_port ~remote_ip ~remote_port =
  List.find_opt
    (fun c ->
      c.local_port = local_port && c.remote_ip = remote_ip && c.remote_port = remote_port
      && c.state <> Closed && c.state <> Listen)
    t.conns

let find_listener t ~port = List.find_opt (fun l -> l.lport = port) t.listeners

let arm_rtx t c = if c.rtx_deadline = None then c.rtx_deadline <- Some (Int64.add (t.now ()) c.rto_ns)

let record_retx t c ~seq ~len ~syn ~fin =
  Queue.add { rseq = seq; rlen = len; rsyn = syn; rfin = fin; retries = 0 } c.retx;
  arm_rtx t c

(* Re-send a recorded segment from the bytes the send store kept for it. *)
let resend t c ?ack e =
  let at = if e.rlen = 0 then 0 else c.sq_head + Tcp_wire.seq_diff e.rseq c.sq_seq in
  emit t c ~at ~len:e.rlen ~syn:e.rsyn ~fin:e.rfin ?ack ~seq:e.rseq ()

let in_flight c = Tcp_wire.seq_diff c.snd_nxt c.snd_una

(* Push queued application data as segments while both flow-control and
   congestion windows allow. *)
let rec output t c =
  match c.state with
  | Established | Close_wait ->
      let window = min c.snd_wnd c.cwnd in
      let usable = window - in_flight c in
      let queued = c.sq_tail - c.sq_next in
      if queued > 0 && usable > 0 then begin
        let len = min (min queued usable) c.mss in
        let seq = c.snd_nxt in
        c.snd_nxt <- Tcp_wire.seq_add c.snd_nxt len;
        record_retx t c ~seq ~len ~syn:false ~fin:false;
        emit t c ~at:c.sq_next ~len ~seq ();
        c.sq_next <- c.sq_next + len;
        output t c
      end
      else if queued = 0 && c.fin_pending && c.fin_seq = None then begin
        (* All data segmented: send FIN. *)
        let seq = c.snd_nxt in
        c.snd_nxt <- Tcp_wire.seq_add c.snd_nxt 1;
        c.fin_seq <- Some seq;
        record_retx t c ~seq ~len:0 ~syn:false ~fin:true;
        emit t c ~fin:true ~seq ();
        c.state <- (match c.state with Established -> Fin_wait_1 | _ -> Last_ack)
      end
  | _ -> ()

let connect t ?src_port ~dst ~dst_port () =
  let local_port =
    match src_port with
    | Some p -> p
    | None ->
        let p = t.next_ephemeral in
        t.next_ephemeral <- (if p >= 65535 then 49152 else p + 1);
        p
  in
  let c = fresh_conn t ~local_port ~remote_ip:dst ~remote_port:dst_port ~state:Syn_sent in
  let seq = c.snd_nxt in
  c.snd_nxt <- Tcp_wire.seq_add c.snd_nxt 1;
  record_retx t c ~seq ~len:0 ~syn:true ~fin:false;
  emit t c ~syn:true ~ack:false ~seq ();
  c

let listen t ~port ?(backlog = 16) () =
  match find_listener t ~port with
  | Some _ -> invalid_arg "Tcp.listen: port already bound"
  | None ->
      let l = { lport = port; backlog; accept_queue = Queue.create () } in
      t.listeners <- l :: t.listeners;
      l

let accept l = Queue.take_opt l.accept_queue

(* Append up to [avail] bytes to the send store, [blit dst off n] writing
   them. The live bytes move to the front when that frees enough room;
   otherwise the store doubles until they fit. *)
let enqueue c avail blit =
  match c.state with
  | (Established | Close_wait) when not c.fin_pending ->
      let n = min (262144 - (c.sq_tail - c.sq_next)) avail in
      let cap = Bytes.length c.sq and live = c.sq_tail - c.sq_head in
      if c.sq_tail + n > cap then begin
        let rec size k = if k >= live + n then k else size (2 * k) in
        let dst = if 2 * (live + n) <= cap then c.sq else Bytes.create (size (2 * cap)) in
        Bytes.blit c.sq c.sq_head dst 0 live;
        c.sq <- dst;
        c.sq_next <- c.sq_next - c.sq_head;
        c.sq_tail <- live;
        c.sq_head <- 0
      end;
      blit c.sq c.sq_tail n;
      c.sq_tail <- c.sq_tail + n;
      n
  | _ -> 0

let send _t c data = enqueue c (Bytes.length data) (fun dst off n -> Bytes.blit data 0 dst off n)
let send_buffer _t c ~off buf = enqueue c (Buffer.length buf - off) (fun dst at n -> Buffer.blit buf off dst at n)

let flush t c = output t c

let recv _t c ~max =
  let avail = Buffer.length c.recv_buf in
  let n = min max avail in
  if n = 0 then Bytes.empty
  else begin
    let out = Bytes.create n in
    Buffer.blit c.recv_buf 0 out 0 n;
    (* Only a partial read shifts the unread tail. *)
    let rest = if n < avail then Buffer.sub c.recv_buf n (avail - n) else "" in
    Buffer.clear c.recv_buf;
    Buffer.add_string c.recv_buf rest;
    out
  end

let recv_available c = Buffer.length c.recv_buf

let eof c = c.fin_rcvd && Buffer.length c.recv_buf = 0

let close t c =
  match c.state with
  | Established | Close_wait | Syn_received ->
      c.fin_pending <- true;
      output t c
  | Syn_sent | Listen ->
      c.state <- Closed
  | _ -> ()

let abort t c =
  (match c.state with
  | Established | Syn_received | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack ->
      emit t c ~rst:true ~seq:c.snd_nxt ()
  | _ -> ());
  c.state <- Closed;
  c.error <- Some "aborted"

(* Insert an out-of-order segment keeping the stash sorted and bounded. *)
let stash_ooo c seq payload =
  if List.length c.ooo < 64 then begin
    let rec ins = function
      | [] -> [ (seq, payload) ]
      | (s, p) :: rest as all ->
          if Tcp_wire.seq_lt seq s then (seq, payload) :: all
          else if s = seq then all  (* duplicate stash *)
          else (s, p) :: ins rest
    in
    c.ooo <- ins c.ooo
  end

(* After advancing rcv_nxt, pull any now-contiguous stashed segments. *)
let rec drain_ooo c =
  match c.ooo with
  | (s, p) :: rest when Tcp_wire.seq_leq s c.rcv_nxt ->
      c.ooo <- rest;
      let skip = Tcp_wire.seq_diff c.rcv_nxt s in
      if skip < Bytes.length p then begin
        Buffer.add_subbytes c.recv_buf p skip (Bytes.length p - skip);
        c.rcv_nxt <- Tcp_wire.seq_add c.rcv_nxt (Bytes.length p - skip)
      end;
      drain_ooo c
  | _ -> ()

let deliver_payload c (seg : Tcp_wire.t) =
  let len = Bytes.length seg.payload in
  if len > 0 then begin
    if seg.seq = c.rcv_nxt then begin
      let room = c.rcv_capacity - Buffer.length c.recv_buf in
      let take = min len room in
      Buffer.add_subbytes c.recv_buf seg.payload 0 take;
      c.rcv_nxt <- Tcp_wire.seq_add c.rcv_nxt take;
      drain_ooo c
    end
    else if Tcp_wire.seq_lt c.rcv_nxt seg.seq then begin
      let dist = Tcp_wire.seq_diff seg.seq c.rcv_nxt in
      if dist < c.rcv_capacity then stash_ooo c seg.seq seg.payload
    end
    else begin
      (* Partially old segment: deliver the fresh tail. *)
      let skip = Tcp_wire.seq_diff c.rcv_nxt seg.seq in
      if skip < len then begin
        let room = c.rcv_capacity - Buffer.length c.recv_buf in
        let take = min (len - skip) room in
        Buffer.add_subbytes c.recv_buf seg.payload skip take;
        c.rcv_nxt <- Tcp_wire.seq_add c.rcv_nxt take;
        drain_ooo c
      end
    end
  end

let process_ack t c (seg : Tcp_wire.t) =
  let ack = seg.Tcp_wire.ack in
  if Tcp_wire.seq_lt c.snd_una ack && Tcp_wire.seq_leq ack c.snd_nxt then begin
    (* New data acknowledged. *)
    let acked = Tcp_wire.seq_diff ack c.snd_una in
    c.snd_una <- ack;
    c.dup_acks <- 0;
    c.snd_wnd <- seg.Tcp_wire.window;
    (* Drop the segments acknowledged in full (ends increase along the
       queue, so they are a prefix) and the send-store bytes that only
       they could resend. *)
    while (not (Queue.is_empty c.retx)) && not (Tcp_wire.seq_lt ack (retx_end (Queue.peek c.retx))) do
      ignore (Queue.take c.retx)
    done;
    let keep = if Queue.is_empty c.retx then ack else (Queue.peek c.retx).rseq in
    let k = min (c.sq_next - c.sq_head) (max 0 (Tcp_wire.seq_diff keep c.sq_seq)) in
    c.sq_head <- c.sq_head + k;
    c.sq_seq <- Tcp_wire.seq_add c.sq_seq k;
    (* Congestion control: slow start then additive increase. *)
    if c.cwnd < c.ssthresh then c.cwnd <- c.cwnd + min acked c.mss
    else c.cwnd <- c.cwnd + max 1 (c.mss * c.mss / c.cwnd);
    c.rto_ns <- t.base_rto_ns;
    c.rtx_deadline <- (if Queue.is_empty c.retx then None else Some (Int64.add (t.now ()) c.rto_ns));
    (* Forward progress pays back into the shared retry budget. *)
    (match t.retry_budget with
    | Some rb -> Cio_overload.Retry_budget.on_success rb
    | None -> ());
    (* FIN acked? *)
    (match c.fin_seq with
    | Some fs when Tcp_wire.seq_lt fs ack -> (
        match c.state with
        | Fin_wait_1 -> c.state <- Fin_wait_2
        | Closing ->
            c.state <- Time_wait;
            c.timewait_deadline <- Some (Int64.add (t.now ()) (Int64.mul 2L c.rto_ns))
        | Last_ack -> c.state <- Closed
        | _ -> ())
    | _ -> ());
    output t c
  end
  else if ack = c.snd_una && Bytes.length seg.Tcp_wire.payload = 0 && not (Queue.is_empty c.retx) then begin
    (* Duplicate ACK. *)
    c.snd_wnd <- seg.Tcp_wire.window;
    c.dup_acks <- c.dup_acks + 1;
    if c.dup_acks = 3 then begin
      (* Fast retransmit also spends a retry token: when the budget is
         dry the cumulative-ACK / RTO machinery still recovers, just
         without the extra speculative send. *)
      let budget_ok =
        match t.retry_budget with
        | Some rb -> Cio_overload.Retry_budget.try_retry rb
        | None -> true
      in
      if budget_ok then begin
        let e = Queue.peek c.retx in
        let flight = max (in_flight c) c.mss in
        c.ssthresh <- max (flight / 2) (2 * c.mss);
        c.cwnd <- c.ssthresh;
        e.retries <- e.retries + 1;
        note_retransmit t;
        resend t c e
      end
    end
  end
  else if ack = c.snd_una then c.snd_wnd <- seg.Tcp_wire.window

let handle_synsent t c (seg : Tcp_wire.t) =
  if seg.Tcp_wire.flags.Tcp_wire.rst then begin
    if seg.Tcp_wire.flags.Tcp_wire.ack && seg.Tcp_wire.ack = c.snd_nxt then begin
      c.state <- Closed;
      c.error <- Some "connection refused"
    end
  end
  else if seg.Tcp_wire.flags.Tcp_wire.syn && seg.Tcp_wire.flags.Tcp_wire.ack then begin
    if seg.Tcp_wire.ack = c.snd_nxt then begin
      c.rcv_nxt <- Tcp_wire.seq_add seg.Tcp_wire.seq 1;
      c.snd_una <- seg.Tcp_wire.ack;
      c.snd_wnd <- seg.Tcp_wire.window;
      (match seg.Tcp_wire.mss with Some m -> c.mss <- min m t.default_mss | None -> ());
      c.cwnd <- 2 * c.mss;
      Queue.clear c.retx;
      c.rtx_deadline <- None;
      c.state <- Established;
      emit t c ~seq:c.snd_nxt ();  (* ACK completing the handshake *)
      output t c
    end
    else send_rst t ~dst:c.remote_ip ~to_seg:seg
  end
  else if seg.Tcp_wire.flags.Tcp_wire.ack && seg.Tcp_wire.ack <> c.snd_nxt then
    (* RFC 9293 §3.10.7.3: an unacceptable ACK in SYN-SENT gets a RST.
       This is the ghost-busting path: if our 4-tuple collides with a
       stale connection at the peer (e.g. after an I/O-stack restart),
       the peer's challenge ACK lands here, our RST kills the stale
       conn, and the retransmitted SYN then completes normally. *)
    send_rst t ~dst:c.remote_ip ~to_seg:seg

let seq_acceptable c (seg : Tcp_wire.t) =
  (* RFC 9293 §3.4 acceptability, with the simplification of a constant
     advertised window. *)
  let seg_len = Bytes.length seg.Tcp_wire.payload in
  let wnd = c.rcv_capacity in
  if seg_len = 0 then
    Tcp_wire.seq_leq c.rcv_nxt seg.Tcp_wire.seq
    || Tcp_wire.seq_lt (Tcp_wire.seq_add seg.Tcp_wire.seq (-1)) (Tcp_wire.seq_add c.rcv_nxt wnd)
  else
    Tcp_wire.seq_lt seg.Tcp_wire.seq (Tcp_wire.seq_add c.rcv_nxt wnd)
    && Tcp_wire.seq_lt c.rcv_nxt (Tcp_wire.seq_add seg.Tcp_wire.seq seg_len)
    || seg.Tcp_wire.seq = c.rcv_nxt

let handle_fin t c (seg : Tcp_wire.t) =
  let fin_seq = Tcp_wire.seq_add seg.Tcp_wire.seq (Bytes.length seg.Tcp_wire.payload) in
  if fin_seq = c.rcv_nxt then begin
    c.rcv_nxt <- Tcp_wire.seq_add c.rcv_nxt 1;
    c.fin_rcvd <- true;
    (match c.state with
    | Established -> c.state <- Close_wait
    | Fin_wait_1 -> c.state <- Closing
    | Fin_wait_2 ->
        c.state <- Time_wait;
        c.timewait_deadline <- Some (Int64.add (t.now ()) (Int64.mul 2L c.rto_ns))
    | _ -> ());
    emit t c ~seq:c.snd_nxt ()
  end

let handle_established t c (seg : Tcp_wire.t) =
  if not (seq_acceptable c seg) then
    (* Unacceptable: ACK and drop (protects against old/replayed data). *)
    emit t c ~seq:c.snd_nxt ()
  else if seg.Tcp_wire.flags.Tcp_wire.rst then begin
    c.state <- Closed;
    c.error <- Some "connection reset by peer"
  end
  else if seg.Tcp_wire.flags.Tcp_wire.syn && Tcp_wire.seq_lt seg.Tcp_wire.seq c.rcv_nxt then
    (* Retransmitted handshake SYN: re-ACK. *)
    emit t c ~seq:c.snd_nxt ()
  else if seg.Tcp_wire.flags.Tcp_wire.syn then
    (* RFC 5961 §4: an in-window SYN on a synchronized connection gets a
       challenge ACK, never silence. If the SYN is a new incarnation of
       the 4-tuple, the sender answers the challenge with a RST and the
       stale connection dies. *)
    emit t c ~seq:c.snd_nxt ()
  else begin
    if seg.Tcp_wire.flags.Tcp_wire.ack then process_ack t c seg;
    let before = c.rcv_nxt in
    deliver_payload c seg;
    if seg.Tcp_wire.flags.Tcp_wire.fin then handle_fin t c seg
    else if c.rcv_nxt <> before || Bytes.length seg.Tcp_wire.payload > 0 then
      (* Data arrived (in order or not): ACK immediately. *)
      emit t c ~seq:c.snd_nxt ()
  end

let handle_synreceived t c l (seg : Tcp_wire.t) =
  if seg.Tcp_wire.flags.Tcp_wire.rst then c.state <- Closed
  else if seg.Tcp_wire.flags.Tcp_wire.ack && seg.Tcp_wire.ack = c.snd_nxt then begin
    c.snd_una <- seg.Tcp_wire.ack;
    c.snd_wnd <- seg.Tcp_wire.window;
    Queue.clear c.retx;
    c.rtx_deadline <- None;
    c.state <- Established;
    (match l with
    | Some l when Queue.length l.accept_queue < l.backlog -> Queue.add c l.accept_queue
    | _ -> ());
    (* The completing ACK may already carry data. *)
    if Bytes.length seg.Tcp_wire.payload > 0 then handle_established t c seg
  end
  else if seg.Tcp_wire.flags.Tcp_wire.syn && Bytes.length seg.Tcp_wire.payload = 0 then
    (* Retransmitted SYN: resend SYN-ACK. *)
    Option.iter (resend t c) (Queue.peek_opt c.retx)

let input t ~src (seg : Tcp_wire.t) =
  t.segments_in <- t.segments_in + 1;
  charge_stack t (Bytes.length seg.Tcp_wire.payload);
  match
    find_conn t ~local_port:seg.Tcp_wire.dst_port ~remote_ip:src ~remote_port:seg.Tcp_wire.src_port
  with
  | Some c -> (
      match c.state with
      | Syn_sent -> handle_synsent t c seg
      | Syn_received ->
          handle_synreceived t c (find_listener t ~port:c.local_port) seg
      | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack ->
          handle_established t c seg
      | Time_wait ->
          if seg.Tcp_wire.flags.Tcp_wire.fin then emit t c ~seq:c.snd_nxt ()
      | Listen | Closed -> send_rst t ~dst:src ~to_seg:seg)
  | None -> (
      match find_listener t ~port:seg.Tcp_wire.dst_port with
      | Some _ when seg.Tcp_wire.flags.Tcp_wire.syn && not seg.Tcp_wire.flags.Tcp_wire.ack ->
          let c =
            fresh_conn t ~local_port:seg.Tcp_wire.dst_port ~remote_ip:src
              ~remote_port:seg.Tcp_wire.src_port ~state:Syn_received
          in
          c.rcv_nxt <- Tcp_wire.seq_add seg.Tcp_wire.seq 1;
          (match seg.Tcp_wire.mss with Some m -> c.mss <- min m t.default_mss | None -> ());
          c.cwnd <- 2 * c.mss;
          c.snd_wnd <- seg.Tcp_wire.window;
          let seq = c.snd_nxt in
          c.snd_nxt <- Tcp_wire.seq_add c.snd_nxt 1;
          record_retx t c ~seq ~len:0 ~syn:true ~fin:false;
          emit t c ~syn:true ~seq ()
      | _ -> send_rst t ~dst:src ~to_seg:seg)

let tick t =
  let now = t.now () in
  List.iter
    (fun c ->
      (match c.timewait_deadline with
      | Some d when d <= now -> c.state <- Closed
      | _ -> ());
      match c.rtx_deadline with
      | Some d when d <= now -> (
          match Queue.peek_opt c.retx with
          | None -> c.rtx_deadline <- None
          | Some e ->
              if e.retries >= t.max_retries then begin
                c.state <- Closed;
                c.error <- Some "retransmission limit exceeded";
                c.rtx_deadline <- None
              end
              else begin
                match t.retry_budget with
                | Some rb when not (Cio_overload.Retry_budget.try_retry rb) ->
                    (* Budget dry: defer without spending a retry or
                       touching cwnd. The decorrelated-jitter backoff
                       paces the re-attempt so a fleet of starved
                       connections cannot retry in lockstep. *)
                    c.rtx_deadline <-
                      Some (Int64.add now (Cio_overload.Retry_budget.backoff_ns rb))
                | budget ->
                    e.retries <- e.retries + 1;
                    (* Exponential backoff and multiplicative decrease. *)
                    c.rto_ns <- Int64.mul 2L c.rto_ns;
                    c.ssthresh <- max (in_flight c / 2) (2 * c.mss);
                    c.cwnd <- c.mss;
                    (* With a budget attached, pacing takes the worse of
                       the per-connection RTO and the shared jittered
                       backoff. *)
                    let pace =
                      match budget with
                      | Some rb ->
                          Int64.max c.rto_ns (Cio_overload.Retry_budget.backoff_ns rb)
                      | None -> c.rto_ns
                    in
                    c.rtx_deadline <- Some (Int64.add now pace);
                    note_retransmit t;
                    resend t c ~ack:(not (e.rsyn && c.state = Syn_sent)) e
              end)
      | _ -> ())
    t.conns;
  (* Drop closed connections, errored ones too: the application holds its
     own [conn], so [conn_error] still reads. *)
  t.conns <- List.filter (fun c -> c.state <> Closed) t.conns
