module S = Sched.Scheduler

let hello_magic = "PRS1"

let hello_len = 8 (* magic + BE32 dialer address *)

let max_frame = 1 lsl 26 (* sanity bound; a corrupt length prefix must not OOM us *)

(* A drained carry or write buffer larger than this is dropped rather
   than kept for the connection's lifetime; frames over 64 KiB are rare
   and the next one regrows it. *)
let buf_keep = 65536

(* --- big-endian 32-bit helpers ------------------------------------ *)

let be32_get b off = (Bytes.get_uint16_be b off lsl 16) lor Bytes.get_uint16_be b (off + 2)

let be32_set b off n =
  Bytes.set_uint16_be b off ((n lsr 16) land 0xffff);
  Bytes.set_uint16_be b (off + 2) (n land 0xffff)

type ep = {
  e_addr : int;
  e_name : string;
  mutable e_recv : src:int -> string -> unit;
  mutable e_watch : peer:int -> reason:string -> unit;
}

type conn = {
  c_fd : Unix.file_descr;
  c_ep : ep; (* local endpoint this connection delivers to *)
  mutable c_peer : int; (* -1 on an accepted connection until its hello *)
  (* The start of the hello or frame a read ended inside, in
     [c_carry.[0, c_carry_len)]: at most one incomplete unit. *)
  mutable c_carry : Bytes.t;
  mutable c_carry_len : int;
  (* Write queue: accepted but unwritten bytes, in
     [c_wbuf.[c_woff, c_wlen)]. *)
  mutable c_wbuf : Bytes.t;
  mutable c_woff : int;
  mutable c_wlen : int;
  mutable c_closed : bool;
}

type fabric = {
  f_sched : S.t;
  f_stats : Sim.Stats.t;
  f_eps : (int, ep) Hashtbl.t;
  f_book : (int, Unix.sockaddr) Hashtbl.t; (* address book for dialing *)
  mutable f_listeners : (Unix.file_descr * ep) list;
  mutable f_conns : conn list;
  f_wake_r : Unix.file_descr; (* self-pipe: inject/wakeup breaks select *)
  f_wake_w : Unix.file_descr;
  f_epoch : float; (* gettimeofday at create minus scheduler time then *)
  mutable f_max_chunk : int;
  (* Every read lands here, [f_max_chunk] bytes; frames are parsed in
     place and copied out, so nothing keeps a reference to it. *)
  mutable f_rbuf : Bytes.t;
  (* Per-frame counters, registered on first use like a by-name lookup. *)
  f_frames_sent : Sim.Stats.counter Lazy.t;
  f_bytes_sent : Sim.Stats.counter Lazy.t;
  f_frames_received : Sim.Stats.counter Lazy.t;
  f_bytes_received : Sim.Stats.counter Lazy.t;
  mutable f_closed : bool;
}

let sched fab = fab.f_sched

let stats fab = fab.f_stats

let counter fab name = Sim.Stats.counter fab.f_stats name

let new_conn fd ep peer =
  {
    c_fd = fd;
    c_ep = ep;
    c_peer = peer;
    c_carry = Bytes.empty;
    c_carry_len = 0;
    c_wbuf = Bytes.empty;
    c_woff = 0;
    c_wlen = 0;
    c_closed = false;
  }

(* A buffer of at least [need] bytes that starts with [b.[off, off+keep)].
   Doubling keeps a frame that arrives in many pieces to a few copies. *)
let regrow b ~off ~keep ~need =
  let b' = Bytes.create (max 256 (max need (2 * Bytes.length b))) in
  Bytes.blit b off b' 0 keep;
  b'

(* --- connection lifecycle ----------------------------------------- *)

let conn_down fab c reason =
  if not c.c_closed then begin
    c.c_closed <- true;
    (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
    fab.f_conns <- List.filter (fun c' -> c' != c) fab.f_conns;
    Sim.Stats.incr (counter fab "transport_conns_lost");
    if c.c_peer >= 0 then c.c_ep.e_watch ~peer:c.c_peer ~reason
  end

let rec try_flush fab c =
  if (not c.c_closed) && c.c_wlen > c.c_woff then begin
    let n = min (c.c_wlen - c.c_woff) fab.f_max_chunk in
    match Unix.write c.c_fd c.c_wbuf c.c_woff n with
    | written ->
        c.c_woff <- c.c_woff + written;
        if c.c_woff = c.c_wlen then begin
          c.c_woff <- 0;
          c.c_wlen <- 0;
          if Bytes.length c.c_wbuf > buf_keep then c.c_wbuf <- Bytes.empty
        end
        else if written > 0 then try_flush fab c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        () (* kernel buffer full; select watches writability while bytes are queued *)
    | exception Unix.Unix_error (e, _, _) ->
        conn_down fab c ("write: " ^ Unix.error_message e)
  end

(* Claim [n] bytes at the tail of the write queue and return their
   offset. Unwritten bytes slide to the front first; the buffer grows
   only when that is not enough. *)
let wq_alloc c n =
  if c.c_wlen + n > Bytes.length c.c_wbuf then begin
    let pending = c.c_wlen - c.c_woff in
    (if pending + n > Bytes.length c.c_wbuf then
       c.c_wbuf <- regrow c.c_wbuf ~off:c.c_woff ~keep:pending ~need:(pending + n)
     else Bytes.blit c.c_wbuf c.c_woff c.c_wbuf 0 pending);
    c.c_woff <- 0;
    c.c_wlen <- pending
  end;
  let off = c.c_wlen in
  c.c_wlen <- off + n;
  off

let find_conn fab ep dst =
  List.find_opt (fun c -> (not c.c_closed) && c.c_ep == ep && c.c_peer = dst) fab.f_conns

let dial fab ep dst =
  match Hashtbl.find_opt fab.f_book dst with
  | None -> None
  | Some sa -> (
      match Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error _ ->
          Sim.Stats.incr (counter fab "transport_dial_failures");
          None
      | fd -> (
          match
            (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
            (* Blocking connect: the intended targets are loopback /
               LAN listeners where this is instantaneous. *)
            Unix.connect fd sa;
            Unix.set_nonblock fd
          with
          | () ->
              let c = new_conn fd ep dst in
              fab.f_conns <- c :: fab.f_conns;
              Sim.Stats.incr (counter fab "transport_conns_opened");
              let off = wq_alloc c hello_len in
              Bytes.blit_string hello_magic 0 c.c_wbuf off 4;
              be32_set c.c_wbuf (off + 4) ep.e_addr;
              try_flush fab c;
              Some c
          | exception Unix.Unix_error _ ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Sim.Stats.incr (counter fab "transport_dial_failures");
              None))

let send fab ep ~dst frame =
  if not fab.f_closed then
    let c =
      match find_conn fab ep dst with Some c -> Some c | None -> dial fab ep dst
    in
    match c with
    | None -> () (* unreachable peer: drop, like a lossy net; retransmit recovers *)
    | Some c ->
        let len = String.length frame in
        Sim.Stats.incr (Lazy.force fab.f_frames_sent);
        Sim.Stats.add (Lazy.force fab.f_bytes_sent) len;
        (* Prefix and payload side by side: on an idle connection both
           leave in one syscall. *)
        let off = wq_alloc c (4 + len) in
        be32_set c.c_wbuf off len;
        Bytes.blit_string frame 0 c.c_wbuf (off + 4) len;
        try_flush fab c

(* --- receive path -------------------------------------------------- *)

(* Deliver every whole unit in [buf.[off, stop)] (on an accepted
   connection the hello comes first, then frames) and return where the
   unparsed rest begins. Each frame goes up as its own immutable copy:
   receivers keep frames alive (lazy views, dedup replays), while [buf]
   is reused by the next read. *)
let rec parse fab c buf off stop =
  if c.c_closed then stop
  else if c.c_peer < 0 then
    if stop - off < hello_len then off
    else if Bytes.sub_string buf off 4 <> hello_magic then begin
      conn_down fab c "bad hello";
      stop
    end
    else begin
      c.c_peer <- be32_get buf (off + 4);
      parse fab c buf (off + hello_len) stop
    end
  else if stop - off < 4 then off
  else begin
    let flen = be32_get buf off in
    if flen > max_frame then begin
      conn_down fab c "oversized frame";
      stop
    end
    else if stop - off - 4 < flen then off
    else begin
      let frame = Bytes.sub_string buf (off + 4) flen in
      Sim.Stats.incr (Lazy.force fab.f_frames_received);
      Sim.Stats.add (Lazy.force fab.f_bytes_received) flen;
      c.c_ep.e_recv ~src:c.c_peer frame;
      parse fab c buf (off + 4 + flen) stop
    end
  end

let carry_append c buf off n =
  let len = c.c_carry_len + n in
  if len > Bytes.length c.c_carry then
    c.c_carry <- regrow c.c_carry ~off:0 ~keep:c.c_carry_len ~need:len;
  Bytes.blit buf off c.c_carry c.c_carry_len n;
  c.c_carry_len <- len

(* Bytes the carry still lacks to hold its unit whole. [parse] has
   already checked any length prefix in it against [max_frame]. *)
let carry_need c =
  if c.c_peer < 0 then hello_len - c.c_carry_len
  else if c.c_carry_len < 4 then 4 - c.c_carry_len
  else 4 + be32_get c.c_carry 0 - c.c_carry_len

(* Complete the carried unit from [buf.[off, stop)], copying only the
   bytes it lacks, and deliver it; return where in-place parsing of
   [buf] resumes ([stop] if the unit is still short). It takes two
   rounds when the carry ends inside a length prefix: one for the
   prefix, one for the payload it announces. *)
let rec top_up fab c buf off stop =
  if c.c_closed || c.c_carry_len = 0 || off = stop then off
  else begin
    let take = min (carry_need c) (stop - off) in
    carry_append c buf off take;
    if parse fab c c.c_carry 0 c.c_carry_len > 0 then begin
      c.c_carry_len <- 0;
      if Bytes.length c.c_carry > buf_keep then c.c_carry <- Bytes.empty
    end;
    top_up fab c buf (off + take) stop
  end

let handle_readable fab c =
  if not c.c_closed then begin
    let buf = fab.f_rbuf in
    match Unix.read c.c_fd buf 0 (Bytes.length buf) with
    | 0 -> conn_down fab c "connection closed by peer"
    | n ->
        let off = top_up fab c buf 0 n in
        let rest = parse fab c buf off n in
        if rest < n then carry_append c buf rest (n - rest)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> conn_down fab c ("read: " ^ Unix.error_message e)
  end

let accept_conn fab lfd ep =
  match Unix.accept lfd with
  | fd, _ ->
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      Unix.set_nonblock fd;
      let c = new_conn fd ep (-1) in
      fab.f_conns <- c :: fab.f_conns;
      Sim.Stats.incr (counter fab "transport_conns_opened")
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let drain_wake fab =
  let buf = fab.f_rbuf in
  let rec go () =
    match Unix.read fab.f_wake_r buf 0 (Bytes.length buf) with
    | n when n = Bytes.length buf -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ()

(* The scheduler's [rt_wait]: one select round over everything the
   fabric owns, delivering frames / accepting / flushing in scheduler
   context before returning to the run loop. *)
let service fab timeout =
  if not fab.f_closed then begin
    let rfds =
      fab.f_wake_r
      :: (List.map fst fab.f_listeners @ List.map (fun c -> c.c_fd) fab.f_conns)
    in
    let wfds =
      List.filter_map (fun c -> if c.c_wlen > c.c_woff then Some c.c_fd else None) fab.f_conns
    in
    let tmo = match timeout with None -> -1.0 | Some d -> if d < 0.0 then 0.0 else d in
    match Unix.select rfds wfds [] tmo with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | r, w, _ ->
        if List.mem fab.f_wake_r r then drain_wake fab;
        List.iter
          (fun (lfd, ep) -> if List.mem lfd r then accept_conn fab lfd ep)
          fab.f_listeners;
        (* Snapshot: handlers may close connections and mutate f_conns. *)
        let conns = fab.f_conns in
        List.iter (fun c -> if List.mem c.c_fd w then try_flush fab c) conns;
        List.iter (fun c -> if (not c.c_closed) && List.mem c.c_fd r then handle_readable fab c) conns
  end

let wakeup fab =
  if not fab.f_closed then
    try ignore (Unix.write_substring fab.f_wake_w "!" 0 1 : int)
    with Unix.Unix_error _ -> () (* pipe full (wakeup already pending) or closing *)

(* --- construction -------------------------------------------------- *)

let create sched =
  (* A write to a connection the peer already closed must surface as
     EPIPE, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let stats = Sim.Stats.create () in
  let counter name = lazy (Sim.Stats.counter stats name) in
  let fab =
    {
      f_sched = sched;
      f_stats = stats;
      f_eps = Hashtbl.create 4;
      f_book = Hashtbl.create 4;
      f_listeners = [];
      f_conns = [];
      f_wake_r = wake_r;
      f_wake_w = wake_w;
      (* The wall clock continues from the scheduler's current time, so
         timers armed before the fabric existed stay meaningful. *)
      f_epoch = Unix.gettimeofday () -. S.now sched;
      f_max_chunk = 65536;
      f_rbuf = Bytes.create 65536;
      f_frames_sent = counter "transport_frames_sent";
      f_bytes_sent = counter "transport_bytes_sent";
      f_frames_received = counter "transport_frames_received";
      f_bytes_received = counter "transport_bytes_received";
      f_closed = false;
    }
  in
  S.set_realtime_driver sched
    ~clock:(fun () -> Unix.gettimeofday () -. fab.f_epoch)
    ~wait:(fun tmo -> service fab tmo)
    ~wakeup:(fun () -> wakeup fab);
  fab

let endpoint fab ~addr ?name () =
  let name = match name with Some n -> n | None -> Printf.sprintf "tcp-%d" addr in
  let ep =
    {
      e_addr = addr;
      e_name = name;
      e_recv = (fun ~src:_ _ -> ());
      e_watch = (fun ~peer:_ ~reason:_ -> ());
    }
  in
  Hashtbl.replace fab.f_eps addr ep;
  {
    Transport.addr;
    node_name = name;
    backend = "tcp";
    sched = fab.f_sched;
    stats = fab.f_stats;
    send = (fun ~dst frame -> send fab ep ~dst frame);
    set_receiver = (fun f -> ep.e_recv <- f);
    set_peer_watch = (fun f -> ep.e_watch <- f);
    recv_overhead = (fun () -> 0.0);
    realtime = true;
    reliable = true;
  }

let set_peer fab ~addr sa = Hashtbl.replace fab.f_book addr sa

let ep_of fab addr =
  match Hashtbl.find_opt fab.f_eps addr with
  | Some ep -> ep
  | None -> invalid_arg (Printf.sprintf "Transport_tcp: no endpoint with address %d" addr)

let listen_fd fab ~addr fd =
  let ep = ep_of fab addr in
  Unix.set_nonblock fd;
  fab.f_listeners <- (fd, ep) :: fab.f_listeners

let listen fab ~addr sa =
  let ep = ep_of fab addr in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd sa;
  Unix.listen fd 16;
  Unix.set_nonblock fd;
  fab.f_listeners <- (fd, ep) :: fab.f_listeners;
  Unix.getsockname fd

let listen_loopback fab ~addr =
  listen fab ~addr (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))

let drop_peer_connections fab ~addr =
  let victims = List.filter (fun c -> c.c_peer = addr) fab.f_conns in
  List.iter (fun c -> conn_down fab c "connection forcibly closed") victims

let set_max_chunk fab n =
  if n <= 0 then invalid_arg "Transport_tcp.set_max_chunk: must be positive";
  fab.f_max_chunk <- n;
  fab.f_rbuf <- Bytes.create n

let close fab =
  if not fab.f_closed then begin
    fab.f_closed <- true;
    S.clear_realtime_driver fab.f_sched;
    List.iter (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ()) fab.f_listeners;
    fab.f_listeners <- [];
    List.iter
      (fun c ->
        if not c.c_closed then begin
          c.c_closed <- true;
          try Unix.close c.c_fd with Unix.Unix_error _ -> ()
        end)
      fab.f_conns;
    fab.f_conns <- [];
    (try Unix.close fab.f_wake_r with Unix.Unix_error _ -> ());
    (try Unix.close fab.f_wake_w with Unix.Unix_error _ -> ())
  end
