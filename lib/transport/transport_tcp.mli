(** The real backend: {!Transport.t} over Unix/TCP sockets
    (docs/TRANSPORT.md).

    A {!fabric} owns every socket one process uses: listeners, dialed
    and accepted connections, an address book mapping transport
    addresses to socket addresses, and a self-pipe. Creating a fabric
    attaches a real-time driver to the scheduler
    ({!Sched.Scheduler.set_realtime_driver}): the scheduler's idle
    waits become a [select] over the fabric's descriptors, received
    frames are delivered to endpoint receivers in scheduler context,
    and the clock is the wall clock (continuing from the scheduler's
    current time at {!create}).

    Wire format: each connection starts with an 8-byte hello —
    ["PRS1"] then the dialer's address, big-endian 32-bit — followed by
    frames as a big-endian 32-bit length prefix and that many payload
    bytes. Connections are dialed lazily on first send to a peer and
    reused in both directions (replies ride the accepted connection, so
    a pure client never listens). A connection error or EOF closes the
    connection and fires the affected endpoints' peer watch — the
    stream layer's break → supervision → resubmit machinery takes over,
    and the next send simply dials again.

    Sends to a peer with no address-book entry and no live connection
    are dropped silently, like a lossy network: go-back-n
    retransmission recovers once the peer is reachable. *)

type fabric

val max_frame : int
(** Largest frame payload a connection accepts (64 MiB). A longer
    length prefix can only be corruption: the connection is closed and
    its peer watch fires. *)

val create : Sched.Scheduler.t -> fabric
(** Make a fabric and attach its real-time driver to the scheduler.
    One fabric per scheduler; the driver stays attached until
    {!close}. *)

val sched : fabric -> Sched.Scheduler.t

val stats : fabric -> Sim.Stats.t
(** The fabric's own registry: [transport_frames_sent],
    [transport_bytes_sent], [transport_frames_received],
    [transport_bytes_received], [transport_conns_opened],
    [transport_conns_lost], [transport_dial_failures]. Every endpoint
    of the fabric shares it. *)

val endpoint : fabric -> addr:Transport.address -> ?name:string -> unit -> Transport.t
(** Create the endpoint for transport address [addr] on this fabric.
    Multiple endpoints per fabric are fine (and how a single-process
    test hosts both ends over real loopback sockets). *)

val set_peer : fabric -> addr:Transport.address -> Unix.sockaddr -> unit
(** Address-book entry: dial [addr] at this socket address. *)

val listen : fabric -> addr:Transport.address -> Unix.sockaddr -> Unix.sockaddr
(** Bind + listen for endpoint [addr]; returns the actually bound
    address (useful with port 0). Accepted connections deliver to
    [addr]'s endpoint. *)

val listen_loopback : fabric -> addr:Transport.address -> Unix.sockaddr
(** [listen fabric ~addr] on 127.0.0.1 with an ephemeral port. *)

val listen_fd : fabric -> addr:Transport.address -> Unix.file_descr -> unit
(** Adopt an already-listening socket (e.g. bound by a parent before
    [fork] so the child inherits it — examples/tcp_pingpong.ml). *)

val drop_peer_connections : fabric -> addr:Transport.address -> unit
(** Chaos hook: forcibly close every live connection to peer [addr],
    firing peer watches here and EOF at the other end — a mid-stream
    break for exactly-once tests. *)

val set_max_chunk : fabric -> int -> unit
(** Test hook: cap every [read]/[write] syscall at this many bytes
    (default 65536) to force partial reads and short writes through the
    framing layer. The fabric's read buffer is resized to match. *)

val close : fabric -> unit
(** Close every socket, detach the real-time driver, and return the
    scheduler to virtual time. Idempotent. *)
