(** The sending end of a call-stream.

    A stream connects one agent (a sending activity) to one port group
    (§2): calls made on it are delivered to the receiver exactly once,
    in order, and their replies come back in call order. The stream
    buffers calls per its channel {!Chanhub.config} ("sent when
    convenient"); {!flush} forces transmission; {!synch} additionally
    waits for all earlier calls to complete and reports whether any of
    them terminated exceptionally.

    Breaking and reincarnation follow §2: when the system gives up on
    delivery (retransmit exhaustion, receiver crash, receiver-initiated
    break), every outstanding call completes with
    [W_unavailable]/[W_failure] and further calls fail immediately
    until {!restart}.

    {b Supervision extensions} (see [docs/FAULTS.md]): each call also
    carries a {e stable call-id} that is monotonic over the whole life
    of the stream end and never resets. A supervisor can opt into
    {!set_preserve_on_break}, in which case a break leaves outstanding
    calls pending, and {!restart_resubmit} replays them — with their
    original call-ids — on the next incarnation, letting a deduplicating
    receiver execute each call exactly once across incarnations.
    Stream-level events are counted in the scheduler's {!Sim.Stats}
    ([stream_breaks], [stream_restarts], [stream_resubmitted_calls]);
    breaks and resubmissions are also {!Sim.Span} edges. *)

type t

val create :
  Chanhub.hub ->
  agent:string ->
  dst:Net.address ->
  gid:string ->
  ?config:Chanhub.config ->
  unit ->
  t
(** Open a stream from this node's [agent] to the port group named
    [gid] on node [dst]. The [agent] name must be unique within the
    hub per (dst, gid) — it names the reply rendezvous. *)

val agent : t -> string

val gid : t -> string

val dst : t -> Net.address
(** The node this stream's port group lives on. *)

val stable_id : t -> string
(** The stream's incarnation-independent identity as the receiver sees
    it ({!Wire.stable_stream_id}) — the stream half of a transmissible
    {!Xdr.promise_ref}. Constant across {!restart}s. *)

val sched : t -> Sched.Scheduler.t

val hub : t -> Chanhub.hub
(** The hub this stream's channels run over — the language layer uses
    it to reach the handoff push/expect machinery (docs/HANDOFF.md). *)

val broken : t -> string option
(** Why the stream is broken, or [None] while it is usable. *)

val incarnation : t -> int
(** Restarts so far; 0 for a fresh stream. *)

val call :
  ?handoff:Wire.handoff list ->
  ?elide:bool ->
  t -> port:string -> kind:Wire.kind -> args:Xdr.value ->
  on_reply:(Wire.routcome -> unit) -> (int * int, string) result
(** Issue a call. [Error reason] means the stream is already broken —
    the paper's "call fails and signals immediately, and no promise is
    created". Otherwise [on_reply] fires exactly once, later, in
    scheduler context; replies fire in call order.

    [Ok (cid, trace)] carries the call's stable call-id and its causal
    trace id. Paired with {!stable_id}, the call-id names this call's
    future outcome in a transmissible {!Xdr.promise_ref} (promise
    pipelining, docs/PIPELINE.md). The trace id is allocated here
    ({!Sim.Span.next_trace}), kept across {!restart_resubmit}, and
    carried in the wire item while the scheduler's span store is
    enabled (docs/TRACING.md); the language layer stamps it on the
    promise so {!Core.Promise} can record the claim edge.

    [handoff] annotates foreign [Pref]s in [args] and [elide] asks the
    receiver to strip a normal result from the reply (third-party
    handoff, docs/HANDOFF.md); both ride every resubmission of the
    call, so a replay re-forwards to the same owner. *)

val flush : t -> unit
(** Transmit buffered call requests now (§2's [flush]). *)

val window_bytes : t -> int
(** Live sender window of the current incarnation's call channel
    ({!Chanhub.window_bytes}): the AIMD-controlled bound when the
    stream config sets [adaptive_window], else [max_inflight_bytes]. *)

val rtt_ewma : t -> float
(** Smoothed ack RTT of the current incarnation's call channel
    ({!Chanhub.rtt_ewma}); [0.] until the first clean sample. *)

val inflight_bytes : t -> int
(** Unacked bytes charged against the window right now
    ({!Chanhub.inflight_bytes}). Must return to [0] at quiescence —
    retransmits (including ones racing a receiver shed) re-send items
    without re-charging them, so a nonzero steady-state reading is a
    window-accounting bug. *)

val synch : t -> (unit, [ `Exception_reply | `Broken of string ]) result
(** Flush, then park the calling fiber until every call made before
    this point has completed (§2's [synch]). [Ok] means they all
    terminated normally; [`Exception_reply] that at least one
    terminated with an exception since the last synch (matching the
    paper, it does not say which); [`Broken] that the stream broke
    while (or before) waiting. Must run in fiber context. *)

val outstanding : t -> int
(** Calls issued whose replies have not yet arrived. *)

val restart : t -> unit
(** Break (if not already broken) and reincarnate: outstanding calls
    complete with [W_unavailable] (exactly once each, even if a
    supervisor had preserved them); subsequent calls use a fresh
    incarnation of the stream. *)

val on_break : t -> (string -> unit) -> unit
(** Register a callback fired when the current incarnation breaks (at
    most once per incarnation; fires immediately if already broken). *)

(** {1 Supervision support} *)

val set_preserve_on_break : t -> bool -> unit
(** With [true] (default [false]), a break does {e not} resolve
    outstanding calls with [unavailable]; they stay pending for
    {!restart_resubmit}. Whoever sets this owns their fate and must
    eventually either resubmit or {!fail_pending} — otherwise claimants
    wait forever (or until their {!Promise.claim_timeout}). *)

val restart_resubmit : t -> int
(** Reincarnate a broken stream {e keeping} its outstanding calls:
    they are re-keyed into the new incarnation's sequence space and
    re-sent with their original stable call-ids, so a receiver created
    with [~dedup:true] executes each at most once across incarnations.
    Returns the number of calls resubmitted. Raises [Invalid_argument]
    if the stream is not broken. *)

val fail_pending : t -> reason:string -> unit
(** Resolve every still-outstanding call with [W_unavailable reason],
    in call order, each exactly once — used by supervisors giving up
    after exhausting their retry budget. *)

val on_progress : t -> (unit -> unit) -> unit
(** [f] runs each time a reply for an outstanding call arrives — proof
    the current incarnation is live. Supervisors use it to close their
    circuit breaker. At most one hook (last registration wins). *)
