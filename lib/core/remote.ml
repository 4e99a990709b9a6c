module S = Sched.Scheduler
module SE = Cstream.Stream_end
module W = Cstream.Wire

type ('a, 'r, 'e) h = {
  h_sig : ('a, 'r, 'e) Sigs.hsig;
  h_stream : SE.t;
  h_sched : S.t;
}

let bind agent ~dst ~gid hs =
  { h_sig = hs; h_stream = Agent.stream_to agent ~dst ~gid; h_sched = Agent.sched agent }

let bind_ref agent pref hs =
  let hs = { hs with Sigs.hname = pref.Sigs.pr_port } in
  bind agent ~dst:pref.Sigs.pr_addr ~gid:pref.Sigs.pr_group hs

let hsig h = h.h_sig

let stream h = h.h_stream

let decode_outcome (hs : ('a, 'r, 'e) Sigs.hsig) (w : W.routcome) : ('r, 'e) Promise.outcome =
  match w with
  | W.W_normal v -> (
      match Xdr.decode hs.Sigs.res_c v with
      | Ok r -> Promise.Normal r
      | Error reason -> Promise.Failure ("could not decode: " ^ reason))
  | W.W_signal (sig_name, payload) -> (
      match hs.Sigs.sig_c.Sigs.dec_sig (sig_name, payload) with
      | Ok e -> Promise.Signal e
      | Error reason -> Promise.Failure ("could not decode signal: " ^ reason))
  | W.W_unavailable reason -> Promise.Unavailable reason
  | W.W_failure reason -> Promise.Failure reason

let encode h v =
  match Xdr.encode h.h_sig.Sigs.arg_c v with
  | Ok args -> args
  | Error reason -> raise (Promise.Failure_exn ("encoding failed: " ^ reason))

(* The one issue path: every call form — by value or by reference,
   plain, deferred or forwarded — puts its already-encoded arguments on
   the stream here. A wounded fiber or a broken stream raises, and no
   promise escapes. A deferred ([elide]) call's normal reply is only a
   marker: the real result lives in the producer's registry, so the
   promise's typed state is a [Failure] saying so, and its wire slot
   stays empty. A promise born here can be piped into a later call on
   the same node (remember which call produces it), forwarded to
   another node (remember the home stream), and claimed under tracing
   (stamp the call's trace id so the claim edge lands in its
   timeline). *)
let issue ?handoff ?(elide = false) h ~kind args =
  if S.wounded h.h_sched then
    (* "It cannot make any remote calls at such a point" (§4.2). *)
    raise S.Terminated;
  let p = Promise.create h.h_sched in
  if elide then Promise.set_elided p;
  let on_reply = function
    | W.W_normal _ when elide ->
        Promise.resolve p
          (Promise.Failure "result deferred (Remote.Call.defer_result): pipe it, do not claim")
    | w ->
        Promise.put_wire p w;
        Promise.resolve p (decode_outcome h.h_sig w)
  in
  match SE.call ?handoff ~elide h.h_stream ~port:h.h_sig.Sigs.hname ~kind ~args ~on_reply with
  | Error reason -> raise (Promise.Unavailable_exn reason)
  | Ok (cid, tid) ->
      Promise.set_origin p
        { Promise.og_stream = SE.stable_id h.h_stream; og_call = cid; og_dst = SE.dst h.h_stream };
      Promise.set_trace p tid;
      Promise.set_home p h.h_stream;
      p

(* {2 Promise pipelining (docs/PIPELINE.md)} *)

type ref_arg = {
  ar_origin : Promise.origin;
  ar_field : string option;
  ar_home : SE.t option;  (* the stream the producing call went out on *)
  ar_watch : (W.routcome -> unit) -> unit;
      (* register for the producer's wire outcome — the handoff
         machinery's hook for pushing it to a foreign owner *)
  ar_elided : bool;  (* the producer's reply carries no value *)
}

type 'a arg =
  | Arg_now of 'a  (* ordinary by-value argument *)
  | Arg_ref of ref_arg
  | Arg_dead of W.routcome
      (* the producer already terminated abnormally: the dependent call
         completes with the same outcome without ever being sent *)

let arg v = Arg_now v

(* Shared body of [pipe] and [pipe_field]: an abnormal producer
   short-circuits, [now] may pass a ready value directly, and anything
   else goes by reference. *)
let pipe_with ~what ~field ~now p =
  let by_ref () =
    match Promise.origin p with
    | None ->
        invalid_arg
          (Printf.sprintf
             "Remote.%s: promise was not born from a stream call (no origin to reference)" what)
    | Some og ->
        Arg_ref
          {
            ar_origin = og;
            ar_field = field;
            ar_home = Promise.home p;
            ar_watch = Promise.on_wire p;
            ar_elided = Promise.elided p;
          }
  in
  if Promise.elided p then
    (* A deferred result never has a local value; its typed state is a
       marker, so only a real abnormal wire outcome short-circuits. *)
    match Promise.wire p with
    | Some ((W.W_unavailable _ | W.W_failure _) as w) -> Arg_dead w
    | Some (W.W_normal _ | W.W_signal _) | None -> by_ref ()
  else
    match Promise.peek p with
    | Some (Promise.Normal v) -> ( match now v with Some a -> a | None -> by_ref ())
    | Some (Promise.Unavailable r) -> Arg_dead (W.W_unavailable r)
    | Some (Promise.Failure r) -> Arg_dead (W.W_failure r)
    | Some (Promise.Signal _) | None ->
        (* A ready signal still goes by reference: its wire encoding was
           recorded at the receiver, which propagates it to the dependent
           call — we cannot re-encode a decoded ['e] here. *)
        by_ref ()

let pipe p = pipe_with ~what:"pipe" ~field:None ~now:(fun v -> Some (Arg_now v)) p

let pipe_field p ~field = pipe_with ~what:"pipe_field" ~field:(Some field) ~now:(fun _ -> None) p

let flush h = SE.flush h.h_stream

(* {2 Retry-on-unavailable (docs/OVERLOAD.md)} *)

type retry_policy = {
  retry_attempts : int;
  retry_base : float;
  retry_factor : float;
  retry_max_delay : float;
  retry_jitter : float;
}

let default_retry_policy =
  {
    retry_attempts = 4;
    retry_base = 5e-3;
    retry_factor = 2.0;
    retry_max_delay = 0.5;
    retry_jitter = 0.2;
  }

let retry_delay policy rng ~attempt =
  let raw = policy.retry_base *. (policy.retry_factor ** float_of_int (attempt - 1)) in
  let capped = Float.min raw policy.retry_max_delay in
  (* Jitter decorrelates callers shed by the same overloaded lane —
     a synchronized retry herd would just be shed again. Drawn from an
     RNG split off the scheduler's so runs replay from the seed. *)
  let spread = policy.retry_jitter *. ((2.0 *. Sim.Rng.float rng 1.0) -. 1.0) in
  Float.max 0.0 (capped *. (1.0 +. spread))

(* Each attempt is a fresh call with a fresh stable call-id: a shed
   call never executed, so this is retry, not resubmission — dedup is
   not implicated and receiver-side at-most-once holds per attempt.
   (Crash-driven [restart_resubmit] is the opposite: same cid, because
   the original may have executed.) The promise carries the first
   attempt's trace id but no origin: piping it would mint a reference
   to a possibly-shed, never-executed call. *)
let issue_with_retry ?(policy = default_retry_policy) ?deadline h args =
  if policy.retry_attempts <= 0 then
    invalid_arg "Remote.Call.with_retry: retry_attempts must be positive";
  let sched = h.h_sched in
  let p = Promise.create sched in
  let rng = Sim.Rng.split (S.rng sched) in
  let counter name = Sim.Stats.counter (S.stats sched) name in
  let rec attempt n =
    match issue h ~kind:W.Call args with
    | exception Promise.Unavailable_exn reason -> next n reason
    | a ->
        if n = 1 then Option.iter (Promise.set_trace p) (Promise.trace a);
        Promise.on_ready a (function
          | Promise.Unavailable reason -> next n reason
          | o ->
              if n > 1 then Sim.Stats.incr (counter "remote_retry_successes");
              Promise.resolve p o)
  and next n reason =
    let give_up () =
      Sim.Stats.incr (counter "remote_retry_exhausted");
      Promise.resolve p (Promise.Unavailable reason)
    in
    if n >= policy.retry_attempts then give_up ()
    else begin
      let delay = retry_delay policy rng ~attempt:n in
      let in_time =
        match deadline with None -> true | Some d -> S.now sched +. delay < d
      in
      (* A retry that cannot land before the claimant's deadline is
         pointless; surface [unavailable] now instead. *)
      if not in_time then give_up ()
      else begin
        Sim.Stats.incr (counter "remote_unavailable_retries");
        S.after sched delay (fun () ->
            attempt (n + 1);
            flush h)
      end
    end
  in
  attempt 1;
  p

let synch h = SE.synch h.h_stream

(* {2 The unified call builder (docs/HANDOFF.md)} *)

module CH = Cstream.Chanhub

module Call = struct
  type ('a, 'r, 'e) plan = {
    c_h : ('a, 'r, 'e) h;
    c_arg : 'a arg;
    c_kind : W.kind;
    c_retry : (retry_policy option * float option) option;
    c_handoff : bool;
    c_elide : bool;
  }

  let piped h a =
    { c_h = h; c_arg = a; c_kind = W.Call; c_retry = None; c_handoff = true; c_elide = false }

  let make h v = piped h (Arg_now v)

  let as_send b = { b with c_kind = W.Send }

  let with_retry ?policy ?deadline b = { b with c_retry = Some (policy, deadline) }

  let allow_handoff flag b = { b with c_handoff = flag }

  let defer_result b = { b with c_elide = true }

  (* A reference argument travels as an [Xdr.Pref] naming the producing
     call; the receiver substitutes the produced value. *)
  let issue_piped ?handoff b r =
    let args =
      Xdr.Pref
        {
          Xdr.ps_stream = r.ar_origin.Promise.og_stream;
          ps_call = r.ar_origin.Promise.og_call;
          ps_field = r.ar_field;
        }
    in
    let p = issue ?handoff ~elide:b.c_elide b.c_h ~kind:b.c_kind args in
    Sim.Stats.incr (Sim.Stats.counter (S.stats b.c_h.h_sched) "pipelined_calls");
    p

  (* Third-party handoff (docs/HANDOFF.md): the dependent call goes
     straight to the node that will consume the result — the owner —
     with its foreign reference annotated; the producer is told (the
     notice) to push the outcome to the owner directly; and if anything
     on that path refuses, this node falls back to relaying the outcome
     itself, which is exactly the proxy the handoff replaced. *)
  let submit_handoff b r home =
    let h = b.c_h in
    let sched = h.h_sched in
    let counter name = Sim.Stats.counter (S.stats sched) name in
    let hub = SE.hub home in
    let owner = SE.dst h.h_stream in
    let stream = r.ar_origin.Promise.og_stream and call = r.ar_origin.Promise.og_call in
    let ann =
      { W.ho_owner = owner; ho_stream = stream; ho_call = call; ho_epoch = CH.handoff_epoch hub }
    in
    let p = issue_piped ~handoff:[ ann ] b r in
    Sim.Stats.incr (counter "handoff_calls");
    (match Promise.trace p with
    | Some tid ->
        let sp = S.spans sched in
        if Sim.Span.enabled sp then
          Sim.Span.record sp ~time:(S.now sched) ~kind:Sim.Span.Handoff ~trace:tid ~stream
            ~call
            ~note:(Printf.sprintf "forward -> n%d" owner)
            ()
    | None -> ());
    (* At most one outcome crosses to the owner from this node; the
       owner's registry also dedups, so racing the producer's own push
       is harmless. *)
    let pushed = ref false in
    let push w =
      if not !pushed then begin
        pushed := true;
        CH.handoff_push hub ~dst:owner ~stream ~call (W.outcome_value w)
      end
    in
    (* If the producer's stream dies, nobody else can tell the owner —
       always relay abnormal outcomes from here so the forwarded call
       inherits the producer's fate instead of parking forever. *)
    r.ar_watch (function
      | (W.W_unavailable _ | W.W_failure _) as w -> push w
      | W.W_normal _ | W.W_signal _ -> ());
    let fall_back () =
      Sim.Stats.incr (counter "handoff_fallbacks");
      if r.ar_elided then
        (* the value exists only in the producer's registry: redeem it
           by reference — the proxy-equivalent round trip — and relay *)
        match
          SE.call home ~port:W.handoff_redeem_port ~kind:W.Call
            ~args:(W.handoff_value ann) ~on_reply:push
        with
        | Ok _ -> SE.flush home
        | Error reason -> push (W.W_unavailable ("handoff fallback: " ^ reason))
      else
        (* the producer's reply still comes here: relay it on arrival *)
        r.ar_watch push
    in
    (match
       SE.call home ~port:W.handoff_notice_port ~kind:W.Send
         ~args:(W.handoff_value ann)
         ~on_reply:(function
           | W.W_normal _ -> () (* accepted: the producer's node pushes *)
           | W.W_signal _ | W.W_unavailable _ | W.W_failure _ -> fall_back ())
     with
    | Ok _ ->
        (* the notice must not sit in the buffer behind nothing: the
           owner is already parked on it *)
        SE.flush home
    | Error _ ->
        (* home stream already broken: the producer's outcome can only
           be what the break resolved it to *)
        r.ar_watch push);
    p

  (* Every plan leaves through here; [submit] and [detach] only add
     their own guards. *)
  let start b =
    let h = b.c_h in
    match (b.c_retry, b.c_arg) with
    | Some (policy, deadline), Arg_now v when b.c_kind = W.Call && not b.c_elide ->
        issue_with_retry ?policy ?deadline h (encode h v)
    | Some _, _ -> invalid_arg "Remote.Call: with_retry applies only to plain by-value calls"
    | None, Arg_now v -> issue ~elide:b.c_elide h ~kind:b.c_kind (encode h v)
    | None, Arg_dead w ->
        (* "The producer's fate is the dependent's fate": complete
           abnormally right here, transmitting nothing. *)
        Promise.resolved h.h_sched (decode_outcome h.h_sig w)
    | None, Arg_ref _ when b.c_kind = W.Send ->
        invalid_arg "Remote.Call: a send cannot take a pipelined argument"
    | None, Arg_ref r -> (
        (* The sender can only validate the node: which guardian a group
           belongs to is receiver-local knowledge. A same-node reference
           that crosses guardians (disjoint registries) is rejected by
           the receiver's scope check with the same "claim it instead"
           failure, instead of parking forever. *)
        if r.ar_origin.Promise.og_dst = SE.dst h.h_stream then issue_piped b r
        else
          match (b.c_handoff, r.ar_home) with
          | true, Some home -> submit_handoff b r home
          | false, _ | true, None ->
              raise
                (Promise.Failure_exn
                   "pipelined argument references a call on a different node; claim it instead"))

  let submit b =
    if b.c_kind = W.Send then invalid_arg "Remote.Call.submit: a send has no promise; use detach";
    start b

  let detach b =
    if b.c_retry <> None then
      invalid_arg "Remote.Call.detach: with_retry needs a promise; use submit";
    ignore (start b : _ Promise.t)

  let sync b =
    let p = submit b in
    flush b.c_h;
    Promise.claim p
end

(* The paper's three call forms, as sugar over a plan. *)

let stream_call h v = Call.(submit (make h v))

let send h v = Call.(detach (as_send (make h v)))

let rpc h v = Call.(sync (make h v))
