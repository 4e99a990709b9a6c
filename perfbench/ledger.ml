(* The traced run's span store and the wrappers that feed it.

   Every span is recorded from outside the library: the benchmark wraps
   the [Transport.t] record it hands to [Chanhub.create_hub], the hsig
   codecs, the guardian handlers and its own calls into [Remote.Call].
   Nothing in lib/ knows it is being timed. Timestamps come from the
   monotonic clock (microseconds as floats); the scheduler's realtime
   clock is too coarse for sub-microsecond spans.

   Self time is a span's duration minus the part its children cover.
   Children are tracked per execution context (one stack per fiber, one
   for scheduler context), because a fiber can suspend inside a span
   ([Remote.Call.submit] parks on a full sender window) and let other
   contexts run. Work other contexts finish while a span is open is
   subtracted from it as [foreign] time; a span with foreign time is
   flagged [blocked]. *)

module S = Sched.Scheduler

let now_us () = Int64.to_float (Monotonic_clock.now ()) /. 1e3

(* --- span names ----------------------------------------------------- *)

type name =
  | Transport_send
  | Chanhub_recv
  | Arg_encode
  | Arg_decode
  | Res_encode
  | Res_decode
  | Handler
  | Submit

let all_names = [ Transport_send; Chanhub_recv; Arg_encode; Arg_decode; Res_encode; Res_decode; Handler; Submit ]

let name_index = function
  | Transport_send -> 0
  | Chanhub_recv -> 1
  | Arg_encode -> 2
  | Arg_decode -> 3
  | Res_encode -> 4
  | Res_decode -> 5
  | Handler -> 6
  | Submit -> 7

let name_string = function
  | Transport_send -> "transport.send"
  | Chanhub_recv -> "chanhub.recv"
  | Arg_encode -> "xdr.arg_encode"
  | Arg_decode -> "xdr.arg_decode"
  | Res_encode -> "xdr.res_encode"
  | Res_decode -> "xdr.res_decode"
  | Handler -> "guardian.handler"
  | Submit -> "remote.submit"

(* --- aggregates and raw store --------------------------------------- *)

type agg = {
  mutable n : int;
  mutable self : float;  (* summed self times, us *)
  mutable blocked : int;
  mutable unblocked_self : float;  (* self time summed over unblocked spans *)
}

let aggs = Array.init (List.length all_names) (fun _ -> { n = 0; self = 0.; blocked = 0; unblocked_self = 0. })

let agg name = aggs.(name_index name)

(* Raw spans, kept in memory and written out when the run ends. Capped
   so a long run cannot exhaust memory; the aggregates above cover
   every span regardless. *)
let raw_cap = 200_000

let raw_n = ref 0

let raw_name = Array.make raw_cap 0

let raw_id = Array.make raw_cap 0

let raw_parent = Array.make raw_cap 0

let raw_call = Array.make raw_cap 0

let raw_t0 = Array.make raw_cap 0.

let raw_t1 = Array.make raw_cap 0.

let raw_self = Array.make raw_cap 0.

type open_span = {
  o_id : int;
  o_name : name;
  o_call : int;
  o_parent : int;
  o_t0 : float;
  o_g0 : float;  (* [covered] when the span opened *)
  mutable o_child : float;
}

let enabled = ref false

let sched : S.t option ref = ref None

let next_id = ref 0

(* Total wall time covered by finished top-level spans of any context,
   net of their own foreign time — the yardstick for foreign time. *)
let covered = ref 0.

let stacks : (int, open_span list ref) Hashtbl.t = Hashtbl.create 64

let context () =
  match !sched with
  | None -> -1
  | Some s -> ( match S.current s with Some f -> S.fiber_id f | None -> -1)

let reset () =
  Array.iter
    (fun a ->
      a.n <- 0;
      a.self <- 0.;
      a.blocked <- 0;
      a.unblocked_self <- 0.)
    aggs;
  raw_n := 0;
  next_id := 0;
  covered := 0.;
  Hashtbl.reset stacks

let start ?(call = -1) name =
  let ctx = context () in
  let st =
    match Hashtbl.find_opt stacks ctx with
    | Some st -> st
    | None ->
        let st = ref [] in
        Hashtbl.replace stacks ctx st;
        st
  in
  let parent = match !st with p :: _ -> p.o_id | [] -> -1 in
  incr next_id;
  let o =
    { o_id = !next_id; o_name = name; o_call = call; o_parent = parent; o_t0 = now_us (); o_g0 = !covered; o_child = 0. }
  in
  st := o :: !st;
  (ctx, st, o)

let finish (ctx, st, o) =
  let t1 = now_us () in
  let dur = t1 -. o.o_t0 in
  let foreign = !covered -. o.o_g0 in
  let self = dur -. o.o_child -. foreign in
  (match !st with
  | top :: rest when top == o -> st := rest
  | l -> st := List.filter (fun x -> x != o) l);
  (match !st with
  | p :: _ -> p.o_child <- p.o_child +. (dur -. foreign)
  | [] ->
      covered := !covered +. (dur -. foreign);
      Hashtbl.remove stacks ctx);
  let a = agg o.o_name in
  a.n <- a.n + 1;
  a.self <- a.self +. self;
  if foreign > 0. then a.blocked <- a.blocked + 1 else a.unblocked_self <- a.unblocked_self +. self;
  let k = !raw_n in
  if k < raw_cap then begin
    raw_n := k + 1;
    raw_name.(k) <- name_index o.o_name;
    raw_id.(k) <- o.o_id;
    raw_parent.(k) <- o.o_parent;
    raw_call.(k) <- o.o_call;
    raw_t0.(k) <- o.o_t0;
    raw_t1.(k) <- t1;
    raw_self.(k) <- self
  end

let span ?call name f =
  if not !enabled then f ()
  else begin
    let h = start ?call name in
    match f () with
    | v ->
        finish h;
        v
    | exception e ->
        finish h;
        raise e
  end

let write_spans path =
  let names = Array.of_list (List.map name_string all_names) in
  let oc = open_out path in
  output_string oc "id\tparent\tname\tcall\tstart_us\tend_us\tself_us\n";
  for k = 0 to !raw_n - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%d\t%.3f\t%.3f\t%.3f\n" raw_id.(k) raw_parent.(k)
      names.(raw_name.(k)) raw_call.(k) raw_t0.(k) raw_t1.(k) raw_self.(k)
  done;
  close_out oc

(* --- frame capture -------------------------------------------------- *)

(* Frames as delivered, with the start time of the receiver upcall that
   carried each one and the number of connection-dictionary references
   its sender's encoder emitted (read off the sender hub's
   [chan_dict_refs] counter, which [Chanhub] bumps just before handing
   the frame to the transport). *)
type captured = { c_src : int; c_dst : int; c_t : float; c_frame : string; c_dict_refs : int }

(* Capture starts with the world, not with the measured window: the
   dictionary tables a v2 frame is decoded against are fed by every
   earlier frame on its connection. *)
let capture_cap = 40_000

let captured : captured list ref = ref []

let n_captured = ref 0

(* Index of the first frame captured inside the measured window. *)
let measured_from = ref 0

(* Per (src, dst) FIFO of dict-ref deltas: TCP keeps each connection's
   frames in order, so the k-th frame received on a pair is the k-th
   frame sent on it. *)
let pending_refs : (int * int, int Queue.t) Hashtbl.t = Hashtbl.create 8

let refs_counter : Sim.Stats.counter option ref = ref None

let last_refs = ref 0

(* Start time of the innermost receiver upcall in progress; a promise
   resolved inside it was carried by that upcall's frame. *)
let upcall_start = ref nan

let new_world () =
  captured := [];
  n_captured := 0;
  measured_from := 0;
  Hashtbl.reset pending_refs;
  refs_counter := None;
  last_refs := 0;
  upcall_start := nan

let start_measured_window () = measured_from := !n_captured

let refs_now () = match !refs_counter with Some c -> Sim.Stats.count c | None -> 0

let pair_queue key =
  match Hashtbl.find_opt pending_refs key with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace pending_refs key q;
      q

(* One receiver upcall: capture its frame, time it as a span, and mark
   it as the upcall in progress for [claim]. *)
let traced_upcall f ~src ~dst ~refs frame =
  let h = start Chanhub_recv in
  let _, _, o = h in
  if !n_captured < capture_cap then begin
    incr n_captured;
    captured := { c_src = src; c_dst = dst; c_t = o.o_t0; c_frame = frame; c_dict_refs = refs } :: !captured
  end;
  let outer = !upcall_start in
  upcall_start := o.o_t0;
  Fun.protect
    ~finally:(fun () ->
      upcall_start := outer;
      finish h)
    (fun () -> f ~src frame)

let wrap_transport (tr : Transport.t) : Transport.t =
  if !refs_counter = None then refs_counter := Some (Sim.Stats.counter (S.stats tr.Transport.sched) "chan_dict_refs");
  let self_addr = tr.Transport.addr in
  {
    tr with
    Transport.send =
      (fun ~dst frame ->
        let r = refs_now () in
        Queue.add (r - !last_refs) (pair_queue (self_addr, dst));
        last_refs := r;
        span Transport_send (fun () -> tr.Transport.send ~dst frame));
    set_receiver =
      (fun f ->
        tr.Transport.set_receiver (fun ~src frame ->
            let refs = match Queue.take_opt (pair_queue (src, self_addr)) with Some r -> r | None -> 0 in
            if !enabled then traced_upcall f ~src ~dst:self_addr ~refs frame else f ~src frame));
  }

(* --- codec and handler wrappers ------------------------------------- *)

let wrap_codec ~enc ~dec (c : 'a Xdr.codec) : 'a Xdr.codec =
  {
    c with
    Xdr.encode = (fun v -> span enc (fun () -> c.Xdr.encode v));
    decode = (fun x -> span dec (fun () -> c.Xdr.decode x));
  }

(* One wrapped copy per side: the client encodes arguments and decodes
   results, the server decodes arguments and encodes results. *)
let wrap_sig (hs : ('a, 'r, 'e) Core.Sigs.hsig) : ('a, 'r, 'e) Core.Sigs.hsig =
  {
    hs with
    Core.Sigs.arg_c = wrap_codec ~enc:Arg_encode ~dec:Arg_decode hs.Core.Sigs.arg_c;
    res_c = wrap_codec ~enc:Res_encode ~dec:Res_decode hs.Core.Sigs.res_c;
  }

(* Handler start times by the call id carried in the argument, for the
   dispatch-wait measurement. *)
let handler_starts : (int, float) Hashtbl.t = Hashtbl.create 1024

let wrap_handler ~id f ctx x =
  if not !enabled then f ctx x
  else begin
    let call = id x in
    let h = start ~call Handler in
    let (_, _, o) = h in
    if not (Hashtbl.mem handler_starts call) then Hashtbl.replace handler_starts call o.o_t0;
    match f ctx x with
    | v ->
        finish h;
        v
    | exception e ->
        finish h;
        raise e
  end

(* --- claim wake-up ---------------------------------------------------- *)

let claims = ref 0

let blocked_claims = ref 0

let wake_total = ref 0.

let wake_n = ref 0

let reset_claims () =
  claims := 0;
  blocked_claims := 0;
  wake_total := 0.;
  wake_n := 0;
  Hashtbl.reset handler_starts

(* Claim [p], recording whether the claimant had to park and, if so,
   the time from the start of the receiver upcall that resolved the
   promise to the claimant running again. *)
let claim p =
  if not !enabled then Core.Promise.claim p
  else begin
    incr claims;
    if Core.Promise.ready p then Core.Promise.claim p
    else begin
      incr blocked_claims;
      let carried = ref nan in
      Core.Promise.on_ready p (fun _ -> carried := !upcall_start);
      let o = Core.Promise.claim p in
      if not (Float.is_nan !carried) then begin
        wake_total := !wake_total +. (now_us () -. !carried);
        incr wake_n
      end;
      o
    end
  end
