(* The three workloads. Each builds its endpoints on one Transport_tcp
   fabric and one scheduler, drives closed loops (a caller issues its
   next call only after claiming the previous reply), checks every
   reply against the value it computed itself, and records latency from
   issue to claim return. All inputs come from the seed. *)

module S = Sched.Scheduler
module T = Transport_tcp
module CH = Cstream.Chanhub
module SE = Cstream.Stream_end
module GC = Cstream.Group_config
module G = Argus.Guardian
module R = Core.Remote
module P = Core.Promise

(* --- the tally of one closed-loop pass ------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable ok : int;
  mutable bad : int;  (* non-normal outcomes and wrong values *)
  mutable first_bad : string option;
  mutable lats : float array;  (* us, issue to claim return *)
  mutable nlat : int;
}

let new_tally () = { attempted = 0; ok = 0; bad = 0; first_bad = None; lats = Array.make 4096 0.; nlat = 0 }

let completed t = t.ok + t.bad

let record t ~t_issue ~what = function
  | Ok () ->
      t.ok <- t.ok + 1;
      if t.nlat = Array.length t.lats then begin
        let a = Array.make (2 * t.nlat) 0. in
        Array.blit t.lats 0 a 0 t.nlat;
        t.lats <- a
      end;
      t.lats.(t.nlat) <- Ledger.now_us () -. t_issue;
      t.nlat <- t.nlat + 1
  | Error why ->
      t.bad <- t.bad + 1;
      if t.first_bad = None then t.first_bad <- Some (what ^ ": " ^ why)

let check ~expect = function
  | P.Normal v when v = expect -> Ok ()
  | P.Normal _ -> Error "wrong reply value"
  | P.Signal _ -> Error "signalled"
  | P.Unavailable r -> Error ("unavailable: " ^ r)
  | P.Failure r -> Error ("failure: " ^ r)

(* --- the world a workload runs in ------------------------------------ *)

type env = {
  sched : S.t;
  fab : T.fabric;
  traced : bool;
  seed : int;
  endpoint : addr:int -> name:string -> Transport.t;
      (** wrapped by the ledger in a traced pass, raw otherwise *)
}

type parts = {
  first : unit -> unit;  (** one completed, checked call: the end of set-up *)
  loop : tally -> stop:(unit -> bool) -> unit;
      (** closed loop(s) until [stop ()]; returns when every issued call
          has been claimed *)
  streams : unit -> SE.t list;  (** client streams, for the quiesce check *)
  dup_execs : unit -> int;  (** handler executions beyond the first per key *)
  call_id : port:string -> Xdr.value -> int option;
      (** the id a call item's argument carries, as keyed by the handler
          wrapper (dispatch-wait mapping) *)
}

type t = { name : string; build : env -> parts }

(* Each side gets its own copy: wrapped by the ledger in a traced pass. *)
let side_sig env hs = if env.traced then Ledger.wrap_sig hs else hs

let handler env ~id f = if env.traced then Ledger.wrap_handler ~id f else f

let listen env ~addr = T.set_peer env.fab ~addr (T.listen_loopback env.fab ~addr)

let submit env ~call plan =
  if env.traced then Ledger.span ~call Ledger.Submit (fun () -> R.Call.submit plan) else R.Call.submit plan

let first_or_fail tally what =
  match tally.first_bad with Some why -> failwith why | None -> if tally.ok = 0 then failwith (what ^ ": no reply")

(* --- rpc_small -------------------------------------------------------- *)

(* Smallest messages, one call outstanding: per-frame costs dominate.
   Arguments sit in [2^21, 2^23) so every one encodes to the same
   number of varint bytes on every seed. *)

let inc_sig = Core.Sigs.hsig0 "inc" ~arg:Xdr.int ~res:Xdr.int

let inc x = (3 * x) + 1

let rpc_small env =
  let rng = Random.State.make [| env.seed; 1 |] in
  let base = (1 lsl 21) + Random.State.int rng (1 lsl 21) in
  let client_tr = env.endpoint ~addr:0 ~name:"client" in
  let server_tr = env.endpoint ~addr:1 ~name:"server" in
  let client_hub = CH.create_hub ~transport:client_tr () in
  let server = G.create (CH.create_hub ~transport:server_tr ()) ~name:"server" in
  G.register_group server ~group:"main" ~config:GC.(default |> with_reply_config CH.rpc_config) ();
  G.register server ~group:"main" (side_sig env inc_sig) (handler env ~id:Fun.id (fun _ x -> Ok (inc x)));
  listen env ~addr:1;
  let ag = Core.Agent.create client_hub ~name:"rpc" ~config:CH.rpc_config () in
  let h = R.bind ag ~dst:1 ~gid:"main" (side_sig env inc_sig) in
  let next = ref 0 in
  let one tally =
    let x = base + !next in
    incr next;
    tally.attempted <- tally.attempted + 1;
    let t_issue = Ledger.now_us () in
    let outcome =
      if env.traced then begin
        let p = submit env ~call:x R.Call.(make h x) in
        R.flush h;
        Ledger.claim p
      end
      else R.Call.(sync (make h x))
    in
    record tally ~t_issue ~what:(Printf.sprintf "rpc %d" x) (check ~expect:(inc x) outcome)
  in
  {
    first =
      (fun () ->
        let t = new_tally () in
        one t;
        first_or_fail t "rpc_small");
    loop =
      (fun tally ~stop ->
        while not (stop ()) do
          one tally
        done);
    streams = (fun () -> [ R.stream h ]);
    dup_execs = (fun () -> 0);
    call_id = (fun ~port:_ v -> match v with Xdr.Int n -> Some n | _ -> None);
  }

(* --- stream_batch ------------------------------------------------------ *)

(* Throughput: a window of 64 stream calls, batched adaptively, with the
   connection dictionary on, into a 4-lane group sharded by key. Keys
   follow a Zipf law (exponent 1) over 512 names; each argument also
   carries a 16-int list whose first element is the call id. *)

let window = 64

let n_keys = 512

let entry_codec = Xdr.record2 "entry" ("name", Xdr.string) ("vals", Xdr.list Xdr.int)

let ingest_sig = Core.Sigs.hsig0 "ingest" ~arg:entry_codec ~res:Xdr.int

let ingest (name, vals) = List.fold_left ( + ) (String.length name) vals

let shard_by_name ~port:_ = function
  | Xdr.Record (("name", Xdr.Str s) :: _) -> Hashtbl.hash s
  | v -> Hashtbl.hash v

let zipf_sampler rng n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for k = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (k + 1));
    cdf.(k) <- !acc
  done;
  fun () ->
    let u = Random.State.float rng !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

let stream_batch env =
  let rng = Random.State.make [| env.seed; 2 |] in
  let names = Array.init n_keys (fun k -> Printf.sprintf "acct-%03d-%06x" k (Random.State.bits rng land 0xffffff)) in
  let rank = zipf_sampler rng n_keys in
  let client_tr = env.endpoint ~addr:0 ~name:"client" in
  let server_tr = env.endpoint ~addr:1 ~name:"server" in
  let client_hub = CH.create_hub ~dict:true ~transport:client_tr () in
  let server = G.create (CH.create_hub ~dict:true ~transport:server_tr ()) ~name:"server" in
  G.register_group server ~group:"main"
    ~config:GC.(default |> with_reply_config CH.adaptive_config |> with_shards ~key:shard_by_name 4)
    ();
  G.register server ~group:"main" (side_sig env ingest_sig)
    (handler env ~id:(fun (_, vals) -> List.hd vals) (fun _ e -> Ok (ingest e)));
  listen env ~addr:1;
  let ag = Core.Agent.create client_hub ~name:"batch" ~config:CH.adaptive_config () in
  let h = R.bind ag ~dst:1 ~gid:"main" (side_sig env ingest_sig) in
  let next = ref 0 in
  let issue tally =
    let id = !next in
    incr next;
    let e = (names.(rank ()), id :: List.init 15 (fun _ -> Random.State.int rng (1 lsl 24))) in
    tally.attempted <- tally.attempted + 1;
    let t_issue = Ledger.now_us () in
    (submit env ~call:id R.Call.(make h e), t_issue, id, ingest e)
  in
  let claim tally (p, t_issue, id, expect) =
    record tally ~t_issue ~what:(Printf.sprintf "stream call %d" id) (check ~expect (Ledger.claim p))
  in
  let loop tally ~stop =
    let q = Queue.create () in
    while Queue.length q < window && not (stop ()) do
      Queue.add (issue tally) q
    done;
    while not (Queue.is_empty q) do
      claim tally (Queue.pop q);
      if not (stop ()) then Queue.add (issue tally) q
    done
  in
  {
    first =
      (fun () ->
        let t = new_tally () in
        let c = issue t in
        R.flush h;
        claim t c;
        first_or_fail t "stream_batch");
    loop;
    streams = (fun () -> [ R.stream h ]);
    dup_execs = (fun () -> 0);
    call_id =
      (fun ~port:_ v ->
        match v with
        | Xdr.Record [ ("name", _); ("vals", Xdr.List (Xdr.Int id :: _)) ] -> Some id
        | _ -> None);
  }

(* --- handoff_delegate --------------------------------------------------- *)

(* Third-party handoff: 8 delegators at A each ask B for a 1 KiB blob
   with its result deferred, then ask C to consume it by reference; B
   pushes the blob straight to C. The generator's connections are A->B
   and A->C; B->C is the servers' push channel. *)

let delegators = 8

let blob_bytes = 1024

let blob_sig = Core.Sigs.hsig0 "blob" ~arg:Xdr.int ~res:Xdr.string

let consume_sig = Core.Sigs.hsig0 "consume" ~arg:Xdr.string ~res:Xdr.int

let checksum s =
  let acc = ref 0 in
  String.iter (fun c -> acc := ((!acc * 31) + Char.code c) land 0x3fffffff) s;
  !acc

(* Executions per delegation id (ids are dense from 0): one byte each,
   saturating, so counting costs the loop no hashing or GC work. *)
module Execs = struct
  type t = { mutable counts : Bytes.t }

  let create () = { counts = Bytes.make 4096 '\000' }

  let bump t id =
    if id >= Bytes.length t.counts then begin
      let b = Bytes.make (max (id + 1) (2 * Bytes.length t.counts)) '\000' in
      Bytes.blit t.counts 0 b 0 (Bytes.length t.counts);
      t.counts <- b
    end;
    let c = Bytes.get_uint8 t.counts id in
    if c < 255 then Bytes.set_uint8 t.counts id (c + 1)

  let dups t =
    let n = ref 0 in
    Bytes.iter (fun c -> n := !n + max 0 (Char.code c - 1)) t.counts;
    !n
end

(* Handler-start ids: B's calls by delegation id, C's shifted apart. *)
let c_id_offset = 1 lsl 40

let handoff_delegate env =
  let rng = Random.State.make [| env.seed; 3 |] in
  let body = String.init (2 * blob_bytes) (fun _ -> Char.chr (32 + Random.State.int rng 95)) in
  let blob_of id =
    let tag = Printf.sprintf "%08d|" id in
    tag ^ String.sub body (id mod blob_bytes) (blob_bytes - String.length tag)
  in
  let id_of_blob s = int_of_string (String.sub s 0 8) in
  let tr_a = env.endpoint ~addr:0 ~name:"client" in
  let tr_b = env.endpoint ~addr:1 ~name:"mid" in
  let tr_c = env.endpoint ~addr:2 ~name:"sink" in
  let hub_a = CH.create_hub ~transport:tr_a () in
  let mid = G.create (CH.create_hub ~transport:tr_b ()) ~name:"mid" in
  let sink = G.create (CH.create_hub ~transport:tr_c ()) ~name:"sink" in
  let group = GC.(default |> with_reply_config CH.rpc_config |> with_dedup) in
  let mid_execs = Execs.create () and sink_execs = Execs.create () in
  let bump = Execs.bump in
  G.register_group mid ~group:"main" ~config:group ();
  G.register mid ~group:"main" (side_sig env blob_sig)
    (handler env ~id:Fun.id (fun _ n ->
         bump mid_execs n;
         Ok (blob_of n)));
  G.register_group sink ~group:"main" ~config:group ();
  G.register sink ~group:"main" (side_sig env consume_sig)
    (handler env
       ~id:(fun s -> c_id_offset + id_of_blob s)
       (fun _ s ->
         bump sink_execs (id_of_blob s);
         Ok (checksum s)));
  listen env ~addr:1;
  listen env ~addr:2;
  (* Producer call (stream, call id) -> delegation id, to map C's
     by-reference arguments back to their delegation. *)
  let origins = Hashtbl.create 1024 in
  let handles =
    Array.init delegators (fun j ->
        let ag_b = Core.Agent.create hub_a ~name:(Printf.sprintf "d%d-b" j) ~config:CH.rpc_config () in
        let ag_c = Core.Agent.create hub_a ~name:(Printf.sprintf "d%d-c" j) ~config:CH.rpc_config () in
        ( R.bind ag_b ~dst:1 ~gid:"main" (side_sig env blob_sig),
          R.bind ag_c ~dst:2 ~gid:"main" (side_sig env consume_sig) ))
  in
  let next = ref 0 in
  let delegate tally (hB, hC) =
    let id = !next in
    incr next;
    tally.attempted <- tally.attempted + 1;
    let t_issue = Ledger.now_us () in
    let pf = submit env ~call:id R.Call.(defer_result (make hB id)) in
    if env.traced then
      Option.iter (fun o -> Hashtbl.replace origins (o.P.og_stream, o.P.og_call) id) (P.origin pf);
    let pg = submit env ~call:(c_id_offset + id) R.Call.(piped hC (R.pipe pf)) in
    R.flush hC;
    record tally ~t_issue ~what:(Printf.sprintf "delegation %d" id)
      (check ~expect:(checksum (blob_of id)) (Ledger.claim pg))
  in
  let loop tally ~stop =
    let done_ = P.create env.sched in
    let live = ref delegators in
    let delegator hh () =
      Fun.protect
        ~finally:(fun () ->
          decr live;
          if !live = 0 then P.resolve done_ (P.Normal ()))
        (fun () ->
          while not (stop ()) do
            delegate tally hh
          done)
    in
    Array.iteri
      (fun j hh ->
        let f : S.fiber = S.spawn env.sched ~name:(Printf.sprintf "delegator-%d" j) (delegator hh) in
        ignore f)
      handles;
    ignore (P.claim done_ : (unit, unit) P.outcome)
  in
  {
    first =
      (fun () ->
        let t = new_tally () in
        delegate t handles.(0);
        first_or_fail t "handoff_delegate");
    loop;
    streams = (fun () -> Array.to_list handles |> List.concat_map (fun (hB, hC) -> [ R.stream hB; R.stream hC ]));
    dup_execs = (fun () -> Execs.dups mid_execs + Execs.dups sink_execs);
    call_id =
      (fun ~port v ->
        match (port, v) with
        | "blob", Xdr.Int n -> Some n
        | "consume", Xdr.Pref { ps_stream; ps_call; _ } ->
            Option.map (fun id -> c_id_offset + id) (Hashtbl.find_opt origins (ps_stream, ps_call))
        | _ -> None);
  }

let all = [ { name = "rpc_small"; build = rpc_small }; { name = "stream_batch"; build = stream_batch }; { name = "handoff_delegate"; build = handoff_delegate } ]
