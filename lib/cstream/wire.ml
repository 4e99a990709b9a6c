type kind = Call | Send

type routcome =
  | W_normal of Xdr.value
  | W_signal of string * Xdr.value
  | W_unavailable of string
  | W_failure of string

let pp_routcome ppf = function
  | W_normal v -> Format.fprintf ppf "normal(%a)" Xdr.pp_value v
  | W_signal (name, v) -> Format.fprintf ppf "signal %s(%a)" name Xdr.pp_value v
  | W_unavailable reason -> Format.fprintf ppf "unavailable(%s)" reason
  | W_failure reason -> Format.fprintf ppf "failure(%s)" reason

(* The incarnation-independent identity of a sending stream, as both
   ends compute it: the reply-channel label minus its trailing
   incarnation number, qualified by the sender's address. Promise
   references ({!Xdr.Pref}) name producing calls by this string plus
   the stable call-id, so a reference minted before a crash still
   resolves after [restart_resubmit]. *)
let stable_stream_id ~src ~reply_label =
  let prefix =
    match String.rindex_opt reply_label '/' with
    | Some i -> String.sub reply_label 0 i
    | None -> reply_label
  in
  Printf.sprintf "%d|%s" src prefix

(* A stable stream id embeds the reply label "~r/<agent>/<gid>/<dst>"
   (incarnation already stripped), so the port group the stream sends
   to can be recovered: second-to-last '/'-segment, counted from the
   end so an agent name containing '/' cannot shift it. *)
let stream_id_group id =
  match String.index_opt id '|' with
  | None -> None
  | Some i -> (
      let label = String.sub id (i + 1) (String.length id - i - 1) in
      match String.split_on_char '/' label with
      | "~r" :: rest when List.length rest >= 3 -> Some (List.nth rest (List.length rest - 2))
      | _ -> None)

(* --- third-party handoff (docs/HANDOFF.md) ------------------------ *)

(* A handoff annotation rides on a call item whose arguments reference
   a result produced on another node: it tells the receiver which node
   owns the referenced outcome so the receiver can accept the foreign
   [Pref] and wait for the owner to push the value, instead of
   rejecting the reference. [ho_epoch] is the forwarding sender's
   handoff epoch — a receiver whose notion of the protocol has moved on
   refuses mismatched epochs and the sender falls back to proxying. *)
type handoff = { ho_owner : int; ho_stream : string; ho_call : int; ho_epoch : int }

let handoff_value h =
  Xdr.Record
    [
      ("o", Xdr.Int h.ho_owner);
      ("s", Xdr.Str h.ho_stream);
      ("c", Xdr.Int h.ho_call);
      ("e", Xdr.Int h.ho_epoch);
    ]

let parse_handoff v =
  let malformed () = Error (Format.asprintf "malformed handoff: %a" Xdr.pp_value v) in
  match v with
  | Xdr.Record fields -> (
      let field name = List.assoc_opt name fields in
      match (field "o", field "s", field "c", field "e") with
      | Some (Xdr.Int owner), Some (Xdr.Str stream), Some (Xdr.Int call), Some (Xdr.Int epoch)
        ->
          Ok { ho_owner = owner; ho_stream = stream; ho_call = call; ho_epoch = epoch }
      | _ -> malformed ())
  | _ -> malformed ()

(* The outcome-push item the result's producer sends directly to the
   forwarded call's new home: "(stream, call) produced this outcome".
   Carried on the reserved "~handoff" channel label. *)
let handoff_push_item ~stream ~call ov =
  Xdr.Record [ ("s", Xdr.Str stream); ("c", Xdr.Int call); ("v", ov) ]

(* The two reserved ports every pipelining-enabled port group serves:
   "push the outcome of one of your calls to a foreign owner" and
   "reply with that outcome directly" (the fallback round trip). *)
let handoff_notice_port = "~handoff"

let handoff_redeem_port = "~redeem"

let parse_handoff_push v =
  let malformed () =
    Error (Format.asprintf "malformed handoff push: %a" Xdr.pp_value v)
  in
  match v with
  | Xdr.Record fields -> (
      let field name = List.assoc_opt name fields in
      match (field "s", field "c", field "v") with
      | Some (Xdr.Str stream), Some (Xdr.Int call), Some ov -> Ok (stream, call, ov)
      | _ -> malformed ())
  | _ -> malformed ()

let kind_tag = function Call -> "c" | Send -> "s"

let kind_of_tag = function
  | "c" -> Ok Call
  | "s" -> Ok Send
  | other -> Error (Printf.sprintf "unknown call kind %S" other)

(* The optional "t" field carries the per-call trace id (docs/TRACING.md).
   It is appended only when the sender's span store is enabled, so with
   tracing off the encoding is byte-for-byte the pre-tracing format;
   [parse_call] ignores unknown fields either way. *)
(* The optional "r" field marks a crash-recovery resubmit: load-shedding
   receivers (docs/OVERLOAD.md) must never shed these — the original
   attempt may already have executed, so the caller needs the deduped
   outcome, not [unavailable]. *)
(* The optional "h" field lists handoff annotations (one per foreign
   [Pref] in the arguments) and the optional "y" field asks the
   receiver to elide a normal result from the reply (the value will
   travel by handoff push instead). Both are appended only when used,
   so handoff-free frames stay byte-identical to the prior format. *)
let call_item ?(resubmit = false) ?(handoff = []) ?(elide = false) ~seq ~cid ~trace ~port
    ~kind ~args () =
  Xdr.Record
    ([
       ("q", Xdr.Int seq);
       ("i", Xdr.Int cid);
       ("p", Xdr.Str port);
       ("k", Xdr.Str (kind_tag kind));
       ("a", args);
     ]
    @ (match trace with Some tid -> [ ("t", Xdr.Int tid) ] | None -> [])
    @ (if resubmit then [ ("r", Xdr.Int 1) ] else [])
    @ (match handoff with
      | [] -> []
      | hs -> [ ("h", Xdr.List (List.map handoff_value hs)) ])
    @ if elide then [ ("y", Xdr.Int 1) ] else [])

(* Parse by field name, not position: a reordered-but-complete record
   (e.g. from a future encoder) must decode, and unknown extra fields
   are ignored for forward compatibility. *)
let parse_call v =
  let malformed () = Error (Format.asprintf "malformed call item: %a" Xdr.pp_value v) in
  match v with
  | Xdr.Record fields -> (
      let field name = List.assoc_opt name fields in
      match (field "q", field "i", field "p", field "k", field "a") with
      | ( Some (Xdr.Int seq),
          Some (Xdr.Int cid),
          Some (Xdr.Str port),
          Some (Xdr.Str k),
          Some args ) -> (
          match kind_of_tag k with
          | Ok kind -> Ok (seq, cid, port, kind, args)
          | Error e -> Error e)
      | _ -> malformed ())
  | _ -> malformed ()

let outcome_value = function
  | W_normal v -> Xdr.Tagged ("n", v)
  | W_signal (name, v) -> Xdr.Tagged ("g", Xdr.Pair (Xdr.Str name, v))
  | W_unavailable reason -> Xdr.Tagged ("u", Xdr.Str reason)
  | W_failure reason -> Xdr.Tagged ("f", Xdr.Str reason)

let outcome_of_value = function
  | Xdr.Tagged ("n", v) -> Ok (W_normal v)
  | Xdr.Tagged ("g", Xdr.Pair (Xdr.Str name, v)) -> Ok (W_signal (name, v))
  | Xdr.Tagged ("u", Xdr.Str reason) -> Ok (W_unavailable reason)
  | Xdr.Tagged ("f", Xdr.Str reason) -> Ok (W_failure reason)
  | Xdr.Tagged ("o", Xdr.Unit) -> Ok (W_normal Xdr.Unit)
  | v -> Error (Format.asprintf "malformed outcome: %a" Xdr.pp_value v)

(* Replies have two wire forms: the compact pair (tracing off — the
   original format) and a field-named record carrying the call's trace
   id (tracing on). [parse_reply_view] accepts both. *)
let reply_value ~seq ~trace ov =
  match trace with
  | None -> Xdr.Pair (Xdr.Int seq, ov)
  | Some tid -> Xdr.Record [ ("q", Xdr.Int seq); ("t", Xdr.Int tid); ("o", ov) ]

let reply_item ~seq ~trace outcome = reply_value ~seq ~trace (outcome_value outcome)

let send_ok_item ~seq ~trace = reply_value ~seq ~trace (Xdr.Tagged ("o", Xdr.Unit))

(* The trace id of a call or (traced-form) reply item; [None] for the
   compact forms, for untraced items and for anything malformed. Total:
   the channel layer applies it to every item it moves. *)
let item_trace = function
  | Xdr.Record fields -> (
      match List.assoc_opt "t" fields with Some (Xdr.Int tid) -> Some tid | _ -> None)
  | _ -> None

(* --- lazy (view-based) parsing ------------------------------------ *)

(* The zero-copy receive path (docs/WIRE.md §Lazy views): envelope
   fields are tiny and are materialised individually; the argument —
   the only part that can be large — stays an un-decoded slice until a
   handler actually consumes it. *)

module V = Xdr.View

type call_view = {
  cv_seq : int;
  cv_cid : int;
  cv_port : string;
  cv_kind : kind;
  cv_args : V.t;
  cv_trace : int option;
  cv_resubmit : bool;
  cv_handoff : handoff list;
  cv_elide : bool;
}

let parse_call_view vw =
  match V.record_fields vw with
  | Error e -> Error ("malformed call item: " ^ e)
  | Ok fields -> (
      let field name = List.assoc_opt name fields in
      let int_field name =
        match field name with
        | Some f -> ( match V.as_int f with Ok i -> Some i | Error _ -> None)
        | None -> None
      in
      let str_field name =
        match field name with
        | Some f -> ( match V.as_string f with Ok s -> Some s | Error _ -> None)
        | None -> None
      in
      (* Handoff annotations are tiny envelope data: materialise the
         "h" slice (when present) and decode each entry eagerly. An
         unparsable annotation fails the whole item — the receiver
         would otherwise mis-route a foreign reference. *)
      let handoffs () =
        match field "h" with
        | None -> Ok []
        | Some hv -> (
            match V.materialize hv with
            | Error e -> Error ("malformed call item: " ^ e)
            | Ok (Xdr.List items) ->
                List.fold_left
                  (fun acc item ->
                    match (acc, parse_handoff item) with
                    | Error e, _ -> Error e
                    | Ok hs, Ok h -> Ok (h :: hs)
                    | Ok _, Error e -> Error e)
                  (Ok []) items
                |> Result.map List.rev
            | Ok v ->
                Error (Format.asprintf "malformed call item: handoff field %a" Xdr.pp_value v))
      in
      match (int_field "q", int_field "i", str_field "p", str_field "k", field "a") with
      | Some seq, Some cid, Some port, Some k, Some args -> (
          match (kind_of_tag k, handoffs ()) with
          | Ok kind, Ok hs ->
              Ok
                {
                  cv_seq = seq;
                  cv_cid = cid;
                  cv_port = port;
                  cv_kind = kind;
                  cv_args = args;
                  cv_trace = int_field "t";
                  cv_resubmit = field "r" <> None;
                  cv_handoff = hs;
                  cv_elide = field "y" <> None;
                }
          | Error e, _ | _, Error e -> Error e)
      | _ -> Error "malformed call item: missing or mistyped envelope field")

(* Reply parsing pulls only the sequence number out of the bytes; the
   outcome slice is returned unmaterialised so stale replies (already
   completed, e.g. after a resubmit race) cost no decode at all. *)
let parse_reply_view vw =
  match V.shape vw with
  | V.Vpair -> (
      match V.pair_parts vw with
      | Error e -> Error ("malformed reply item: " ^ e)
      | Ok (s, ov) -> (
          match V.as_int s with
          | Ok seq -> Ok (seq, ov)
          | Error e -> Error ("malformed reply item: " ^ e)))
  | V.Vrecord -> (
      match V.record_fields vw with
      | Error e -> Error ("malformed reply item: " ^ e)
      | Ok fields -> (
          match (List.assoc_opt "q" fields, List.assoc_opt "o" fields) with
          | Some q, Some ov -> (
              match V.as_int q with
              | Ok seq -> Ok (seq, ov)
              | Error e -> Error ("malformed reply item: " ^ e))
          | _ -> Error "malformed reply item: missing q/o field"))
  | _ -> Error "malformed reply item: not a pair or record"

let outcome_of_view vw =
  match V.materialize vw with Ok v -> outcome_of_value v | Error e -> Error e

let item_trace_view vw =
  match V.shape vw with
  | V.Vrecord -> (
      match V.record_field vw "t" with
      | Ok (Some f) -> ( match V.as_int f with Ok tid -> Some tid | Error _ -> None)
      | _ -> None)
  | _ -> None
