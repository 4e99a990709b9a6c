(* Frame replay: decode the traced run's captured frames, derive what
   they carried, and price the codecs on that real traffic.

   [Chanhub.decode_packet] reads v1 frames only. Frames sent while the
   connection dictionary is on are v2 (version byte 2, the dictionary
   epoch, then the same packet grammar with dictionary string markers);
   [decode_v2] below reads them against one receiver table per
   (src, dst, epoch), fed in arrival order as the hub's own receive path
   feeds its table. For pricing, a v2 packet is re-encoded as its v1
   equivalent, so the codec prices below exclude the dictionary's own
   cost. Hello/welcome control frames (tags 4 and 5) count as frames but
   are not priced. *)

module B = Xdr.Bin
module CH = Cstream.Chanhub

let ( let* ) = Result.bind

let dict_version = 2

let decode_key d =
  let* src = B.read_uvarint d in
  let* label = B.read_string d in
  let* idx = B.read_uvarint d in
  let* meta = B.read_string d in
  Ok { CH.src; label; idx; meta }

let rec read_n n read d acc =
  if n = 0 then Ok (List.rev acc)
  else
    let* x = read d in
    read_n (n - 1) read d (x :: acc)

let decode_ack d =
  let* a_key = decode_key d in
  let* a_upto = B.read_varint d in
  let* a_pressure = B.read_uvarint d in
  Ok { CH.a_key; a_upto; a_pressure }

let decode_v2 tables ~src ~dst frame =
  let d = B.decoder frame in
  let* _version = B.read_byte d in
  let* epoch = B.read_uvarint d in
  let table =
    match Hashtbl.find_opt tables (src, dst, epoch) with
    | Some t -> t
    | None ->
        let t = B.create_dict_table () in
        Hashtbl.replace tables (src, dst, epoch) t;
        t
  in
  B.use_dict_table d table;
  let* tag = B.read_byte d in
  let* p =
    match tag with
    | 1 ->
        let* key = decode_key d in
        let* first_seq = B.read_uvarint d in
        let* na = B.read_uvarint d in
        let* acks = read_n na decode_ack d [] in
        let* ni = B.read_uvarint d in
        let* items = read_n ni B.read_value d [] in
        Ok (CH.Data { key; first_seq; acks; items })
    | 2 ->
        let* na = B.read_uvarint d in
        let* acks = read_n na decode_ack d [] in
        Ok (CH.Ack { acks })
    | 3 ->
        let* key = decode_key d in
        let* reason = B.read_raw_string d in
        Ok (CH.Reset { key; reason })
    | t -> Error (Printf.sprintf "unknown v2 packet tag %d" t)
  in
  let* () = B.expect_end d in
  Ok p

type decoded = {
  d_cap : Ledger.captured;
  d_packet : CH.packet option;  (* [None]: a dictionary hello/welcome *)
  d_v1 : string option;  (* the frame (or its v1 equivalent) to price *)
}

let is_control frame =
  String.length frame >= 2 && Char.code frame.[0] = B.version && (Char.code frame.[1] = 4 || Char.code frame.[1] = 5)

let decode_all caps =
  let tables = Hashtbl.create 8 in
  List.map
    (fun (c : Ledger.captured) ->
      let f = c.Ledger.c_frame in
      if is_control f then Ok { d_cap = c; d_packet = None; d_v1 = None }
      else if String.length f > 0 && Char.code f.[0] = dict_version then
        let* p = decode_v2 tables ~src:c.Ledger.c_src ~dst:c.Ledger.c_dst f in
        Ok { d_cap = c; d_packet = Some p; d_v1 = Some (CH.encode_packet p) }
      else
        let* p = CH.decode_packet f in
        Ok { d_cap = c; d_packet = Some p; d_v1 = Some f })
    caps
  |> List.fold_left
       (fun acc r ->
         match (acc, r) with
         | Error e, _ -> Error e
         | Ok l, Ok x -> Ok (x :: l)
         | Ok _, Error e -> Error e)
       (Ok [])
  |> Result.map List.rev

(* Strings the frame encoder interns (docs/WIRE.md): channel labels and
   metas, record field names, variant tags, promise-ref names and short
   string values. The first occurrence of each distinct one per frame
   is sent inline, as a dictionary define, or as a dictionary ref. *)
let intern_max = 64

let distinct_strings p =
  let seen = Hashtbl.create 16 in
  let add s = Hashtbl.replace seen s () in
  let key (k : CH.key) =
    add k.CH.label;
    add k.CH.meta
  in
  let rec value (v : Xdr.value) =
    match v with
    | Xdr.Unit | Bool _ | Int _ | Real _ -> ()
    | Str s -> if String.length s <= intern_max then add s
    | Pair (a, b) ->
        value a;
        value b
    | List vs -> List.iter value vs
    | Record fs ->
        List.iter
          (fun (n, v) ->
            add n;
            value v)
          fs
    | Tagged (t, v) ->
        add t;
        value v
    | Pref { ps_stream; ps_field; _ } -> (
        add ps_stream;
        match ps_field with Some f -> add f | None -> ())
  in
  (match p with
  | CH.Data { key = k; acks; items; _ } ->
      key k;
      List.iter (fun a -> key a.CH.a_key) acks;
      List.iter value items
  | CH.Ack { acks } -> List.iter (fun a -> key a.CH.a_key) acks
  | CH.Reset { key = k; _ } -> key k);
  Hashtbl.length seen

let is_call item = match Cstream.Wire.parse_call item with Ok _ -> true | Error _ -> false

(* Seconds each codec is priced for. *)
let price_s = 0.2

(* Run [f] over [xs] until at least [price_s] seconds have passed; the
   mean nanoseconds per element. *)
let price xs f =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let t0 = Ledger.now_us () in
    let reps = ref 0 in
    while Ledger.now_us () -. t0 < price_s *. 1e6 do
      Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
      incr reps
    done;
    (Ledger.now_us () -. t0) *. 1e3 /. float_of_int (!reps * n)
  end

type summary = {
  frames : int;
  call_frames : int;  (* data frames carrying at least one call item *)
  calls : int;  (* call items across those frames *)
  acks : int;  (* standalone Ack frames *)
  dict_refs : int;
  strings : int;  (* distinct interned strings per data frame, summed *)
  handoff_frames : int;  (* frames on a push channel (data or ack) *)
  decode_ns : float;
  encode_ns : float;
  view_ns : float;
}

(* The frames captured inside the measured window. *)
let measured decoded = List.filteri (fun i _ -> i >= !Ledger.measured_from) decoded

let summarise decoded =
  let decoded = measured decoded in
  let frames = List.length decoded in
  let call_frames = ref 0 and calls = ref 0 and acks = ref 0 in
  let refs = ref 0 and strings = ref 0 and ho = ref 0 in
  let push_label (k : CH.key) = k.CH.label = "~handoff" in
  List.iter
    (fun d ->
      match d.d_packet with
      | None -> ()
      | Some (CH.Data { key; acks = a; items; _ } as p) ->
          refs := !refs + d.d_cap.Ledger.c_dict_refs;
          strings := !strings + distinct_strings p;
          let nc = List.length (List.filter is_call items) in
          if nc > 0 then begin
            incr call_frames;
            calls := !calls + nc
          end;
          if push_label key || List.exists (fun x -> push_label x.CH.a_key) a then incr ho
      | Some (CH.Ack { acks = a }) ->
          incr acks;
          if List.exists (fun x -> push_label x.CH.a_key) a then incr ho
      | Some (CH.Reset _) -> ())
    decoded;
  let v1 = Array.of_list (List.filter_map (fun d -> d.d_v1) decoded) in
  let packets = Array.of_list (List.filter_map (fun d -> d.d_packet) decoded) in
  let items =
    Array.of_list
      (List.concat_map
         (function CH.Data { items; _ } -> List.map B.to_string items | CH.Ack _ | CH.Reset _ -> [])
         (Array.to_list packets))
  in
  {
    frames;
    call_frames = !call_frames;
    calls = !calls;
    acks = !acks;
    dict_refs = !refs;
    strings = !strings;
    handoff_frames = !ho;
    decode_ns = price v1 CH.decode_packet;
    encode_ns = price packets CH.encode_packet;
    view_ns = price items Xdr.View.of_string;
  }

(* Dispatch wait: from the start of the upcall that delivered a call's
   frame to its handler starting. [call_id] maps a call item's argument
   to the id the handler wrapper keyed its start time by. *)
let dispatch_waits decoded ~call_id =
  let decoded = measured decoded in
  let first_seen = Hashtbl.create 1024 in
  List.iter
    (fun d ->
      match d.d_packet with
      | Some (CH.Data { items; _ }) ->
          List.iter
            (fun item ->
              match Cstream.Wire.parse_call item with
              | Ok (_, _, port, _, args) -> (
                  match call_id ~port args with
                  | Some id when not (Hashtbl.mem first_seen id) ->
                      Hashtbl.replace first_seen id d.d_cap.Ledger.c_t
                  | Some _ | None -> ())
              | Error _ -> ())
            items
      | Some (CH.Ack _ | CH.Reset _) | None -> ())
    decoded;
  Hashtbl.fold
    (fun id t acc ->
      match Hashtbl.find_opt Ledger.handler_starts id with
      | Some h -> (h -. t) :: acc
      | None -> acc)
    first_seen []
