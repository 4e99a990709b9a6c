(* Call-path benchmark over loopback TCP (see README.md in this directory).

   perfbench/main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with raw transports and
   codecs; --trace 1 runs an untraced reference pass and a traced pass
   and reports the per-layer ledger. Either way the last line of
   standard output is one JSON object; the exit code is non-zero when
   any reply is wrong, any handler ran twice for one key, or a resource
   did not return to zero. *)

module S = Sched.Scheduler
module T = Transport_tcp
module W = Workloads

(* --- measurement of one world ---------------------------------------- *)

(* One slice of the measured window. End-to-end timings are the
   interquartile mean over these slices, so a burst of noise from other
   tenants of the host in a few slices does not move them. [w_slow] is
   the host's slowdown around the slice (Hostref); 1 when no reference
   kernels ran. *)
type window = { w_calls : int; w_secs : float; w_cpu_s : float; w_lats : float array; w_slow : Hostref.slowdown }

type pass = {
  tally : W.tally;
  setup_s : float;
  windows : window list;
  wall_s : float;  (* the measured slices, summed *)
  cpu_s : float;
  frames : int;  (* fabric frames over the measured window, both directions *)
  bytes : int;  (* fabric payload bytes, same window *)
  fid : int * int;  (* frames, bytes over the first [fid_calls] measured calls *)
  peak_heap_words : int;  (* top of the major heap after [heap_calls] measured calls *)
  peak_heap_at : int;  (* measured calls completed when it was read *)
  minor_words : float;
  major_words : float;
  major_collections : int;
  counters : (string * int) list;  (* scheduler-registry readings over the window *)
  conns_opened : int;
  conns_lost : int;
  problems : string list;
  parts : W.parts;
}

(* Completed calls before the measured window, so connections, the
   dictionary and lane state are warm. A fixed count, not a time, so a
   traced and an untraced pass put the same call ids on the wire and
   their traffic can be compared byte for byte. *)
let warmup_calls = function "handoff_delegate" -> 400 | "stream_batch" -> 4000 | _ -> 2000

let fid_calls = 2000

(* The heap peak is read after a fixed number of measured calls, not at
   the end of the timed window: per-call state that is never freed
   grows the heap with every call, and a faster build must not read as
   a bigger heap just because it completed more calls. *)
let heap_calls = function "handoff_delegate" -> 30_000 | "stream_batch" -> 200_000 | _ -> 50_000

let window_s = 0.5

let sched_counters =
  [
    "chan_retransmits";
    "chan_dict_refs";
    "shard_queue_hwm";
    "target_sheds";
    "handoff_forwards";
    "handoff_fallbacks";
    "parked_calls";
  ]

let cpu_now = Hostref.cpu_now

let peek stats name = Sim.Stats.peek stats name

(* Build a world, complete its first call (the end of set-up), then —
   unless [measure] is [None] — warm up, run the closed loop for that
   many seconds, wait for quiescence and check it. The loop runs in
   slices of [window_s]; each slice ends when its calls have all been
   claimed. With [host], reference kernels run between slices (and
   before the first), outside the slices' time and CPU. *)
let run_world ?host (wl : W.t) ~seed ~traced ~measure =
  let t0 = Ledger.now_us () in
  let sched = S.create ~seed () in
  let fab = T.create sched in
  if traced then begin
    Ledger.new_world ();
    Ledger.sched := Some sched
  end;
  let endpoint ~addr ~name =
    let tr = T.endpoint fab ~addr ~name () in
    if traced then Ledger.wrap_transport tr else tr
  in
  let env = { W.sched; fab; traced; seed; endpoint } in
  let problems = ref [] in
  let problem s = problems := s :: !problems in
  let tally = W.new_tally () in
  let fstats = T.stats fab and sstats = S.stats sched in
  let traffic () = (peek fstats "transport_frames_sent", peek fstats "transport_bytes_sent") in
  let result = ref None in
  let main () =
    let parts = wl.W.build env in
    Ledger.enabled := traced;
    parts.W.first ();
    let setup_s = (Ledger.now_us () -. t0) /. 1e6 in
    let empty =
      {
        tally;
        setup_s;
        windows = [];
        wall_s = 0.;
        cpu_s = 0.;
        frames = 0;
        bytes = 0;
        fid = (0, 0);
        peak_heap_words = 0;
        peak_heap_at = 0;
        minor_words = 0.;
        major_words = 0.;
        major_collections = 0;
        counters = [];
        conns_opened = 0;
        conns_lost = 0;
        problems = [];
        parts;
      }
    in
    match measure with
    | None -> result := Some empty
    | Some seconds ->
        let warm = W.new_tally () in
        let n_warm = warmup_calls wl.W.name in
        parts.W.loop warm ~stop:(fun () -> warm.W.attempted >= n_warm);
        (match warm.W.first_bad with Some why -> problem ("warm-up: " ^ why) | None -> ());
        Ledger.reset ();
        Ledger.start_measured_window ();
        Ledger.reset_claims ();
        let c0 = List.map (fun n -> peek sstats n) sched_counters in
        let f0, b0 = traffic () in
        let fid = ref None in
        let gc0 = Gc.quick_stat () in
        let burst () = match host with Some h -> Hostref.burst h | None -> { Hostref.wall = 1.; cpu = 1. } in
        let n_windows = max 1 (Float.to_int (Float.round (seconds /. window_s))) in
        let slice = seconds *. 1e6 /. float_of_int n_windows in
        let peak = ref None in
        let n_heap = heap_calls wl.W.name in
        let stop_at = ref 0. in
        let stop () =
          if !fid = None && W.completed tally >= fid_calls then begin
            let f, b = traffic () in
            fid := Some (f - f0, b - b0)
          end;
          if !peak = None && W.completed tally >= n_heap then
            peak := Some ((Gc.quick_stat ()).Gc.top_heap_words, W.completed tally);
          Ledger.now_us () >= !stop_at
        in
        (* The slowdown charged to a slice is the geometric mean of the
           bursts on either side of it. *)
        let before = ref (burst ()) in
        let windows =
          List.init n_windows (fun _ ->
              let nl = tally.W.nlat and n = W.completed tally in
              let cpu = cpu_now () and t = Ledger.now_us () in
              stop_at := t +. slice;
              parts.W.loop tally ~stop;
              let now = Ledger.now_us () and cpu' = cpu_now () in
              let after = burst () in
              let mean f = Float.sqrt (f !before *. f after) in
              before := after;
              {
                w_calls = W.completed tally - n;
                w_secs = (now -. t) /. 1e6;
                w_cpu_s = cpu' -. cpu;
                w_lats = Array.sub tally.W.lats nl (tally.W.nlat - nl);
                w_slow = { Hostref.wall = mean (fun s -> s.Hostref.wall); cpu = mean (fun s -> s.Hostref.cpu) };
              })
        in
        let gc1 = Gc.quick_stat () in
        let f1, b1 = traffic () in
        (* [shard_queue_hwm] is a high-water mark: its level, not its
           growth over the window, is the reading. *)
        let counters =
          List.map2
            (fun n c -> (n, if n = "shard_queue_hwm" then peek sstats n else peek sstats n - c))
            sched_counters c0
        in
        Ledger.enabled := false;
        (* Quiesce: the last acks are still in flight when the last
           claim returns. *)
        let quiet () =
          List.for_all
            (fun st -> Cstream.Stream_end.outstanding st = 0 && Cstream.Stream_end.inflight_bytes st = 0)
            (parts.W.streams ())
        in
        let deadline = Ledger.now_us () +. 2e6 in
        while (not (quiet ())) && Ledger.now_us () < deadline do
          S.sleep sched 1e-3
        done;
        List.iter
          (fun st ->
            let o = Cstream.Stream_end.outstanding st and b = Cstream.Stream_end.inflight_bytes st in
            if o <> 0 || b <> 0 then
              problem
                (Printf.sprintf "stream %s not quiesced: outstanding=%d inflight_bytes=%d"
                   (Cstream.Stream_end.agent st) o b))
          (parts.W.streams ());
        result :=
          Some
            {
              empty with
              windows;
              wall_s = List.fold_left (fun acc w -> acc +. w.w_secs) 0. windows;
              cpu_s = List.fold_left (fun acc w -> acc +. w.w_cpu_s) 0. windows;
              frames = f1 - f0;
              bytes = b1 - b0;
              fid = (match !fid with Some x -> x | None -> (f1 - f0, b1 - b0));
              peak_heap_words = (match !peak with Some (w, _) -> w | None -> gc1.Gc.top_heap_words);
              peak_heap_at = (match !peak with Some (_, n) -> n | None -> W.completed tally);
              minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
              major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
              major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
              counters;
            }
  in
  let failed = ref None in
  ignore (S.spawn sched ~name:"bench-main" (fun () -> try main () with e -> failed := Some e) : S.fiber);
  (match S.run sched with
  | S.Completed -> ()
  | S.Deadlocked fs -> problem ("deadlock: " ^ String.concat ", " (List.map S.fiber_name fs))
  | S.Time_limit -> problem "unexpected time limit");
  Ledger.enabled := false;
  Ledger.sched := None;
  let conns_opened = peek fstats "transport_conns_opened" and conns_lost = peek fstats "transport_conns_lost" in
  T.close fab;
  (match !failed with Some e -> problem ("exception: " ^ Printexc.to_string e) | None -> ());
  if conns_lost <> 0 then problem (Printf.sprintf "transport.conns_lost = %d" conns_lost);
  match !result with
  | None -> Error (List.rev !problems)
  | Some p ->
      let dups = p.parts.W.dup_execs () in
      if dups <> 0 then problem (Printf.sprintf "%d duplicate handler executions" dups);
      (match tally.W.first_bad with Some why -> problem why | None -> ());
      Ok { p with conns_opened; conns_lost; problems = List.rev !problems }

(* --- statistics ---------------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile lats q =
  let a = Array.copy lats in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else a.(min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

(* Interquartile mean: the mean of the middle half, sorted. *)
let iqm xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let lo = n / 4 in
  let hi = max (lo + 1) (n - lo) in
  if n = 0 then nan else Array.fold_left ( +. ) 0. (Array.sub a lo (hi - lo)) /. float_of_int (hi - lo)

let over_windows p f = iqm (List.filter Float.is_finite (List.map f p.windows))

let calls p = W.completed p.tally

let per_call p x = x /. float_of_int (max 1 (calls p))

let counter p name = try List.assoc name p.counters with Not_found -> 0

(* --- output ---------------------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

let json_number x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let json_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name (json_number x.m_value) x.m_unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct attempted failed
    (String.concat ", " body)

let print_metrics metrics = List.iter (fun x -> Printf.printf "  %-40s %14.4f %s\n" x.m_name x.m_value x.m_unit) metrics

(* Socket bytes per call: frame payload plus the 4-byte length prefix
   every frame carries on the connection. *)
let wire_bytes p = float_of_int (p.bytes + (4 * p.frames))

(* Set-up is short (under a millisecond), so a run sets up this many
   worlds and reports the median. The first world is the measured one;
   the rest follow it. Each of those starts after a full major
   collection, so it is not charged for collecting the worlds before
   it, and after [setup_gap_s] of reference-kernel bursts, the last of
   which gives the host slowdown its set-up time is divided by. Without
   the collections, set-up times split into two groups by major GC
   phase, and the median jumped between them from run to run. Without
   the gap, set-ups run back to back drifted, by up to 2x within a run,
   on a 2-vCPU VM; with it they were steady. The extra set-ups come
   after the measured world, not before it: with full collections ahead
   of it, the [top_heap_words] reading behind [peak_heap_mb] came out
   about 13 times what it reads without them (OCaml 5.1, [rpc_small]). *)
let setups = 41

let setup_gap_s = 0.1

let bursts_for host s =
  let t0 = Ledger.now_us () in
  let rec go () =
    let b = Hostref.burst host in
    if Ledger.now_us () -. t0 < s *. 1e6 then go () else b
  in
  go ()

let end_to_end host (wl : W.t) ~seed ~seconds =
  let first_slow = Hostref.burst host in
  match run_world ~host wl ~seed ~traced:false ~measure:(Some seconds) with
  | Error ps -> (ps, None, [])
  | Ok p ->
      let t = p.tally in
      (* Each timing twice: as measured, and divided by the host's
         slowdown around its slice (Hostref). The adjusted ones are the
         metrics. *)
      let timings slow =
        let wall w = if slow then w.w_slow.Hostref.wall else 1. in
        let cpu w = if slow then w.w_slow.Hostref.cpu else 1. in
        [
          m "throughput_cps" "1/s" (over_windows p (fun w -> float_of_int w.w_calls /. w.w_secs *. wall w));
          m "latency_p50_us" "us" (over_windows p (fun w -> percentile w.w_lats 0.50 /. wall w));
          m "latency_p99_us" "us" (over_windows p (fun w -> percentile w.w_lats 0.99 /. wall w));
          m "cpu_us_per_call" "us"
            (over_windows p (fun w -> w.w_cpu_s *. 1e6 /. float_of_int (max 1 w.w_calls) /. cpu w));
        ]
      in
      let metrics =
        timings true
        @ [
            m "wire_bytes_per_call" "bytes" (per_call p (wire_bytes p));
            m "peak_heap_mb" "MB" (float_of_int (p.peak_heap_words * (Sys.word_size / 8)) /. 1048576.);
          ]
      in
      let min_samples = List.fold_left (fun acc w -> min acc (Array.length w.w_lats)) max_int p.windows in
      let summary =
        Printf.sprintf
          "%s seed=%d: %d calls in %.3f s; timings are interquartile means over %d windows of %.2f s, each with at \
           least %d latency samples (%d beyond its p99); peak heap read after %d calls; %d failed, error_rate=%.6f"
          wl.W.name seed (calls p) p.wall_s (List.length p.windows) window_s min_samples (min_samples / 100)
          p.peak_heap_at t.W.bad
          (float_of_int t.W.bad /. float_of_int (max 1 t.W.attempted))
      in
      (* [p] holds the measured world, heap and all, and is not used from
         here on, so the collections below do not mark it again. *)
      let setups_raw = ref [ p.setup_s ] and setups_adj = ref [ p.setup_s /. first_slow.Hostref.wall ] in
      let problems = ref p.problems in
      while !problems = [] && List.length !setups_raw < setups do
        Gc.full_major ();
        let slow = bursts_for host setup_gap_s in
        match run_world wl ~seed ~traced:false ~measure:None with
        | Error ps -> problems := ps
        | Ok q ->
            setups_raw := q.setup_s :: !setups_raw;
            setups_adj := (q.setup_s /. slow.Hostref.wall) :: !setups_adj;
            problems := q.problems
      done;
      Printf.printf "%s; setup_s is the median of %d set-ups\n" summary (List.length !setups_raw);
      Printf.printf "host slowdown (median over slices): wall %.3f, cpu %.3f; as measured, before dividing by it:\n"
        (median (List.map (fun w -> w.w_slow.Hostref.wall) p.windows))
        (median (List.map (fun w -> w.w_slow.Hostref.cpu) p.windows));
      print_metrics (timings false @ [ m "setup_s" "s" (median !setups_raw) ]);
      Printf.printf "adjusted for the host's slowdown:\n";
      (!problems, Some t, metrics @ [ m "setup_s" "s" (median !setups_adj) ])

let traced_ledger (wl : W.t) ~seed ~seconds =
  let half = seconds /. 2. in
  match run_world wl ~seed ~traced:false ~measure:(Some half) with
  | Error ps -> (ps, None, [])
  | Ok rf when rf.problems <> [] -> (rf.problems, Some rf.tally, [])
  | Ok rf -> (
      match run_world wl ~seed ~traced:true ~measure:(Some half) with
      | Error ps -> (ps, None, [])
      | Ok tp ->
          let problems = ref tp.problems in
          let n = float_of_int (max 1 (calls tp)) in
          let agg = Ledger.agg in
          let mean_self name = let a = agg name in if a.Ledger.n = 0 then 0. else a.Ledger.self /. float_of_int a.Ledger.n in
          let ns name = 1e3 *. mean_self name in
          let decoded =
            match Replay.decode_all (List.rev !Ledger.captured) with
            | Ok d -> d
            | Error e ->
                problems := ("frame replay: " ^ e) :: !problems;
                []
          in
          let r = Replay.summarise decoded in
          let waits = Replay.dispatch_waits decoded ~call_id:tp.parts.W.call_id in
          let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
          let submit = agg Ledger.Submit in
          let cpu_traced = per_call tp (tp.cpu_s *. 1e6) and cpu_ref = per_call rf (rf.cpu_s *. 1e6) in
          let attributed = List.fold_left (fun acc nm -> acc +. (agg nm).Ledger.self) 0. Ledger.all_names /. n in
          (* Wrapper fidelity: the same calls must move the same traffic. *)
          let ff, fb = tp.fid and rff, rfb = rf.fid in
          if wl.W.name = "rpc_small" && (ff, fb) <> (rff, rfb) then
            problems :=
              Printf.sprintf "wrapper fidelity: traced pass moved %d frames / %d bytes over %d calls, untraced %d / %d"
                ff fb fid_calls rff rfb
              :: !problems;
          let metrics =
            [
              m "transport.frames_per_call" "frames" (per_call tp (float_of_int tp.frames));
              m "transport.send_us_per_frame" "us" (mean_self Ledger.Transport_send);
              m "transport.frame_bytes_mean" "bytes" (ratio tp.bytes tp.frames);
              m "transport.conns_opened" "count" (float_of_int tp.conns_opened);
              m "transport.conns_lost" "count" (float_of_int tp.conns_lost);
              m "chanhub.recv_self_us_per_frame" "us" (mean_self Ledger.Chanhub_recv);
              m "chanhub.calls_per_data_frame" "calls/frame" (ratio r.Replay.calls r.Replay.call_frames);
              m "chanhub.ack_frame_share" "ratio" (ratio r.Replay.acks r.Replay.frames);
              m "chanhub.decode_ns_per_frame" "ns" r.Replay.decode_ns;
              m "chanhub.encode_ns_per_frame" "ns" r.Replay.encode_ns;
              m "chanhub.dict_ref_share" "ratio" (ratio r.Replay.dict_refs r.Replay.strings);
              m "chanhub.retransmits" "count" (float_of_int (counter tp "chan_retransmits"));
              m "xdr.arg_encode_ns" "ns" (ns Ledger.Arg_encode);
              m "xdr.arg_decode_ns" "ns" (ns Ledger.Arg_decode);
              m "xdr.res_encode_ns" "ns" (ns Ledger.Res_encode);
              m "xdr.res_decode_ns" "ns" (ns Ledger.Res_decode);
              m "xdr.view_scan_ns_per_item" "ns" r.Replay.view_ns;
              m "guardian.handler_us" "us" (mean_self Ledger.Handler);
              m "target.dispatch_wait_us" "us" (median waits |> fun x -> if Float.is_nan x then 0. else x);
              m "target.lane_hwm" "count" (float_of_int (counter tp "shard_queue_hwm"));
              m "target.sheds" "count" (float_of_int (counter tp "target_sheds"));
              m "remote.submit_us" "us"
                (if submit.Ledger.n = submit.Ledger.blocked then 0.
                 else submit.Ledger.unblocked_self /. float_of_int (submit.Ledger.n - submit.Ledger.blocked));
              m "remote.submit_blocked_share" "ratio" (ratio submit.Ledger.blocked submit.Ledger.n);
              m "promise.wake_us" "us" (if !Ledger.wake_n = 0 then 0. else !Ledger.wake_total /. float_of_int !Ledger.wake_n);
              m "promise.blocked_claim_share" "ratio" (ratio !Ledger.blocked_claims !Ledger.claims);
              m "pipeline.handoff_forwards_per_call" "count" (per_call tp (float_of_int (counter tp "handoff_forwards")));
              m "pipeline.handoff_fallbacks" "count" (float_of_int (counter tp "handoff_fallbacks"));
              m "pipeline.parked_calls_per_call" "count" (per_call tp (float_of_int (counter tp "parked_calls")));
              m "pipeline.frames_per_call" "frames"
                (float_of_int r.Replay.handoff_frames /. float_of_int (max 1 r.Replay.frames)
                *. per_call tp (float_of_int tp.frames));
              m "gc.minor_words_per_call" "words" (per_call rf rf.minor_words);
              m "gc.major_words_per_call" "words" (per_call rf rf.major_words);
              m "gc.major_collections_per_kcall" "count" (1e3 *. per_call rf (float_of_int rf.major_collections));
              m "sched.unattributed_us_per_call" "us" (cpu_traced -. attributed);
              m "trace_overhead" "ratio" (cpu_traced /. cpu_ref);
              m "trace.cpu_us_per_call" "us" cpu_traced;
              m "trace.fidelity_frames_ratio" "ratio" (ratio ff rff);
              m "trace.fidelity_bytes_ratio" "ratio" (ratio fb rfb);
            ]
          in
          Printf.printf "%s seed=%d traced: %d calls, %d frames captured, %d spans kept\n" wl.W.name seed (calls tp)
            (List.length (Replay.measured decoded)) !Ledger.raw_n;
          Printf.printf "  cpu accounting per call (traced pass, us):\n";
          List.iter
            (fun nm -> Printf.printf "    %-24s self %10.3f\n" (Ledger.name_string nm) ((agg nm).Ledger.self /. n))
            Ledger.all_names;
          Printf.printf "    %-24s      %10.3f\n    %-24s      %10.3f\n" "sched.unattributed" (cpu_traced -. attributed)
            "= cpu_us_per_call" cpu_traced;
          (try
             if not (Sys.file_exists "perfbench/traces") then Sys.mkdir "perfbench/traces" 0o755;
             Ledger.write_spans (Printf.sprintf "perfbench/traces/%s-seed%d.tsv" wl.W.name seed)
           with Sys_error e -> Printf.printf "  (spans not written: %s)\n" e);
          (List.rev !problems, Some tp.tally, metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME rpc_small | stream_batch | handoff_delegate");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer ledger (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench/main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let wl =
    match List.find_opt (fun w -> w.W.name = !workload) W.all with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  let problems, tally, metrics =
    if !trace = 0 then begin
      let host = Hostref.create () in
      Fun.protect ~finally:(fun () -> Hostref.close host) (fun () -> end_to_end host wl ~seed:!seed ~seconds:!seconds)
    end
    else traced_ledger wl ~seed:!seed ~seconds:!seconds
  in
  print_metrics metrics;
  let problems =
    problems
    @ List.filter_map
        (fun x -> if Float.is_finite x.m_value then None else Some (x.m_name ^ " is not a finite number"))
        metrics
  in
  List.iter (fun p -> Printf.printf "FAILED CHECK: %s\n" p) problems;
  let attempted, failed =
    match tally with Some t -> (t.W.attempted, t.W.bad) | None -> (0, 0)
  in
  let correct = problems = [] && tally <> None in
  json_result ~correct ~attempted:(max 1 attempted) ~failed metrics;
  exit (if correct then 0 else 1)
