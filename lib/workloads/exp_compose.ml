(* Experiments E3 and E4: stream composition (§4).

   E3 — the grades pipeline: Figure 3-1 (two sequential loops) vs
   Figure 4-2 (coenter with a promise queue). The win comes from
   overlapping the production of inputs with recording and printing.

   E4 — a three-level read/compute/write cascade: staged loops vs
   process-per-stream vs process-per-item, on 1 and 4 CPUs, with cheap
   and expensive filters (§4.3's discussion). *)

module S = Sched.Scheduler
module CH = Cstream.Chanhub
module R = Core.Remote
module P = Core.Promise

let stream_cfg = { CH.default_config with CH.max_batch = 8; flush_interval = 1e-3 }

(* --- E3 ----------------------------------------------------------- *)

(* [produce_cost] models reading the next student record from local
   storage — the incremental "elements" iterator of Figure 3-1. *)

let grades_fig31 ~n ~svc ~produce_cost =
  let w =
    Fixtures.make_grades_world ~db_service:svc ~print_service:svc
      ~group_config:Cstream.Group_config.(default |> with_reply_config stream_cfg)
      ()
  in
  let students = Fixtures.students n in
  let time =
    Fixtures.timed_run w.Fixtures.g_sched (fun () ->
        let record_grade = Fixtures.db_handle w ~config:stream_cfg ~agent:"c-db" () in
        let print = Fixtures.print_handle w ~config:stream_cfg ~agent:"c-pr" () in
        (* loop 1: produce each record, stream record_grade, keep promise *)
        let averages =
          List.map
            (fun s ->
              S.sleep w.Fixtures.g_sched produce_cost;
              R.stream_call record_grade s)
            students
        in
        R.flush record_grade;
        (* loop 2: claim in order, stream print *)
        List.iter2
          (fun (stu, _) avg_p ->
            match P.claim avg_p with
            | P.Normal avg -> R.Call.(detach (make print (Printf.sprintf "%s: %.1f" stu avg)))
            | P.Signal _ | P.Unavailable _ | P.Failure _ -> failwith "record failed")
          students averages;
        match R.synch print with Ok () -> () | Error _ -> failwith "print failed")
  in
  (time, List.length !(w.Fixtures.g_printed))

let grades_fig42 ~n ~svc ~produce_cost =
  let w =
    Fixtures.make_grades_world ~db_service:svc ~print_service:svc
      ~group_config:Cstream.Group_config.(default |> with_reply_config stream_cfg)
      ()
  in
  let students = Fixtures.students n in
  let time =
    Fixtures.timed_run w.Fixtures.g_sched (fun () ->
        let record_grade = Fixtures.db_handle w ~config:stream_cfg ~agent:"c-db" () in
        let print = Fixtures.print_handle w ~config:stream_cfg ~agent:"c-pr" () in
        Core.Compose.producer_consumer w.Fixtures.g_sched
          ~produce:(fun emit ->
            List.iter
              (fun (stu, g) ->
                S.sleep w.Fixtures.g_sched produce_cost;
                emit (stu, R.stream_call record_grade (stu, g)))
              students;
            R.flush record_grade;
            match R.synch record_grade with
            | Ok () -> ()
            | Error _ -> failwith "cannot_record")
          ~consume:(fun (stu, avg_p) ->
            match P.claim avg_p with
            | P.Normal avg -> R.Call.(detach (make print (Printf.sprintf "%s: %.1f" stu avg)))
            | P.Signal _ | P.Unavailable _ | P.Failure _ -> failwith "record failed")
          ();
        match R.synch print with Ok () -> () | Error _ -> failwith "print failed")
  in
  (time, List.length !(w.Fixtures.g_printed))

let e3 ?(svc = 0.3e-3) ?(produce_cost = 0.3e-3) () =
  let rows =
    List.concat_map
      (fun n ->
        let t31, printed31 = grades_fig31 ~n ~svc ~produce_cost in
        let t42, printed42 = grades_fig42 ~n ~svc ~produce_cost in
        assert (printed31 = n && printed42 = n);
        [
          [
            Table.cell_i n;
            Table.cell_ms t31;
            Table.cell_ms t42;
            Printf.sprintf "%.2fx" (t31 /. t42);
          ];
        ])
      [ 10; 100; 500 ]
  in
  Table.make ~id:"E3"
    ~title:
      (Printf.sprintf
         "grades pipeline: Figure 3-1 (sequential loops) vs Figure 4-2 (coenter); services %.1f \
          ms, record production %.1f ms"
         (svc *. 1e3) (produce_cost *. 1e3))
    ~header:[ "students"; "fig 3-1"; "fig 4-2"; "speedup" ]
    ~notes:
      [
        "paper claim (§4): running the loops concurrently overlaps recording with printing; \
         \"this overlapping becomes more important as the number of calls increases\"";
      ]
    rows

(* --- E4 ----------------------------------------------------------- *)

(* Three servers: read () -> int, compute int -> int, write int -> (). *)
type cascade_world = {
  cw_sched : S.t;
  cw_read : (int, int, Core.Sigs.nothing) R.h;
  cw_compute : (int, int, Core.Sigs.nothing) R.h;
  cw_write : (int, unit, Core.Sigs.nothing) R.h;
  cw_cpu : Cpu.t;
  cw_written : int ref;
}

let read_sig = Core.Sigs.hsig0 "read" ~arg:Xdr.int ~res:Xdr.int

let compute_sig = Core.Sigs.hsig0 "compute" ~arg:Xdr.int ~res:Xdr.int

let write_sig = Core.Sigs.hsig0 "write" ~arg:Xdr.int ~res:Xdr.unit

let make_cascade ?group_config ~svc ~cores () =
  let gc = Option.value group_config ~default:Cstream.Group_config.default in
  let sched = S.create () in
  let net = Net.create sched Net.default_config in
  let client = Net.add_node net ~name:"client" in
  let client_hub = CH.create_hub ~net:(net, client) () in
  let mk_server name =
    let node = Net.add_node net ~name in
    let hub = CH.create_hub ~net:(net, node) () in
    (node, Argus.Guardian.create hub ~name)
  in
  let rnode, reader = mk_server "reader" in
  let cnode, computer = mk_server "computer" in
  let wnode, writer = mk_server "writer" in
  let written = ref 0 in
  Argus.Guardian.register_group reader ~group:"io" ~config:gc ();
  Argus.Guardian.register_group computer ~group:"calc" ~config:gc ();
  Argus.Guardian.register_group writer ~group:"io" ~config:gc ();
  Argus.Guardian.register reader ~group:"io" read_sig (fun ctx i ->
      S.sleep ctx.Argus.Guardian.sched svc;
      Ok (i * 3));
  Argus.Guardian.register computer ~group:"calc" compute_sig (fun ctx a ->
      S.sleep ctx.Argus.Guardian.sched svc;
      Ok (a + 1));
  Argus.Guardian.register writer ~group:"io" write_sig (fun ctx _ ->
      S.sleep ctx.Argus.Guardian.sched svc;
      incr written;
      Ok ());
  let bind gid node s ag =
    let agent = Core.Agent.create client_hub ~name:ag ~config:stream_cfg () in
    R.bind agent ~dst:(Net.address node) ~gid s
  in
  {
    cw_sched = sched;
    cw_read = bind "io" rnode read_sig "a-read";
    cw_compute = bind "calc" cnode compute_sig "a-compute";
    cw_write = bind "io" wnode write_sig "a-write";
    cw_cpu = Cpu.create sched ~cores;
    cw_written = written;
  }

let claim_int p =
  match P.claim p with
  | P.Normal v -> v
  | P.Signal _ | P.Unavailable _ | P.Failure _ -> failwith "cascade call failed"

(* Staged loops: all reads started, then claim+filter+compute for all,
   then claim+filter+write for all (the structure §4 criticises). *)
let cascade_staged cw ~n ~filter_cost =
  let filter x =
    Cpu.consume cw.cw_cpu filter_cost;
    x
  in
  let reads = List.init n (fun i -> R.stream_call cw.cw_read i) in
  R.flush cw.cw_read;
  let computes = List.map (fun p -> R.stream_call cw.cw_compute (filter (claim_int p))) reads in
  R.flush cw.cw_compute;
  let writes = List.map (fun p -> R.stream_call cw.cw_write (filter (claim_int p))) computes in
  R.flush cw.cw_write;
  List.iter (fun p -> match P.claim p with P.Normal () -> () | _ -> failwith "write failed") writes

(* Process-per-stream: three concurrent loops joined by queues. *)
let cascade_per_stream cw ~n ~filter_cost =
  let filter x =
    Cpu.consume cw.cw_cpu filter_cost;
    x
  in
  Core.Compose.pipeline3 cw.cw_sched
    ~stage1:(fun emit ->
      for i = 0 to n - 1 do
        emit (R.stream_call cw.cw_read i)
      done;
      R.flush cw.cw_read;
      match R.synch cw.cw_read with Ok () -> () | Error _ -> failwith "read failed")
    ~stage2:(fun read_p emit ->
      emit (R.stream_call cw.cw_compute (filter (claim_int read_p))))
    ~stage3:(fun compute_p ->
      ignore (R.stream_call cw.cw_write (filter (claim_int compute_p)) : (unit, _) P.t))
    ();
  match R.synch cw.cw_write with Ok () -> () | Error _ -> failwith "write failed"

(* Process-per-item: one process moves each item through the cascade;
   sequencers keep per-stream call order; [proc_overhead] models the
   management burden of the many processes (§4.3). *)
let cascade_per_item cw ~n ~filter_cost ~proc_overhead =
  let filter x =
    Cpu.consume cw.cw_cpu filter_cost;
    x
  in
  Core.Compose.per_item cw.cw_sched
    ~items:(List.init n Fun.id)
    ~nstages:3
    ~stages:(fun item i seqs ->
      Cpu.consume cw.cw_cpu proc_overhead;
      let read_p = Core.Sequencer.with_turn seqs.(0) i (fun () -> R.stream_call cw.cw_read item) in
      let a = filter (claim_int read_p) in
      let compute_p =
        Core.Sequencer.with_turn seqs.(1) i (fun () -> R.stream_call cw.cw_compute a)
      in
      let b = filter (claim_int compute_p) in
      let write_p = Core.Sequencer.with_turn seqs.(2) i (fun () -> R.stream_call cw.cw_write b) in
      match P.claim write_p with P.Normal () -> () | _ -> failwith "write failed");
  ()

let e4 ?(n = 100) ?(svc = 0.2e-3) ?(proc_overhead = 0.05e-3) () =
  let variants =
    [
      ("staged loops", fun cw ~filter_cost -> cascade_staged cw ~n ~filter_cost);
      ("per-stream", fun cw ~filter_cost -> cascade_per_stream cw ~n ~filter_cost);
      ("per-item", fun cw ~filter_cost -> cascade_per_item cw ~n ~filter_cost ~proc_overhead);
    ]
  in
  let rows = ref [] in
  List.iter
    (fun filter_cost ->
      List.iter
        (fun cores ->
          List.iter
            (fun (vname, run) ->
              let cw = make_cascade ~svc ~cores () in
              let time = Fixtures.timed_run cw.cw_sched (fun () -> run cw ~filter_cost) in
              assert (!(cw.cw_written) = n);
              rows :=
                [
                  Printf.sprintf "%.1f" (filter_cost *. 1e3);
                  Table.cell_i cores;
                  vname;
                  Table.cell_ms time;
                ]
                :: !rows)
            variants)
        [ 1; 4 ])
    [ 0.0; 0.5e-3 ];
  Table.make ~id:"E4"
    ~title:
      (Printf.sprintf
         "read/compute/write cascade, %d items, %.1f ms services, %.2f ms per-item process \
          overhead"
         n (svc *. 1e3) (proc_overhead *. 1e3))
    ~header:[ "filter (ms)"; "CPUs"; "structure"; "completion" ]
    ~notes:
      [
        "paper claim (§4.3): per-stream beats staged loops by overlapping the levels; \
         process-per-item only pays off when filters are lengthy and the machine is a \
         multiprocessor, otherwise its process burden makes it slower";
      ]
    (List.rev !rows)
