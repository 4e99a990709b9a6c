(* Experiment E6: what happens when a stream breaks mid-composition
   (§2, §4.1, §4.2).

   The grades pipeline runs while the database node crashes partway
   through. The fork-structured program (Figure 4-1) hangs: the
   printing process waits forever on the promise queue — our runtime
   detects the deadlock. The coenter-structured program (Figure 4-2)
   terminates the whole group and surfaces the exception; we measure
   how long cleanup takes after the break is detected. *)

module S = Sched.Scheduler
module CH = Cstream.Chanhub
module R = Core.Remote
module P = Core.Promise

(* Fast break detection so the break lands mid-production. *)
let stream_cfg =
  {
    CH.default_config with
    CH.max_batch = 4;
    flush_interval = 0.5e-3;
    retransmit_timeout = 2e-3;
    max_retries = 3;
  }

type result_row = { variant : string; outcome : string; cleanup : string }

(* Crash the db node at [crash_at] seconds into the run. *)
let run_variant ~variant ~n ~crash_at =
  let svc = 0.5e-3 in
  let w =
    Fixtures.make_grades_world ~db_service:svc ~print_service:svc
      ~group_config:Cstream.Group_config.(default |> with_reply_config stream_cfg)
      ()
  in
  let students = Fixtures.students n in
  S.at w.Fixtures.g_sched crash_at (fun () -> Net.crash w.Fixtures.g_net w.Fixtures.g_db_node);
  let break_seen = ref nan in
  let record_break record_grade =
    Cstream.Stream_end.on_break (R.stream record_grade) (fun _ ->
        break_seen := S.now w.Fixtures.g_sched)
  in
  let produce record_grade emit =
    List.iter
      (fun (stu, g) ->
        S.sleep w.Fixtures.g_sched 0.2e-3;
        emit (stu, R.stream_call record_grade (stu, g)))
      students;
    R.flush record_grade;
    match R.synch record_grade with
    | Ok () -> ()
    | Error _ -> failwith "cannot_record"
  in
  let consume print (stu, avg_p) =
    match P.claim avg_p with
    | P.Normal avg -> R.Call.(detach (make print (Printf.sprintf "%s: %.1f" stu avg)))
    | P.Signal _ | P.Unavailable _ | P.Failure _ -> failwith "cannot_record"
  in
  match variant with
  | `Coenter -> (
      let outcome = ref "completed (unexpected)" in
      let finished_at = ref nan in
      match
        Fixtures.timed_run w.Fixtures.g_sched (fun () ->
            let record_grade = Fixtures.db_handle w ~config:stream_cfg ~agent:"c-db" () in
            let print = Fixtures.print_handle w ~config:stream_cfg ~agent:"c-pr" () in
            record_break record_grade;
            (try
               Core.Compose.producer_consumer w.Fixtures.g_sched
                 ~produce:(produce record_grade) ~consume:(consume print) ()
             with Failure m | P.Unavailable_exn m ->
               outcome := "exception: " ^ m);
            finished_at := S.now w.Fixtures.g_sched)
      with
      | _t ->
          {
            variant = "coenter (fig 4-2)";
            outcome = !outcome;
            cleanup =
              (if Float.is_nan !break_seen then "-"
               else Table.cell_ms (!finished_at -. !break_seen));
          }
      | exception Fixtures.Deadlock _ ->
          { variant = "coenter (fig 4-2)"; outcome = "DEADLOCK (unexpected)"; cleanup = "-" })
  | `Fork -> (
      match
        Fixtures.timed_run w.Fixtures.g_sched (fun () ->
            let record_grade = Fixtures.db_handle w ~config:stream_cfg ~agent:"c-db" () in
            let print = Fixtures.print_handle w ~config:stream_cfg ~agent:"c-pr" () in
            record_break record_grade;
            let aveq = Sched.Bqueue.create w.Fixtures.g_sched in
            let p1 =
              Core.Fork.fork w.Fixtures.g_sched ~name:"use_db" (fun () ->
                  try
                    produce record_grade (fun x -> Sched.Bqueue.enq aveq x);
                    Ok ()
                  with Failure _ | P.Unavailable_exn _ | P.Failure_exn _ ->
                    Error `Cannot_record)
            in
            let p2 =
              Core.Fork.fork w.Fixtures.g_sched ~name:"do_print" (fun () ->
                  (* A tolerant printer: prints whatever it can get,
                     and expects one queue item per student — so when
                     the recording process gives up early, it parks on
                     the empty queue forever (§4.1). *)
                  List.iter
                    (fun _ ->
                      let stu, avg_p = Sched.Bqueue.deq aveq in
                      let avg =
                        match P.claim avg_p with
                        | P.Normal avg -> avg
                        | P.Signal _ | P.Unavailable _ | P.Failure _ -> nan
                      in
                      R.Call.(detach (make print (Printf.sprintf "%s: %.1f" stu avg))))
                    students;
                  Ok ())
            in
            ignore (P.claim p1 : (unit, _) P.outcome);
            ignore (P.claim p2 : (unit, _) P.outcome))
      with
      | _t -> { variant = "forks (fig 4-1)"; outcome = "completed (unexpected)"; cleanup = "-" }
      | exception Fixtures.Deadlock names ->
          {
            variant = "forks (fig 4-1)";
            outcome =
              Printf.sprintf "HANGS: %s blocked forever"
                (String.concat ", "
                   (List.filter (fun n -> n = "do_print" || n = "use_db") names));
            cleanup = "never";
          })

let e6 ?(n = 100) ?(crash_at = 8e-3) () =
  let rows =
    List.map
      (fun variant ->
        let r = run_variant ~variant ~n ~crash_at in
        [ r.variant; r.outcome; r.cleanup ])
      [ `Fork; `Coenter ]
  in
  Table.make ~id:"E6"
    ~title:
      (Printf.sprintf "grades pipeline with db crash at %.0f ms (%d students)" (crash_at *. 1e3)
         n)
    ~header:[ "structure"; "outcome"; "cleanup after break" ]
    ~notes:
      [
        "paper claims: broken streams surface as unavailable/failure exceptions (§2); the \
         fork composition can hang forever (§4.1); the coenter terminates the group and \
         propagates the exception (§4.2)";
      ]
    rows
