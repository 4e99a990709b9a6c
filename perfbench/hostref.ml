(* Host speed, measured beside the workload.

   The host this benchmark runs on is shared. Its speed drifts in
   phases that last from seconds to minutes: on a 2-vCPU VM the same
   build on the same seed ran stream_batch at 48 k calls/s and, minutes
   later, at 26-30 k, with the CPU time per call rising by the same
   share. A run's timings therefore say as much about the host as
   about the program. To take the host out, each run also times two
   fixed reference kernels that use none of this repository's code, in
   short bursts between the slices of its measured window:

   - [mem]: independent random reads over 32 MiB outside the OCaml
     heap (memory latency and bandwidth, the cost behind GC marking and
     cache misses);
   - [net]: 100-byte round trips over a loopback TCP connection of its
     own (the kernel's syscall and loopback path behind every frame).

   A burst's slowdown is the geometric mean, over the two kernels, of
   the time per operation divided by a fixed nominal time per
   operation. Each timing the benchmark reports is divided by the
   slowdown measured around it (throughput multiplied), so it reads as
   the time on a host that runs the kernels at their nominal speed. The
   kernels do not depend on the program under test, so a change that
   makes the program faster moves the reported figures as much as the
   raw ones. The raw figures are printed on the human-readable lines. *)

let now_s () = Ledger.now_us () /. 1e6

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Nominal time per operation: about what the kernels take on a 2-vCPU
   Xeon VM at 2.0 GHz in its fast phases. Any fixed value would do;
   these make the adjusted figures read close to that host's. *)
let mem_nominal_ns = 15.

let net_nominal_us = 6.

(* One kernel's share of a burst. *)
let kernel_s = 0.025

type t = {
  mem : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mutable lcg : int;
  listener : Unix.file_descr;
  a : Unix.file_descr;
  b : Unix.file_descr;
  buf : Bytes.t;
}

type slowdown = { wall : float; cpu : float }

let create () =
  let mem = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (4 lsl 20) in
  for i = 0 to Bigarray.Array1.dim mem - 1 do
    Bigarray.Array1.unsafe_set mem i i
  done;
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 1;
  let a = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect a (Unix.getsockname listener);
  let b, _ = Unix.accept listener in
  Unix.setsockopt a Unix.TCP_NODELAY true;
  Unix.setsockopt b Unix.TCP_NODELAY true;
  { mem; lcg = 1; listener; a; b; buf = Bytes.make 128 'r' }

let close t = List.iter Unix.close [ t.a; t.b; t.listener ]

(* Runs [block] (which does [ops] operations) until [kernel_s] has
   passed; returns wall and CPU seconds per operation. *)
let timed ~ops block =
  let w0 = now_s () and c0 = cpu_now () in
  let n = ref 0 in
  while now_s () -. w0 < kernel_s do
    block ();
    incr n
  done;
  let total = float_of_int (!n * ops) in
  ((now_s () -. w0) /. total, (cpu_now () -. c0) /. total)

let mem_block t () =
  let m = Bigarray.Array1.dim t.mem - 1 and x = ref t.lcg and s = ref 0 in
  for _ = 1 to 1000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    s := !s + Bigarray.Array1.unsafe_get t.mem (!x land m)
  done;
  t.lcg <- !x + (!s land 1)

let net_block t () =
  for _ = 1 to 10 do
    ignore (Unix.write t.a t.buf 0 100 : int);
    ignore (Unix.read t.b t.buf 0 128 : int);
    ignore (Unix.write t.b t.buf 0 100 : int);
    ignore (Unix.read t.a t.buf 0 128 : int)
  done

(* One burst, about [2 * kernel_s] long. *)
let burst t =
  let mw, mc = timed ~ops:1000 (mem_block t) in
  let nw, nc = timed ~ops:10 (net_block t) in
  let slow m n = Float.sqrt (m /. (mem_nominal_ns *. 1e-9) *. (n /. (net_nominal_us *. 1e-6))) in
  { wall = slow mw nw; cpu = slow mc nc }
