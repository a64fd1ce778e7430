(** Two clocks.

    Wall time is CLOCK_MONOTONIC through bechamel's stub.  It bounds how
    long a run lasts, and times spans and work that may use more than
    one core: native operations and the model checker.

    Set-up and the sequential simulated work are timed in the process's
    CPU time (user plus system, from getrusage, microsecond resolution).
    The benchmark runs on virtual CPUs of a shared host, where the
    hypervisor takes the CPU away for stretches (steal time); the kernel
    leaves stolen time out of a process's CPU time, so it counts only
    the program's own work. *)

let now_ns () = Monotonic_clock.now ()
let ns_between t0 t1 = Int64.to_int (Int64.sub t1 t0)
let s_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9

(** [wall f] is [(f (), wall seconds it took)]. *)
let wall f =
  let t0 = now_ns () in
  let r = f () in
  (r, s_between t0 (now_ns ()))

(** CPU seconds used by the process so far, every domain included. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(** [cpu f] is [(f (), CPU seconds it took)]. *)
let cpu f =
  let t0 = cpu_s () in
  let r = f () in
  (r, cpu_s () -. t0)

(** [timed_setup f] compacts the heap first, so one set-up does not pay
    for the garbage of the previous one, then times [f] in CPU time. *)
let timed_setup f =
  Gc.compact ();
  cpu f
