(** Workload [crash-restart]: serve, crash, restart, check, serve again.

    A deep [dss-queue] (2^17 live nodes, larger than the CPU caches)
    lives on the simulated heap at line size 8, rooted in a [Recovery]
    system (write-ahead log plus root directory).  Each cycle runs four
    simulated threads of detectable pairs for 500 modelled microseconds,
    crashes the heap with a seeded [Sim.apply_crash] (evict_p 0.5), and
    restarts: [reattach], then [resolve] for every thread.  The client
    then checks every resolve against the operation it had in flight,
    and at the end drains the queue against its own ledger. *)

open Dssq_pmem
module Q = Dssq_core.Queue_intf
module Counters = Dssq_memory.Memory_intf.Counters

let nthreads = 4
let default_nodes = 1 lsl 17
let burst_ns = 500_000.
let evict_p = 0.5
let line_size = 8

(* Spare pool nodes and log slots per thread beyond the seeded ones. *)
let headroom = 4096

type system = {
  heap : Heap.t;
  ops : Q.ops;
  reattach : unit -> Dssq_core.Recovery.report;
  replay : unit -> int;  (** [Wal.replay]; returns the records found *)
}

(** Build the heap, the recovery system and the seeded queue, and take
    a checkpoint (one clean [reattach]) so the seeding's log records do
    not land on the first restart. *)
let build ~init_nodes =
  let heap = Heap.create ~line_size () in
  let (module M) = Dssq_sim.Sim.memory heap in
  let module R = Dssq_workload.Registry.Make (M) in
  let sys =
    R.Sys.create ~nthreads
      ~wal_lane_capacity:((init_nodes / nthreads) + headroom)
      ()
  in
  let ops =
    R.setup ~system:sys ~mk:"dss-queue" ~init_nodes
      (Q.config ~line_size ~nthreads
         ~capacity:(init_nodes + (nthreads * headroom))
         ())
  in
  let cp = R.Sys.reattach sys in
  if cp.leaked_total <> 0 then failwith "set-up checkpoint leaked nodes";
  {
    heap;
    ops;
    reattach = (fun () -> R.Sys.reattach sys);
    replay = (fun () -> List.length (fst (R.Sys.Wal.replay (R.Sys.wal sys))));
  }

type tlog = {
  mutable inflight : [ `None | `Enq of int | `Deq ];
  mutable last : Q.resolved;  (** what [resolve] answers with nothing in flight *)
  mutable enq : int list;
  mutable deq : int list;
  mutable completed : int;
  mutable op_failed : int;
  mutable next : int;  (** operation index, kept across cycles *)
}

let worker ~(ops : Q.ops) ~tid ~seed ~(log : tlog) ~errors () =
  let guard name f =
    match f () with
    | r ->
        log.completed <- log.completed + 1;
        Some r
    | exception Dssq_sim.Machine.Killed -> raise Dssq_sim.Machine.Killed
    | exception e ->
        log.op_failed <- log.op_failed + 1;
        Outcome.Errors.add errors (name ^ ": " ^ Printexc.to_string e);
        None
  in
  while true do
    let v = W_sim.value ~seed ~tid log.next in
    log.next <- log.next + 1;
    log.inflight <- `Enq v;
    (match guard "d_enqueue" (fun () -> ops.d_enqueue ~tid v) with
    | Some () ->
        log.enq <- v :: log.enq;
        log.last <- Q.Enq_done v
    | None -> ());
    log.inflight <- `Deq;
    (match guard "d_dequeue" (fun () -> ops.d_dequeue ~tid) with
    | Some x when x = Q.empty_value -> log.last <- Q.Deq_empty
    | Some x ->
        log.deq <- x :: log.deq;
        log.last <- Q.Deq_done x
    | None -> ());
    log.inflight <- `None
  done

(** Whether [r], read after a crash, agrees with the operation the
    client had in flight: done, pending, or not prepared at all (then
    [resolve] still describes the previous operation). *)
let agrees (log : tlog) (r : Q.resolved) =
  r = log.last
  ||
  match (log.inflight, r) with
  | `Enq v, (Q.Enq_pending w | Q.Enq_done w) -> v = w
  | `Deq, (Q.Deq_pending | Q.Deq_empty | Q.Deq_done _) -> true
  | _ -> false

type cycle = {
  ops_done : int;
  burst_cpu_s : float;
  restart_cpu_s : float;
  restart_model_ns : float;
  reattach_s : float;
  resolve_s : float array;
  replay_s : float;  (** traced runs only *)
  replayed : int;
  recovery : Dssq_memory.Memory_intf.counters;
  dirty : int;
  in_flight : int;
  resolved_done : int;
  leaked : int;
}

let run ?tr ?(init_nodes = default_nodes) ~seed ~cycles () =
  (* Three set-ups, the median reported; each drops the previous
     system first so only one deep heap is alive at a time. *)
  let setup_samples = Array.make 3 0. in
  let sys = ref None in
  for k = 0 to 2 do
    sys := None;
    let s, t =
      Clock.timed_setup (fun () ->
          Spans.wall tr ~name:"setup" ~req:k (fun _ -> build ~init_nodes))
    in
    setup_samples.(k) <- t;
    sys := Some s
  done;
  let setup_s = Pstats.median setup_samples in
  let sys = Option.get !sys in
  let heap = sys.heap and ops = sys.ops in
  let errors = Outcome.Errors.create () in
  let logs =
    Array.init nthreads (fun _ ->
        {
          inflight = `None;
          last = Q.Nothing;
          enq = [];
          deq = [];
          completed = 0;
          op_failed = 0;
          next = 0;
        })
  in
  (* The client's ledger: every value it knows to be in the queue. *)
  let live = Hashtbl.create (2 * init_nodes) in
  for v = 1 to init_nodes do
    Hashtbl.replace live v ()
  done;
  let take x what =
    if Hashtbl.mem live x then Hashtbl.remove live x
    else Outcome.Errors.add errors (Printf.sprintf "%s %d: not in the queue" what x)
  in
  let one c =
    Spans.wall tr ~name:"cycle" ~req:c (fun parent ->
        Array.iter
          (fun l ->
            l.enq <- [];
            l.deq <- [];
            l.completed <- 0)
          logs;
        let threads =
          Array.init nthreads (fun tid ->
              worker ~ops ~tid ~seed ~log:logs.(tid) ~errors)
        in
        let ops_done () = Array.fold_left (fun a l -> a + l.completed) 0 logs in
        let (), burst_cpu_s =
          Clock.cpu (fun () ->
              Spans.wall tr ~parent ~name:"sim_throughput.run" ~req:c (fun _ ->
                  ignore
                    (Dssq_workload.Sim_throughput.run
                       ~seed:(W_sim.derive seed (2 * c))
                       ~horizon_ns:burst_ns ~heap ~threads ~ops_done ()
                      : float)))
        in
        let dirty = Heap.dirty_count heap in
        Spans.wall tr ~parent ~name:"sim.apply_crash" ~req:c (fun _ ->
            Dssq_sim.Sim.apply_crash heap ~evict_p
              ~seed:(W_sim.derive seed ((2 * c) + 1)));
        (* [Wal.replay] is idempotent: the traced run times it on the
           crashed state, outside the restart it is part of. *)
        let replay_s =
          match tr with
          | None -> 0.
          | Some _ ->
              snd
                (Clock.cpu (fun () ->
                     Spans.wall tr ~parent ~name:"wal.replay" ~req:c (fun _ ->
                         ignore (sys.replay () : int))))
        in
        let before = Heap.counters heap in
        let heap_delta () =
          let d = Counters.diff ~after:(Heap.counters heap) ~before in
          [ ("reads", float_of_int d.reads); ("writes", float_of_int d.writes);
            ("flushes", float_of_int d.flushes); ("fences", float_of_int d.fences) ]
        in
        let report, reattach_s =
          Clock.cpu (fun () ->
              Spans.wall tr ~parent ~name:"recovery.reattach" ~req:c
                ~args:heap_delta (fun _ -> sys.reattach ()))
        in
        let resolved = Array.make nthreads Q.Nothing in
        let resolve_s =
          Array.init nthreads (fun tid ->
              snd
                (Clock.cpu (fun () ->
                     Spans.wall tr ~parent ~name:"queue.resolve" ~req:c
                       (fun _ -> resolved.(tid) <- ops.resolve ~tid))))
        in
        let recovery = Counters.diff ~after:(Heap.counters heap) ~before in
        (* The client's check: completed operations first, then what each
           resolve says about the operation cut off by the crash. *)
        let in_flight = ref 0 and resolved_done = ref 0 in
        Spans.wall tr ~parent ~name:"client.check" ~req:c (fun _ ->
            Array.iter
              (fun l -> List.iter (fun v -> Hashtbl.replace live v ()) l.enq)
              logs;
            Array.iter (fun l -> List.iter (fun x -> take x "dequeued") l.deq) logs;
            Array.iteri
              (fun tid l ->
                let r = resolved.(tid) in
                if l.inflight <> `None then incr in_flight;
                if not (agrees l r) then
                  Outcome.Errors.add errors
                    (Format.asprintf "cycle %d thread %d: resolve says %a" c tid
                       Q.pp_resolved r)
                else if r <> l.last then begin
                  match r with
                  | Q.Enq_done v ->
                      incr resolved_done;
                      Hashtbl.replace live v ()
                  | Q.Deq_done x ->
                      incr resolved_done;
                      take x "resolved dequeue"
                  | Q.Deq_empty -> incr resolved_done
                  | _ -> ()
                end;
                l.last <- r;
                l.inflight <- `None)
              logs);
        if report.leaked_total > 0 then
          Outcome.Errors.add errors
            (Printf.sprintf "cycle %d: %d leaked node(s)" c report.leaked_total);
        {
          ops_done = ops_done ();
          burst_cpu_s;
          restart_cpu_s = reattach_s +. Array.fold_left ( +. ) 0. resolve_s;
          restart_model_ns = W_sim.model_ns recovery;
          reattach_s;
          resolve_s;
          replay_s;
          replayed = report.replayed;
          recovery;
          dirty;
          in_flight = !in_flight;
          resolved_done = !resolved_done;
          leaked = report.leaked_total;
        })
  in
  let cs = Array.init cycles one in
  (* Final drain: every value in the ledger comes out exactly once.  The
     dequeues rotate over the threads so each log lane takes its share
     of the free records. *)
  let rec drain n =
    if n > 2 * init_nodes + 1_000_000 then failwith "drain: queue does not empty";
    let x = ops.dequeue ~tid:(n mod nthreads) in
    if x <> Q.empty_value then begin
      take x "drained";
      drain (n + 1)
    end
  in
  (try Spans.wall tr ~name:"final.drain" ~req:0 (fun _ -> drain 0)
   with e -> Outcome.Errors.add errors ("final drain: " ^ Printexc.to_string e));
  if Hashtbl.length live > 0 then
    Outcome.Errors.add errors
      (Printf.sprintf "final drain: %d acknowledged value(s) lost"
         (Hashtbl.length live));
  let col f = Array.map f cs in
  let sumi f = Array.fold_left (fun a c -> a + f c) 0 cs in
  let sumf f = Array.fold_left (fun a c -> a +. f c) 0. cs in
  let med f = Pstats.median (col f) in
  let ops_total = sumi (fun c -> c.ops_done) in
  let restart_ms = col (fun c -> c.restart_cpu_s *. 1e3) in
  let model_ms = col (fun c -> c.restart_model_ns /. 1e6) in
  let restart_tail = Outcome.tail_exn ~what:"restart time" restart_ms in
  let model_tail = Outcome.tail_exn ~what:"modelled restart" model_ms in
  let burst_s = float_of_int cycles *. burst_ns /. 1e9 in
  let e2e =
    Outcome.
      [
        m "setup_s" "s" setup_s;
        m "model_throughput" "1/s"
          (float_of_int ops_total
          /. (burst_s +. (sumf (fun c -> c.restart_model_ns) /. 1e9)));
        m "model_latency_p50_us" "us" (Pstats.median model_ms *. 1e3);
        m "model_latency_p99_us" "us" (model_tail.value *. 1e3);
      ]
  in
  let timed =
    Outcome.
      [
        m "time.throughput" "1/s"
          (float_of_int ops_total
          /. sumf (fun c -> c.burst_cpu_s +. c.restart_cpu_s));
        m "time.latency_p50_us" "us" (Pstats.median restart_ms *. 1e3);
        m "time.latency_p99_us" "us" (restart_tail.value *. 1e3);
      ]
  in
  let per_restart f = float_of_int (sumi f) /. float_of_int cycles in
  let in_flight = sumi (fun c -> c.in_flight) in
  let layers =
    timed
    @ Outcome.
      [
        m "core.reattach_ms_p50" "ms" (med (fun c -> c.reattach_s *. 1e3));
        m "core.resolve_us_p50" "us"
          (Pstats.median
             (Array.concat
                (Array.to_list
                   (col (fun c -> Array.map (fun s -> s *. 1e6) c.resolve_s)))));
        m "pmem.wal_records_replayed" "count" (per_restart (fun c -> c.replayed));
        m "pmem.recovery_reads" "count" (per_restart (fun c -> c.recovery.reads));
        m "pmem.recovery_writes" "count" (per_restart (fun c -> c.recovery.writes));
        m "pmem.recovery_flushes" "count" (per_restart (fun c -> c.recovery.flushes));
        m "pmem.recovery_fences" "count" (per_restart (fun c -> c.recovery.fences));
        m "pmem.dirty_lines_at_crash" "count" (per_restart (fun c -> c.dirty));
        m "sim.burst_model_mops" "Mops/s" (float_of_int ops_total /. burst_s /. 1e6);
        m "core.in_flight_at_crash" "count" (per_restart (fun c -> c.in_flight));
        m "core.resolved_done_ratio" "ratio"
          (float_of_int (sumi (fun c -> c.resolved_done))
          /. float_of_int (max 1 in_flight));
        m "core.leaked_nodes" "count" (float_of_int (sumi (fun c -> c.leaked)));
      ]
    @
    (* only the traced run times [Wal.replay] *)
    if Option.is_none tr then []
    else [ Outcome.m "pmem.wal_replay_ms_p50" "ms" (med (fun c -> c.replay_s *. 1e3)) ]
  in
  let op_failed = Array.fold_left (fun a l -> a + l.op_failed) 0 logs in
  let module J = Dssq_obs.Json in
  {
    Outcome.attempted = ops_total + op_failed;
    failed = Outcome.Errors.count errors;
    errors = Outcome.Errors.list errors;
    e2e;
    layers;
    setup_samples;
    info =
      [
        ("cycles", J.Int cycles);
        ("live_nodes", J.Int init_nodes);
        Outcome.tail_info "time.latency_p99_us" restart_tail;
        Outcome.tail_info "model_latency_p99_us" model_tail;
      ];
  }
