(** Workload [native-pairs]: the pair workload on real OCaml domains.

    Two worker domains run closed-loop enqueue/dequeue pairs on a
    [dss-queue] (100% detectable, eager, line size 1, 16 seeded nodes)
    over the native backend, whose persist cost is a calibrated spin of
    150 ns per flush.  Throughput is the median of fixed windows after a
    warm-up; every operation's wall latency goes into an exact
    histogram.  The modelled metrics come from the workload's modelled
    twin: the same queue, configuration and client on the simulated
    machine. *)

module Native = Dssq_memory.Native
module PC = Dssq_memory.Persist_cost
module Padded = Dssq_memory.Memory_intf.Padded
module Q = Dssq_core.Queue_intf

let nthreads = 2
let flush_ns = 150
let init_nodes = 16
let window_s = 0.5
let warmup_s = 1.0

(* Pairs between two publications of a worker's operation count. *)
let publish_period = 32

(* Every [span_period]-th operation of a traced run gets a span. *)
let span_period = 64

(** Mean CPU cost of one configured flush, as the median of 9 batches
    of 20,000 [pay_flush] calls. *)
let measure_pay_flush () =
  let batch = 20_000 in
  Pstats.median
    (Array.init 9 (fun _ ->
         let (), s =
           Clock.cpu (fun () ->
               for _ = 1 to batch do
                 PC.pay_flush ()
               done)
         in
         s *. 1e9 /. float_of_int batch))

(** [PC.calibrate] times its spin on the wall clock, so a calibration the
    hypervisor interrupted undercounts the spin rate, and every flush of
    the run would spin for less than configured.  Calibrate once, take
    the share of the calibration's wall time the process had the CPU for,
    and configure the charged latencies divided by that share: a flush
    then spins [flush_ns] of CPU time.  Returns the share. *)
let calibrate_unstolen () =
  let t0 = Clock.now_ns () in
  let (), cpu = Clock.cpu PC.calibrate in
  let share = Float.min 1. (cpu /. Clock.s_between t0 (Clock.now_ns ())) in
  let scaled ns = Float.to_int (Float.round (float_of_int ns /. share)) in
  PC.configure ~flush:(scaled flush_ns) ~fence:(scaled (flush_ns / 5)) ();
  share

let config () =
  Q.config ~line_size:1 ~nthreads ~capacity:(init_nodes + 8 + (nthreads * 4096)) ()

type worker_result = {
  done_ : int;
  failed : int;
  enq : Pstats.Ihist.t;
  deq : Pstats.Ihist.t;
  put : Conserve.Fp.t;
  got : Conserve.Fp.t;
  errors : string list;
  spans : Spans.t option;
}

(* phases of a run *)
let warming = 1
let measuring = 2
let stopping = 3

let worker ~(ops : Q.ops) ~phase ~count ~seed ~traced tid () =
  while Atomic.get phase < warming do
    Domain.cpu_relax ()
  done;
  let enq = Pstats.Ihist.create () and deq = Pstats.Ihist.create () in
  let put = Conserve.Fp.create () and got = Conserve.Fp.create () in
  let errors = Outcome.Errors.create () in
  let spans = if traced then Some (Spans.create ~cap:20_000 ()) else None in
  let done_ = ref 0 and i = ref 0 in
  let op name hist f =
    let t0 = Clock.now_ns () in
    let r =
      match f () with
      | r -> Some r
      | exception e ->
          Outcome.Errors.add errors (name ^ ": " ^ Printexc.to_string e);
          None
    in
    let t1 = Clock.now_ns () in
    if r <> None then incr done_;
    if Atomic.get phase = measuring then
      Pstats.Ihist.add hist (Clock.ns_between t0 t1);
    (match spans with
    | Some sp when !i mod span_period = 0 ->
        ignore
          (Spans.add sp ~name ~req:((tid lsl 40) + !i) ~clock:Spans.Wall
             (Int64.to_float t0) (Int64.to_float t1))
    | _ -> ());
    r
  in
  while Atomic.get phase < stopping do
    for _ = 1 to publish_period do
      let v = W_sim.value ~seed ~tid !i in
      (match op "queue.d_enqueue" enq (fun () -> ops.d_enqueue ~tid v) with
      | Some () -> Conserve.Fp.add put v
      | None -> ());
      (match op "queue.d_dequeue" deq (fun () -> ops.d_dequeue ~tid) with
      | Some x when x <> Q.empty_value -> Conserve.Fp.add got x
      | _ -> ());
      incr i
    done;
    Padded.set count !done_
  done;
  {
    done_ = !done_;
    failed = Outcome.Errors.count errors;
    enq;
    deq;
    put;
    got;
    errors = Outcome.Errors.list errors;
    spans;
  }

type run = {
  window_ops : int array;  (** operations completed in each window *)
  window_secs : float array;  (** each window's measured length *)
  pool_free : int list;  (** [pool_free] read at each window's end *)
  results : worker_result array;
}

(* Spawn the workers, warm up, measure [seconds - warmup] in fixed
   windows, stop and join. *)
let run_domains ~(ops : Q.ops) ~seed ~seconds ~traced =
  let phase = Atomic.make 0 in
  let counts = Array.init nthreads (fun _ -> Padded.make 0) in
  let doms =
    Array.init nthreads (fun tid ->
        Domain.spawn (worker ~ops ~phase ~count:counts.(tid) ~seed ~traced tid))
  in
  let total () = Array.fold_left (fun a c -> a + Padded.get c) 0 counts in
  Atomic.set phase warming;
  Unix.sleepf warmup_s;
  Atomic.set phase measuring;
  let nwin = max 2 (int_of_float ((float_of_int seconds -. warmup_s) /. window_s)) in
  let ops_in = Array.make nwin 0 and secs = Array.make nwin 0. in
  let pool_free = ref [] in
  let t = ref (Clock.now_ns ()) and c = ref (total ()) in
  for w = 0 to nwin - 1 do
    Unix.sleepf window_s;
    let t' = Clock.now_ns () and c' = total () in
    ops_in.(w) <- c' - !c;
    secs.(w) <- Clock.s_between !t t';
    t := t';
    c := c';
    pool_free :=
      Option.value ~default:0 (List.assoc_opt "pool_free" (ops.stats ()))
      :: !pool_free
  done;
  Atomic.set phase stopping;
  let results = Array.map Domain.join doms in
  { window_ops = ops_in; window_secs = secs; pool_free = !pool_free; results }

let drain_fp (ops : Q.ops) fp =
  let rec go n =
    if n > 1_000_000 then failwith "drain: queue does not empty";
    let x = ops.dequeue ~tid:0 in
    if x <> Q.empty_value then begin
      Conserve.Fp.add fp x;
      go (n + 1)
    end
  in
  go 0

(** The modelled twin: [reps] points of the same pair workload on the
    simulated machine. *)
let twin ~seed ~reps =
  let lat = Pstats.Samples.create () in
  let c = W_sim.cfg "native-twin" nthreads in
  let ops = ref 0 and secs = ref 0. in
  for r = 0 to reps - 1 do
    let p = W_sim.point ~seed:(W_sim.derive seed (1_000_000 + r)) ~req:r ~lat c in
    if p.failed > 0 then failwith (String.concat "; " ("modelled twin" :: p.errors));
    ops := !ops + p.ops;
    secs := !secs +. p.model_s
  done;
  (float_of_int !ops /. !secs, Pstats.Samples.to_array lat)

let twin_reps = 40

let setup_queue m =
  Dssq_workload.Registry.setup m ~mk:"dss-queue" ~init_nodes (config ())

(* Set-up: calibrate the persist cost and build the seeded queue. *)
let build ?tr k =
  Spans.wall tr ~name:"setup" ~req:k (fun parent ->
      Spans.wall tr ~parent ~name:"persist_cost.calibrate" ~req:k (fun _ ->
          PC.calibrate ();
          PC.configure ~flush:flush_ns ());
      Native.set_line_size 1;
      Spans.wall tr ~parent ~name:"registry.setup" ~req:k (fun _ ->
          setup_queue (module Native)))

(** Conservation: with every worker joined nothing is in flight, so the
    seeded and enqueued values must equal the dequeued and drained ones
    exactly.  Checked only when no operation raised, since a raise leaves
    its value's fate unknown. *)
let conserved (ops : Q.ops) results =
  if Array.exists (fun w -> w.failed > 0) results then Ok ()
  else begin
    let put = Conserve.Fp.create () and got = Conserve.Fp.create () in
    for v = 1 to init_nodes do
      Conserve.Fp.add put v
    done;
    match drain_fp ops got with
    | exception e -> Error ("final drain: " ^ Printexc.to_string e)
    | () ->
        let put, got =
          Array.fold_left
            (fun (p, g) w -> (Conserve.Fp.union p w.put, Conserve.Fp.union g w.got))
            (put, got) results
        in
        Conserve.exact ~put ~got
  end

(* Length of the counted pass of a traced run, warm-up included. *)
let counted_s = 2

(** The counted pass: a fresh queue over [Native.Counted ()], run
    untraced for [counted_s] seconds; its persist events per operation,
    and the pass's results for the failure ledger.  It is separate from
    the timed passes because every counted event bumps a counter that
    both domains share. *)
let counted_pass ?tr ~seed () =
  let module B = Native.Counted () in
  let ops =
    Spans.wall tr ~name:"registry.setup (counted)" ~req:0 (fun _ ->
        setup_queue (module B))
  in
  B.reset_counters ();
  let r =
    Spans.wall tr ~name:"run (counted)" ~req:0 (fun _ ->
        run_domains ~ops ~seed ~seconds:counted_s ~traced:false)
  in
  let e = B.counters () in
  let done_ = Array.fold_left (fun a w -> a + w.done_) 0 r.results in
  let per_op n = float_of_int n /. float_of_int (max 1 done_) in
  ((per_op e.flushes, per_op e.fences), r.results, conserved ops r.results)

let run ?tr ~seed ~seconds () =
  (* Set-up is timed seven times before the run (the last one is used)
     and six times after it, so the reported median spans the run. *)
  let setup k = Clock.timed_setup (fun () -> build ?tr k) in
  let before = List.init 7 setup in
  let ops, _ = List.nth before 6 in
  let cpu_share =
    Spans.wall tr ~name:"persist_cost.calibrate" ~req:7 (fun _ -> calibrate_unstolen ())
  in
  let flush_ns_set = PC.current_flush_ns () in
  let flush_before = measure_pay_flush () in
  let r =
    Spans.wall tr ~name:"run" ~req:0 (fun _ ->
        run_domains ~ops ~seed ~seconds ~traced:(tr <> None))
  in
  let flush_after = measure_pay_flush () in
  let after = List.init 6 (fun k -> setup (7 + k)) in
  let setup_samples = Array.of_list (List.map snd (before @ after)) in
  let setup_s = Pstats.median setup_samples in
  let check = conserved ops r.results in
  let counted =
    match tr with Some _ -> Some (counted_pass ?tr ~seed ()) | None -> None
  in
  let passes =
    (r.results, check)
    :: Option.to_list (Option.map (fun (_, rs, ck) -> (rs, ck)) counted)
  in
  let sum f =
    List.fold_left
      (fun a (rs, _) -> Array.fold_left (fun a w -> a + f w) a rs)
      0 passes
  in
  let op_failed = sum (fun w -> w.failed) in
  let checks_failed =
    List.length (List.filter (fun (_, ck) -> Result.is_error ck) passes)
  in
  let errors =
    List.concat_map
      (fun (rs, ck) ->
        (match ck with Ok () -> [] | Error e -> [ e ])
        @ List.concat_map (fun w -> w.errors) (Array.to_list rs))
      passes
  in
  let hist sel =
    let h = Pstats.Ihist.create () in
    Array.iter (fun w -> Pstats.Ihist.merge_into ~dst:h (sel w)) r.results;
    h
  in
  let enq = hist (fun w -> w.enq) and deq = hist (fun w -> w.deq) in
  let all = hist (fun w -> w.enq) in
  Pstats.Ihist.merge_into ~dst:all deq;
  let tail h what =
    match Pstats.Ihist.tail h with
    | Some t -> t
    | None -> failwith (what ^ ": too few latency samples")
  in
  let lat_tail = tail all "latency" in
  let model_tput, model_lat = twin ~seed ~reps:twin_reps in
  let model_tail = Outcome.tail_exn ~what:"modelled twin latency" model_lat in
  let us ns = ns /. 1e3 in
  let e2e =
    Outcome.
      [
        m "setup_s" "s" setup_s;
        m "model_throughput" "1/s" model_tput;
        m "model_latency_p50_us" "us" (us (Pstats.median model_lat));
        m "model_latency_p99_us" "us" (us model_tail.value);
      ]
  in
  let timed =
    Outcome.
      [
        m "time.throughput" "1/s"
          (Pstats.median_of_windows ~counts:r.window_ops ~seconds:r.window_secs);
        m "time.latency_p50_us" "us" (us (Pstats.Ihist.quantile all 0.5));
        m "time.latency_p99_us" "us" (us lat_tail.value);
      ]
  in
  let layers =
    timed
    @ Outcome.
      [
        m "memory.pay_flush_ns" "ns" ((flush_before +. flush_after) /. 2.);
        m "core.enqueue_p50_us" "us" (us (Pstats.Ihist.quantile enq 0.5));
        m "core.dequeue_p50_us" "us" (us (Pstats.Ihist.quantile deq 0.5));
        m "core.enqueue_p99_us" "us" (us (tail enq "enqueue").value);
        m "core.dequeue_p99_us" "us" (us (tail deq "dequeue").value);
        m "core.pool_free_min" "count"
          (match r.pool_free with
          | [] -> 0.
          | l -> float_of_int (List.fold_left min max_int l));
      ]
    @
    match counted with
    | Some ((flushes, fences), _, _) ->
        Outcome.
          [ m "memory.flushes_per_op" "count" flushes;
            m "memory.fences_per_op" "count" fences ]
    | None -> []
  in
  (match tr with
  | Some t ->
      Array.iter
        (fun w -> Option.iter (fun s -> Spans.absorb ~dst:t s) w.spans)
        r.results
  | None -> ());
  let module J = Dssq_obs.Json in
  {
    Outcome.attempted = sum (fun w -> w.done_) + op_failed;
    failed = op_failed + checks_failed;
    errors;
    e2e;
    layers;
    setup_samples;
    info =
      [
        ("domains", J.Int nthreads);
        ("windows", J.Int (Array.length r.window_ops));
        ("window_s", J.Float window_s);
        ("warmup_s", J.Float warmup_s);
        ("flush_ns_configured", J.Int flush_ns);
        ("flush_ns_set", J.Int flush_ns_set);
        ("calibration_cpu_share", J.Float cpu_share);
        ("flush_ns_measured_before", J.Float flush_before);
        ("flush_ns_measured_after", J.Float flush_after);
        ("twin_points", J.Int twin_reps);
        Outcome.tail_info "time.latency_p99_us" lat_tail;
        Outcome.tail_info "model_latency_p99_us" model_tail;
      ];
  }
