(** Workload [sim-persist-modes]: the paper's Section 4 pair workload on
    the deterministic simulated machine, one point per persist mode.

    Every point builds a fresh heap, seeds the queue with 16 nodes (line
    size 1, as [bench regress]) and runs closed-loop enqueue/dequeue
    pairs for a fixed modelled horizon through [Sim_throughput.run].
    The workers are the benchmark's own: they log every value they put
    in or took out, and the modelled latency of every operation, so the
    point ends with a conservation check of the queue's content. *)

open Dssq_pmem
module Q = Dssq_core.Queue_intf
module Counters = Dssq_memory.Memory_intf.Counters
module Killed = struct
  exception E = Dssq_sim.Machine.Killed
end

type config = {
  cname : string;
  mk : string;
  nthreads : int;
  det : bool;
  coalesce : bool;
  combine : bool;
}

let cfg ?(mk = "dss-queue") ?(det = true) ?(coalesce = false)
    ?(combine = false) cname nthreads =
  { cname; mk; nthreads; det; coalesce; combine }

let configs =
  [
    cfg "eager-det-t1" 1;
    cfg "eager-det-t8" 8;
    cfg "eager-nondet-t8" 8 ~det:false;
    cfg "co-det-t1" 1 ~coalesce:true;
    cfg "co-det-t8" 8 ~coalesce:true;
    cfg "fc-eager-t8" 8 ~mk:"dss-fc";
    cfg "fc-combine-t8" 8 ~mk:"dss-fc" ~combine:true;
  ]

let init_nodes = 16
let batch = 8
let horizon_ns = 300_000.

(** A distinct value per (seed, thread, operation index). *)
let value ~seed ~tid i = ((1 + (seed land 0x3ff)) lsl 44) + (tid lsl 32) + i

(** A seed for point [k] of a run seeded with [seed]. *)
let derive seed k = Hashtbl.seeded_hash (seed * 7919) k land 0x3fffffff

(** Modelled cost of a memory-event count, every event charged at
    [Sim_throughput.default_costs] one after another — how
    [recovery_latency] charges its simulated points. *)
let model_ns (e : Dssq_memory.Memory_intf.counters) =
  let c = Dssq_workload.Sim_throughput.default_costs in
  (c.read_ns *. float_of_int e.reads)
  +. (c.write_ns *. float_of_int e.writes)
  +. (c.cas_ns *. float_of_int e.cases)
  +. (c.flush_ns *. float_of_int e.flushes)
  +. (c.fence_ns *. float_of_int e.fences)

type log = {
  mutable enq : int list;  (** completed enqueues *)
  mutable deq : int list;  (** values dequeued *)
  mutable maybe : int list;  (** enqueues cut off or failed *)
  mutable cut_deqs : int;  (** dequeues cut off or failed *)
  mutable inflight : [ `None | `Enq of int | `Deq ];
  mutable completed : int;
  mutable last_done : float;  (** modelled time the last operation ended *)
  mutable op_failed : int;
}

type point = {
  ops : int;
  attempted : int;
  failed : int;
  setup_s : float;
  model_s : float;
      (** modelled seconds the point's operations took: its operation
          count over the sum of every thread's operations per second of
          its own clock up to its last completed operation *)
  run_cpu_s : float;
  events : Dssq_memory.Memory_intf.counters;
  fc : int * int;  (** combining batches, folded operations *)
  errors : string list;
}

let new_log () =
  {
    enq = [];
    deq = [];
    maybe = [];
    cut_deqs = 0;
    inflight = `None;
    completed = 0;
    last_done = 0.;
    op_failed = 0;
  }

(* One closed-loop client: alternating pairs, detectable or not, with a
   flat-combining epoch closed every [batch] pairs in combine mode.  An
   exception from an operation is counted and the client goes on; the
   machine's own kill at the horizon unwinds it. *)
let worker ~(ops : Q.ops) ~tid ~det ~epoch ~seed ~now ~lat ~log ~errors
    ~trace () =
  let i = ref 0 in
  let guard what f =
    match f () with
    | () -> true
    | exception Killed.E -> raise Killed.E
    | exception e ->
        log.op_failed <- log.op_failed + 1;
        Outcome.Errors.add errors
          (Printf.sprintf "%s: %s" what (Printexc.to_string e));
        false
  in
  let timed name f =
    let t0 = now () in
    let ok = guard name f in
    let t1 = now () in
    if ok then begin
      log.completed <- log.completed + 1;
      log.last_done <- t1;
      Pstats.Samples.add lat (t1 -. t0);
      trace name t0 t1
    end;
    ok
  in
  while true do
    let v = value ~seed ~tid !i in
    log.inflight <- `Enq v;
    let ok =
      timed
        (if det then "d_enqueue" else "enqueue")
        (fun () -> if det then ops.d_enqueue ~tid v else ops.enqueue ~tid v)
    in
    if ok then log.enq <- v :: log.enq else log.maybe <- v :: log.maybe;
    log.inflight <- `Deq;
    let x = ref Q.empty_value in
    let ok =
      timed
        (if det then "d_dequeue" else "dequeue")
        (fun () -> x := if det then ops.d_dequeue ~tid else ops.dequeue ~tid)
    in
    if not ok then log.cut_deqs <- log.cut_deqs + 1
    else if !x <> Q.empty_value then log.deq <- !x :: log.deq;
    log.inflight <- `None;
    (match epoch with
    | Some (k, drain) when (!i + 1) mod k = 0 -> ignore (guard "drain" drain)
    | _ -> ());
    incr i
  done

(* Dequeue everything left, outside the simulated machine. *)
let drain_all (ops : Q.ops) =
  let rec go acc n =
    if n > 1_000_000 then failwith "drain: queue does not empty"
    else
      let x = ops.dequeue ~tid:0 in
      if x = Q.empty_value then acc else go (x :: acc) (n + 1)
  in
  go [] 0

(** Run one point of [c] with simulator seed [seed]: set up (timed,
    after a compaction), run to the horizon, check conservation.
    Modelled per-operation latencies go to [lat]; with a recorder [tr],
    set-up and run get wall spans and every operation a modelled span. *)
let point ?tr ~seed ~req ~lat (c : config) =
  let errors = Outcome.Errors.create () in
  let build () =
    let heap = Heap.create ~line_size:1 ~combine:c.combine () in
    let (module M) = Dssq_sim.Sim.memory ~coalesce:c.coalesce heap in
    let capacity = init_nodes + 8 + (c.nthreads * 192) in
    let ops =
      Dssq_workload.Registry.setup
        (module M)
        ~mk:c.mk ~init_nodes
        (Q.config ~line_size:1 ~coalesce:c.coalesce ~combine:c.combine
           ~nthreads:c.nthreads ~capacity ())
    in
    if c.combine then Heap.drain heap;
    (heap, (module M : Dssq_memory.Memory_intf.S), ops)
  in
  let (heap, (module M : Dssq_memory.Memory_intf.S), ops), setup_s =
    Clock.timed_setup (fun () ->
        Spans.wall tr ~name:"registry.setup" ~req (fun _ -> build ()))
  in
  let epoch = if c.combine then Some (batch, fun () -> M.drain ()) else None in
  let logs = Array.init c.nthreads (fun _ -> new_log ()) in
  let clock = ref (fun (_ : int) -> 0.) in
  let run_sid = ref (-1) in
  let trace =
    match tr with
    | None -> fun _ _ _ -> ()
    | Some t ->
        fun name t0 t1 ->
          ignore
            (Spans.add t ~parent:!run_sid ~name:("queue." ^ name) ~req
               ~clock:Spans.Model t0 t1)
  in
  let threads =
    Array.init c.nthreads (fun tid ->
        worker ~ops ~tid ~det:c.det ~epoch ~seed
          ~now:(fun () -> !clock tid)
          ~lat ~log:logs.(tid) ~errors ~trace)
  in
  let ops_done () = Array.fold_left (fun a l -> a + l.completed) 0 logs in
  let before = Heap.counters heap in
  let (), run_cpu_s =
    Clock.cpu (fun () ->
        Spans.wall tr ~name:"sim_throughput.run" ~req
          ~args:(fun () -> [ ("ops", float_of_int (ops_done ())) ])
          (fun sid ->
            run_sid := sid;
            ignore
              (Dssq_workload.Sim_throughput.run ~seed ~clock ~horizon_ns ~heap
                 ~threads ~ops_done ()
                : float)))
  in
  let events = Counters.diff ~after:(Heap.counters heap) ~before in
  let fc =
    let st = ops.stats () in
    let get k = Option.value ~default:0 (List.assoc_opt k st) in
    (get "combine_batches", get "combine_folded")
  in
  (* Conservation over the point: what the seed and the completed
     enqueues put in must come out once, in a dequeue or the final drain,
     up to what the cut-off operations may have moved. *)
  (match drain_all ops with
  | exception e ->
      Outcome.Errors.add errors ("final drain: " ^ Printexc.to_string e)
  | drained ->
      let cat f = List.concat_map f (Array.to_list logs) in
      let supplied = List.init init_nodes (fun i -> i + 1) @ cat (fun l -> l.enq) in
      let maybe =
        cat (fun l ->
            match l.inflight with `Enq v -> v :: l.maybe | _ -> l.maybe)
      in
      let in_flight_deqs =
        Array.fold_left
          (fun a l -> a + l.cut_deqs + if l.inflight = `Deq then 1 else 0)
          0 logs
      in
      match
        Conserve.with_in_flight ~supplied ~maybe
          ~taken:(drained @ cat (fun l -> l.deq))
          ~in_flight_deqs
      with
      | Ok _ -> ()
      | Error e -> Outcome.Errors.add errors (c.cname ^ ": " ^ e));
  let op_failures = Array.fold_left (fun a l -> a + l.op_failed) 0 logs in
  let rate =
    Array.fold_left
      (fun a l ->
        if l.completed = 0 then a
        else a +. (float_of_int l.completed /. (l.last_done /. 1e9)))
      0. logs
  in
  {
    ops = ops_done ();
    model_s = (if rate > 0. then float_of_int (ops_done ()) /. rate else 0.);
    attempted = ops_done () + op_failures;
    failed = Outcome.Errors.count errors;
    setup_s;
    run_cpu_s;
    events;
    fc;
    errors = Outcome.Errors.list errors;
  }

(** Per-configuration totals over a run. *)
type acc = {
  mutable a_ops : int;
  mutable a_points : int;
  mutable a_events : Dssq_memory.Memory_intf.counters;
  mutable a_fc : int * int;
}

let per_op n ops = if ops = 0 then 0. else float_of_int n /. float_of_int ops

(** Run [reps] points of every configuration, interleaved so that host
    drift touches every configuration alike. *)
let run ?tr ~seed ~reps () =
  let lat = Pstats.Samples.create () in
  let accs =
    List.map
      (fun c ->
        ( c,
          {
            a_ops = 0;
            a_points = 0;
            a_events = Counters.zero;
            a_fc = (0, 0);
          } ))
      configs
  in
  let attempted = ref 0 and failed = ref 0 in
  let errors = Outcome.Errors.create () in
  let cpu = ref 0. and model_s = ref 0. in
  (* per repetition: set-up and run CPU time of one point of every
     configuration *)
  let setups = Array.make reps 0. and sweeps = Array.make reps 0. in
  for r = 0 to reps - 1 do
    List.iteri
      (fun k (c, a) ->
        let req = (r * List.length configs) + k in
        let p = point ?tr ~seed:(derive seed req) ~req ~lat c in
        a.a_ops <- a.a_ops + p.ops;
        a.a_points <- a.a_points + 1;
        a.a_events <- Counters.add a.a_events p.events;
        setups.(r) <- setups.(r) +. p.setup_s;
        a.a_fc <- (fst a.a_fc + fst p.fc, snd a.a_fc + snd p.fc);
        attempted := !attempted + p.attempted;
        failed := !failed + p.failed;
        List.iter (Outcome.Errors.add errors) p.errors;
        sweeps.(r) <- sweeps.(r) +. (p.run_cpu_s *. 1e6);
        cpu := !cpu +. p.run_cpu_s;
        model_s := !model_s +. p.model_s)
      accs
  done;
  let total_ops = List.fold_left (fun s (_, a) -> s + a.a_ops) 0 accs in
  let lat = Pstats.Samples.to_array lat in
  let lat_tail = Outcome.tail_exn ~what:"modelled latency" lat in
  let cpu_tail = Outcome.tail_exn ~what:"CPU time per sweep" sweeps in
  let events_total =
    List.fold_left (fun s (_, a) -> Counters.add s a.a_events) Counters.zero accs
  in
  let n_events (e : Dssq_memory.Memory_intf.counters) =
    e.reads + e.writes + e.cases + e.flushes + e.fences
  in
  let e2e =
    Outcome.
      [
        m "setup_s" "s" (Pstats.median setups);
        m "model_throughput" "1/s" (float_of_int total_ops /. !model_s);
        m "model_latency_p50_us" "us" (Pstats.median lat /. 1e3);
        m "model_latency_p99_us" "us" (lat_tail.value /. 1e3);
      ]
  in
  let timed =
    Outcome.
      [
        m "time.throughput" "1/s" (float_of_int total_ops /. !cpu);
        m "time.latency_p50_us" "us" (Pstats.median sweeps);
        m "time.latency_p99_us" "us" cpu_tail.value;
      ]
  in
  let layers =
    timed
    @ List.concat_map
      (fun (c, a) ->
        let e = a.a_events and n = a.a_ops in
        let sfx s = s ^ "." ^ c.cname in
        Outcome.
          [
            m (sfx "sim.model_mops") "Mops/s"
              (float_of_int n
              /. (float_of_int a.a_points *. horizon_ns /. 1e9)
              /. 1e6);
            m (sfx "pmem.flushes_per_op") "count" (per_op e.flushes n);
            m (sfx "pmem.fences_per_op") "count" (per_op e.fences n);
            m (sfx "pmem.coalesced_per_op") "count" (per_op e.coalesced_flushes n);
            m (sfx "pmem.elided_fences_per_op") "count" (per_op e.elided_fences n);
            m (sfx "core.cas_success_ratio") "ratio"
              (per_op (e.pwrites - e.writes) e.cases);
          ])
      accs
    @ Outcome.
        [
          m "core.fc_ops_per_batch" "count"
            (let _, a = List.find (fun (c, _) -> c.combine) accs in
             per_op (snd a.a_fc) (fst a.a_fc));
          m "sim.events_per_cpu_s" "1/s"
            (float_of_int (n_events events_total) /. !cpu);
        ]
  in
  let module J = Dssq_obs.Json in
  {
    Outcome.attempted = !attempted;
    failed = !failed;
    errors = Outcome.Errors.list errors;
    e2e;
    layers;
    setup_samples = setups;
    info =
      [
        ("points", J.Int (reps * List.length configs));
        ("horizon_ns", J.Float horizon_ns);
        ("ops", J.Int total_ops);
        Outcome.tail_info "time.latency_p99_us" cpu_tail;
        Outcome.tail_info "model_latency_p99_us" lat_tail;
      ];
  }
