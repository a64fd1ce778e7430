(** Workload [checker-corpus]: a fixed slice of the crash corpus through
    the model checker.

    The slice is every crash case of [Scenarios.cases] at line size 1
    with default bounds, for queue, stack and hashmap under sc, queue
    and stack under px86, and queue, bcounter and deque under combine.
    The benchmark times each case's own [run ~reduction:true], so a
    change to the explorer or the scenarios shows here as it is.  Whole
    sweeps of the slice run until the time is up.

    The model checker has no modelled clock of its own, so the modelled
    metrics come from the workload's modelled twin: each case's program,
    crash-free, on the simulated machine with a seeded schedule, its
    oracle checked at the end. *)

module S = Dssq_checker.Scenarios
module E = Dssq_sim.Explore
module Heap = Dssq_pmem.Heap

type mode = {
  mname : string;
  objects : string list;
  persistency : Heap.Persistency.t;
  combine : bool;
}

let modes =
  [
    { mname = "sc"; objects = [ "queue"; "stack"; "hashmap" ];
      persistency = Heap.Persistency.Sc; combine = false };
    { mname = "px86"; objects = [ "queue"; "stack" ];
      persistency = Heap.Persistency.Px86; combine = false };
    { mname = "fc"; objects = [ "queue"; "bcounter"; "deque" ];
      persistency = Heap.Persistency.Sc; combine = true };
  ]

type case = { mode : mode; case : S.case }

(** The slice, in sweep order, with the explore seed [seed]. *)
let cases ~seed =
  List.concat_map
    (fun mode ->
      List.map
        (fun case -> { mode; case })
        (S.cases ~objects:mode.objects ~crash_modes:[ true ] ~line_sizes:[ 1 ]
           ~persistency:mode.persistency ~combine:mode.combine ~seed ()))
    modes

(** One world of case [c]: its object and program, set up by the
    scenario registry with the case's parameters and seed [seed]. *)
let world { mode; case = c } ~seed =
  let params =
    {
      S.default_params with
      crashes = c.S.crashes;
      line_size = c.S.line_size;
      persistency = c.S.persistency;
      combine = mode.combine;
      seed;
    }
  in
  (S.descriptor_of_obj c.S.obj).S.d_setup ~params ~prog:c.S.prog ()

type case_run = {
  case : case;
  stats : E.stats option;  (** [None] when the case failed *)
  wall_s : float;
}

let run_case ?tr ~req (c : case) errors =
  let stats = ref None in
  let (), wall_s =
    Clock.wall (fun () ->
        Spans.wall tr ~name:("scenarios.case.run " ^ c.case.S.name) ~req
          ~args:(fun () ->
            match !stats with
            | Some st ->
                [ ("executions", float_of_int st.E.executions);
                  ("crash_points", float_of_int st.E.crash_points) ]
            | None -> [])
          (fun _ ->
            match c.case.S.run ~reduction:true with
            | st -> stats := Some st
            | exception e ->
                Outcome.Errors.add errors
                  (Printf.sprintf "%s: %s" c.case.S.name (Printexc.to_string e))))
  in
  { case = c; stats = !stats; wall_s }

(* Points of the modelled twin per case. *)
let twin_reps = 25

(** One point of the twin: the case's program, crash-free, on the
    simulated machine with schedule seed [seed]; its modelled makespan
    in ns, after the case's oracle accepted the execution. *)
let twin_point (c : case) ~seed =
  let sc = world c ~seed in
  let clock = ref (fun (_ : int) -> 0.) in
  let threads = Array.of_list sc.E.threads in
  ignore
    (Dssq_workload.Sim_throughput.run ~seed ~clock ~horizon_ns:1e12
       ~heap:sc.E.heap ~threads ~ops_done:(fun () -> 0) ()
      : float);
  sc.E.ctx.S.finish ~crashed:false;
  let makespan = ref 0. in
  Array.iteri (fun tid _ -> makespan := Float.max !makespan (!clock tid)) threads;
  !makespan

(* Case runs between two timed set-ups. *)
let setup_every = 4

(** Set-up: the slice, with one world of every case built. *)
let prepare ~seed =
  let slice = cases ~seed in
  List.iter (fun c -> ignore (world c ~seed : S.world E.scenario)) slice;
  slice

let run ?tr ~seed ~seconds () =
  (* Set-up takes a few milliseconds, and the host's speed shifts in
     phases of about that length, so one set-up is timed before the
     sweeps and another after every [setup_every] case runs (the result
     then unused): the median rests on samples spread over the run. *)
  let setups = Pstats.Samples.create () in
  let setup k =
    let slice, s =
      Clock.timed_setup (fun () ->
          Spans.wall tr ~name:"setup" ~req:k (fun _ -> prepare ~seed))
    in
    Pstats.Samples.add setups s;
    slice
  in
  let slice = setup 0 in
  let errors = Outcome.Errors.create () in
  let t_start = Clock.now_ns () in
  let sweeps = ref [] in
  let req = ref 0 in
  (* Whole sweeps only, so every run weighs the cases alike. *)
  while
    List.is_empty !sweeps
    || Clock.s_between t_start (Clock.now_ns ()) < float_of_int seconds
  do
    sweeps :=
      List.map
        (fun c ->
          incr req;
          let r = run_case ?tr ~req:!req c errors in
          if !req mod setup_every = 0 then ignore (setup !req : case list);
          r)
        slice
      :: !sweeps
  done;
  let sweeps = List.rev !sweeps in
  let setup_samples = Pstats.Samples.to_array setups in
  let setup_s = Pstats.median setup_samples in
  let first = List.hd sweeps in
  let all = List.concat sweeps in
  let executions r = match r.stats with Some s -> s.E.executions | None -> 0 in
  let total_execs = List.fold_left (fun a r -> a + executions r) 0 all in
  let total_wall = List.fold_left (fun a r -> a +. r.wall_s) 0. all in
  let case_us = Array.of_list (List.map (fun r -> r.wall_s *. 1e6) all) in
  let model_lat =
    Spans.wall tr ~name:"twin" ~req:0 (fun _ ->
        Array.of_list
          (List.concat
             (List.mapi
                (fun k c ->
                  List.init twin_reps (fun r ->
                      let seed = W_sim.derive seed ((k * twin_reps) + r) in
                      match twin_point c ~seed with
                      | ns -> Some (ns /. 1e3)
                      | exception e ->
                          Outcome.Errors.add errors
                            (Printf.sprintf "%s (modelled twin): %s" c.case.S.name
                               (Printexc.to_string e));
                          None)
                  |> List.filter_map Fun.id)
                slice)))
  in
  let wall_tail = Outcome.tail_exn ~what:"case wall time" case_us in
  let model_tail = Outcome.tail_exn ~what:"execution modelled time" model_lat in
  let e2e =
    Outcome.
      [
        m "setup_s" "s" setup_s;
        m "model_throughput" "1/s"
          (float_of_int (Array.length model_lat)
          /. (Array.fold_left ( +. ) 0. model_lat /. 1e6));
        m "model_latency_p50_us" "us" (Pstats.median model_lat);
        m "model_latency_p99_us" "us" model_tail.value;
      ]
  in
  let timed =
    Outcome.
      [
        m "time.throughput" "1/s" (float_of_int total_execs /. total_wall);
        m "time.latency_p50_us" "us" (Pstats.median case_us);
        m "time.latency_p99_us" "us" wall_tail.value;
      ]
  in
  let of_mode m rs = List.filter (fun r -> r.case.mode.mname = m.mname) rs in
  let stat f rs =
    List.fold_left
      (fun a r -> match r.stats with Some s -> a + f s | None -> a)
      0 rs
  in
  let layers =
    timed
    @ List.concat_map
      (fun md ->
        let f = of_mode md first and a = of_mode md all in
        let sfx s = s ^ "." ^ md.mname in
        let pruned = stat (fun s -> s.E.pruned) f
        and branches = stat (fun s -> s.E.branches) f in
        Outcome.
          [
            m (sfx "sim.explore.executions") "count"
              (float_of_int (stat (fun s -> s.E.executions) f));
            m (sfx "sim.explore.crash_points") "count"
              (float_of_int (stat (fun s -> s.E.crash_points) f));
            m (sfx "sim.explore.prune_ratio") "ratio"
              (float_of_int pruned /. float_of_int (max 1 (pruned + branches)));
            m (sfx "sim.explore.executions_per_s") "1/s"
              (float_of_int (stat (fun s -> s.E.executions) a)
              /. List.fold_left (fun acc r -> acc +. r.wall_s) 0. a);
          ]
        @
        if md.mname = "px86" then
          [
            Outcome.m "sim.explore.drain_points.px86" "count"
              (float_of_int (stat (fun s -> s.E.drain_points) f));
          ]
        else [])
      modes
    @ [
        Outcome.m "checker.slowest_case_s" "s"
          (Pstats.median
             (Array.of_list
                (List.map
                   (fun sw -> List.fold_left (fun a r -> Float.max a r.wall_s) 0. sw)
                   sweeps)));
      ]
  in
  let module J = Dssq_obs.Json in
  {
    Outcome.attempted =
      total_execs + List.length (List.filter (fun r -> r.stats = None) all);
    failed = Outcome.Errors.count errors;
    errors = Outcome.Errors.list errors;
    e2e;
    layers;
    setup_samples;
    info =
      [
        ("cases", J.Int (List.length slice));
        ("sweeps", J.Int (List.length sweeps));
        ( "executions_per_sweep",
          J.Int (List.fold_left (fun a r -> a + executions r) 0 first) );
        ("twin_points", J.Int (Array.length model_lat));
        Outcome.tail_info "time.latency_p99_us" wall_tail;
        Outcome.tail_info "model_latency_p99_us" model_tail;
      ];
  }
