(* The benchmark's entry point.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --list-metrics

   Prints provenance and a summary, then as its last line one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   workload runs twice, untraced and traced, and the metrics are the
   per-layer ones of both runs plus the tracing overhead.  Spans and the
   full report go to .bench_out/ in the working directory. *)

open Perfbench
module J = Dssq_obs.Json

let workloads = [ "sim-persist-modes"; "native-pairs"; "crash-restart"; "checker-corpus" ]

(* Work per run, scaled to --seconds so a run lasts about that long on a
   2-core x86-64 host.  The simulated workloads do a fixed amount of
   modelled work, so their modelled metrics depend only on the seed and
   the seconds, never on the host's speed. *)
let sim_reps seconds = max 11 (seconds * 30)
let crash_cycles seconds = max 12 (seconds * 12)

let run ?tr workload ~seed ~seconds =
  match workload with
  | "sim-persist-modes" -> W_sim.run ?tr ~seed ~reps:(sim_reps seconds) ()
  | "native-pairs" -> W_native.run ?tr ~seed ~seconds ()
  | "crash-restart" -> W_crash.run ?tr ~seed ~cycles:(crash_cycles seconds) ()
  | "checker-corpus" -> W_checker.run ?tr ~seed ~seconds ()
  | w -> invalid_arg ("unknown workload " ^ w)

(* ---- the metrics: names, units, direction, bounds ------------------ *)

(* Set-up is timed on a shared host; the modelled metrics repeat. *)
let e2e_bound = function "setup_s" -> 0.25 | _ -> 0.03

let higher_is_better name =
  List.mem name [ "time.throughput"; "model_throughput" ]
  || List.exists
       (fun prefix -> String.starts_with ~prefix name)
       [ "sim.model_mops"; "core.cas_success_ratio"; "core.fc_ops_per_batch";
         "sim.events_per_cpu_s"; "sim.burst_model_mops"; "core.pool_free_min";
         "sim.explore.executions_per_s"; "sim.explore.prune_ratio";
         "pmem.coalesced_per_op"; "pmem.elided_fences_per_op";
         "core.resolved_done_ratio"; "sim.explore.executions";
         "sim.explore.crash_points"; "sim.explore.drain_points";
         "core.in_flight_at_crash"; "trace.spans" ]

(* Per-layer metrics of every workload, with units.  A traced run
   reports all of them; the ones its workload does not exercise read 0. *)
let layer_spec =
  List.concat_map
    (fun (c : W_sim.config) ->
      List.map
        (fun (n, u) -> (n ^ "." ^ c.cname, u))
        [ ("sim.model_mops", "Mops/s"); ("pmem.flushes_per_op", "count");
          ("pmem.fences_per_op", "count"); ("pmem.coalesced_per_op", "count");
          ("pmem.elided_fences_per_op", "count");
          ("core.cas_success_ratio", "ratio") ])
    W_sim.configs
  @ [ ("time.throughput", "1/s"); ("time.latency_p50_us", "us");
      ("time.latency_p99_us", "us"); ("core.fc_ops_per_batch", "count"); ("sim.events_per_cpu_s", "1/s");
      ("memory.pay_flush_ns", "ns"); ("memory.flushes_per_op", "count");
      ("memory.fences_per_op", "count"); ("core.enqueue_p50_us", "us");
      ("core.dequeue_p50_us", "us"); ("core.enqueue_p99_us", "us");
      ("core.dequeue_p99_us", "us"); ("core.pool_free_min", "count");
      ("core.reattach_ms_p50", "ms"); ("core.resolve_us_p50", "us");
      ("pmem.wal_replay_ms_p50", "ms"); ("pmem.wal_records_replayed", "count");
      ("pmem.recovery_reads", "count"); ("pmem.recovery_writes", "count");
      ("pmem.recovery_flushes", "count"); ("pmem.recovery_fences", "count");
      ("pmem.dirty_lines_at_crash", "count"); ("sim.burst_model_mops", "Mops/s");
      ("core.in_flight_at_crash", "count"); ("core.resolved_done_ratio", "ratio");
      ("core.leaked_nodes", "count") ]
  @ List.concat_map
      (fun (md : W_checker.mode) ->
        List.map
          (fun (n, u) -> (n ^ "." ^ md.mname, u))
          ([ ("sim.explore.executions", "count");
             ("sim.explore.crash_points", "count");
             ("sim.explore.prune_ratio", "ratio");
             ("sim.explore.executions_per_s", "1/s") ]
          @ if md.mname = "px86" then [ ("sim.explore.drain_points", "count") ] else []))
      W_checker.modes
  @ [ ("checker.slowest_case_s", "s"); ("trace.overhead_throughput", "ratio");
      ("trace.spans", "count") ]

let list_metrics () =
  let better n = if higher_is_better n then "higher" else "lower" in
  let e2e =
    List.map
      (fun (n, u) ->
        J.Obj
          [ ("name", J.String n); ("unit", J.String u); ("better", J.String (better n));
            ("bound", J.Float (e2e_bound n)) ])
      Outcome.e2e_names
  in
  let layers =
    List.map
      (fun (n, u) ->
        J.Obj
          [ ("name", J.String n); ("unit", J.String u);
            ("better", J.String (better n)) ])
      layer_spec
  in
  print_endline
    (J.to_string (J.Obj [ ("end_to_end", J.List e2e); ("per_layer", J.List layers) ]))

(* ---- a run ---------------------------------------------------------- *)

let check_spec ~what spec (ms : Outcome.metric list) =
  List.iter
    (fun (m : Outcome.metric) ->
      match List.assoc_opt m.name spec with
      | Some u when u = m.unit_ -> ()
      | _ ->
          failwith
            (Printf.sprintf "%s metric %s [%s] is not in the spec" what m.name
               m.unit_))
    ms

let value_of ms name =
  (List.find (fun (m : Outcome.metric) -> m.name = name) ms).Outcome.value

let metrics_json spec ms =
  J.Obj
    (List.map
       (fun (name, u) ->
         let v =
           match List.find_opt (fun (m : Outcome.metric) -> m.name = name) ms with
           | Some m -> m.value
           | None -> 0.
         in
         (name, J.Obj [ ("value", J.Float v); ("unit", J.String u) ]))
       spec)

let spread a =
  if Array.length a < 2 then 0.
  else
    let s = Pstats.sorted a in
    (s.(Array.length s - 1) -. s.(0)) /. Pstats.median a

let main ~workload ~seed ~seconds ~trace ~rev ~out =
  if not (List.mem workload workloads) then
    failwith
      (Printf.sprintf "unknown workload %S (known: %s)" workload
         (String.concat ", " workloads));
  if seconds < 1 then failwith "--seconds must be at least 1";
  if trace < 0 || trace > 1 then failwith "--trace must be 0 or 1";
  let trace = trace = 1 in
  (try Sys.mkdir out 0o755 with Sys_error _ -> ());
  let plain = run workload ~seed ~seconds in
  check_spec ~what:"end-to-end" Outcome.e2e_names plain.e2e;
  let tr, traced =
    if trace then begin
      let t = Spans.create () in
      let o = run ~tr:t workload ~seed ~seconds in
      let overhead =
        1. -. (value_of o.layers "time.throughput" /. value_of plain.layers "time.throughput")
      in
      (* A per-layer metric comes from the untraced run when that run
         measures it, so spans do not weigh on its timings; the traced
         run adds the ones only it measures. *)
      let layers =
        plain.layers
        @ List.filter
            (fun (m : Outcome.metric) ->
              not
                (List.exists (fun (p : Outcome.metric) -> p.name = m.name) plain.layers))
            o.layers
      in
      check_spec ~what:"per-layer" layer_spec layers;
      let layers =
        layers
        @ Outcome.
            [ m "trace.overhead_throughput" "ratio" overhead;
              m "trace.spans" "count" (float_of_int (Spans.count t)) ]
      in
      Spans.write t
        (Filename.concat out (Printf.sprintf "spans-%s-seed%d.json" workload seed));
      (Some t, Some { o with layers })
    end
    else (None, None)
  in
  let runs = plain :: Option.to_list traced in
  let attempted = List.fold_left (fun a (o : Outcome.t) -> a + o.attempted) 0 runs in
  let failed = List.fold_left (fun a (o : Outcome.t) -> a + o.failed) 0 runs in
  let errors = List.concat_map (fun (o : Outcome.t) -> o.errors) runs in
  let metrics =
    match traced with
    | Some o -> metrics_json layer_spec o.layers
    | None -> metrics_json Outcome.e2e_names plain.e2e
  in
  let provenance =
    J.Obj
      ([ ("workload", J.String workload); ("seed", J.Int seed);
         ("seconds", J.Int seconds); ("trace", J.Bool trace);
         ("nproc", J.Int (Domain.recommended_domain_count ()));
         ("git_rev", J.String rev); ("ocaml", J.String Sys.ocaml_version);
         ( "setup_s_samples",
           J.List (List.map (fun s -> J.Float s) (Array.to_list plain.setup_samples)) );
         ("setup_s_spread", J.Float (spread plain.setup_samples)) ]
      @ plain.info
      @ (match traced with
        | Some o ->
            [ ( "end_to_end_traced",
                J.Obj
                  (List.map (fun (m : Outcome.metric) -> (m.name, J.Float m.value)) o.e2e) );
              ("spans_dropped", J.Int (Option.fold ~none:0 ~some:Spans.dropped tr)) ]
        | None -> [])
      @ [ ("errors", J.List (List.map (fun e -> J.String e) errors)) ])
  in
  let report =
    J.Obj
      [ ("correct", J.Bool (failed = 0)); ("attempted", J.Int attempted);
        ("failed", J.Int failed); ("metrics", metrics) ]
  in
  let oc =
    open_out
      (Filename.concat out
         (Printf.sprintf "report-%s-seed%d-trace%d.json" workload seed
            (Bool.to_int trace)))
  in
  output_string oc
    (J.to_string (J.Obj [ ("provenance", provenance); ("result", report) ]));
  close_out oc;
  List.iter (fun e -> Printf.printf "error: %s\n" e) errors;
  print_endline (J.to_string ~indent:false provenance);
  List.iter
    (fun (m : Outcome.metric) -> Printf.printf "%-40s %14.6g %s\n" m.name m.value m.unit_)
    (match traced with Some o -> o.layers | None -> plain.e2e);
  print_endline (J.to_string ~indent:false report)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rev = ref "unknown" and out = ref ".bench_out" and list = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
      ("--rev", Arg.Set_string rev, "REV source revision, for provenance");
      ("--out", Arg.Set_string out, "DIR where reports and spans go");
      ("--list-metrics", Arg.Set list, " print the metric list as JSON") ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe [options]";
  if !list then list_metrics ()
  else
    match
      main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace
        ~rev:!rev ~out:!out
    with
    | () -> ()
    | exception e ->
        prerr_endline ("benchmark failed: " ^ Printexc.to_string e);
        exit 2
