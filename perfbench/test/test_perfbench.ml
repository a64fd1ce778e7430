(* The benchmark's own tests: its statistics helpers, its conservation
   checker, and the determinism the modelled metrics rest on.

     dune build @perfbench/runtest        (or python3 perfbench/run.py --self-test) *)

open Perfbench

let passed = ref 0

let check name cond =
  if not cond then begin
    Printf.printf "FAIL %s\n%!" name;
    exit 1
  end;
  incr passed

let floats n f = Array.init n (fun i -> f i)

(* The tail sits at p99 when enough samples lie beyond it, and is pulled
   down to keep 10 beyond otherwise; too few samples give no tail. *)
let test_tail () =
  check "tail: 10 samples is too few" (Pstats.tail (floats 10 float_of_int) = None);
  List.iter
    (fun n ->
      let a = floats n (fun i -> float_of_int (n - i)) (* unsorted on purpose *) in
      match Pstats.tail a with
      | None -> check (Printf.sprintf "tail: n=%d has a tail" n) false
      | Some t ->
          let beyond =
            Array.fold_left (fun k v -> if v > t.value then k + 1 else k) 0 a
          in
          check
            (Printf.sprintf "tail: n=%d keeps >= 10 beyond" n)
            (beyond >= 10 && t.beyond = beyond);
          check (Printf.sprintf "tail: n=%d at most p99" n) (t.q <= 0.99 +. 1e-12);
          if n >= 1100 then
            check (Printf.sprintf "tail: n=%d is p99" n) (Float.abs (t.q -. 0.99) < 1e-9))
    [ 11; 12; 50; 100; 999; 1000; 1100; 2000; 12345 ];
  check "tail: n=11 is the smallest sample"
    ((Option.get (Pstats.tail (floats 11 float_of_int))).value = 0.);
  (* the exact histogram agrees with the array version *)
  let h = Pstats.Ihist.create ~limit:64 () in
  let a = floats 500 (fun i -> float_of_int ((i * 37) mod 101)) in
  Array.iter (fun v -> Pstats.Ihist.add h (int_of_float v)) a;
  check "ihist: tail = array tail"
    ((Option.get (Pstats.Ihist.tail h)).value = (Option.get (Pstats.tail a)).value);
  check "ihist: median = array quantile"
    (Pstats.Ihist.quantile h 0.5 = Pstats.quantile a 0.5)

let test_windows () =
  check "windows: median rate"
    (Pstats.median_of_windows ~counts:[| 10; 40; 30 |] ~seconds:[| 1.; 2.; 1. |] = 20.);
  (* one stalled window moves nothing *)
  check "windows: a stall is ignored"
    (Pstats.median_of_windows ~counts:[| 100; 100; 2; 100; 100 |]
       ~seconds:[| 1.; 1.; 1.; 1.; 1. |]
    = 100.);
  check "median: even count averages" (Pstats.median [| 4.; 1.; 3.; 2. |] = 2.5)

let test_conservation () =
  let fp l =
    let f = Conserve.Fp.create () in
    List.iter (Conserve.Fp.add f) l;
    f
  in
  let put = [ 1; 2; 3; 100; 200 ] in
  check "exact: all out"
    (Conserve.exact ~put:(fp put) ~got:(fp [ 200; 3; 1; 100; 2 ]) = Ok ());
  check "exact: dropped value caught"
    (Result.is_error (Conserve.exact ~put:(fp put) ~got:(fp [ 200; 3; 1; 2 ])));
  check "exact: swapped value caught"
    (Result.is_error (Conserve.exact ~put:(fp put) ~got:(fp [ 200; 3; 1; 2; 7 ])));
  check "exact: duplicate caught"
    (Result.is_error (Conserve.exact ~put:(fp put) ~got:(fp [ 200; 3; 1; 2; 2 ])));
  let wif ~taken ~in_flight_deqs =
    Conserve.with_in_flight ~supplied:put ~maybe:[ 300 ] ~taken ~in_flight_deqs
  in
  check "in-flight: all out"
    (Result.is_ok (wif ~taken:[ 1; 2; 3; 100; 200 ] ~in_flight_deqs:0));
  check "in-flight: maybe value may come out"
    (Result.is_ok (wif ~taken:[ 1; 2; 3; 100; 200; 300 ] ~in_flight_deqs:0));
  check "in-flight: dropped value caught"
    (Result.is_error (wif ~taken:[ 1; 2; 100; 200 ] ~in_flight_deqs:0));
  check "in-flight: a cut-off dequeue may hide one"
    (Result.is_ok (wif ~taken:[ 1; 2; 100; 200 ] ~in_flight_deqs:1));
  check "in-flight: but not two"
    (Result.is_error (wif ~taken:[ 1; 100; 200 ] ~in_flight_deqs:1));
  check "in-flight: duplicate caught"
    (Result.is_error (wif ~taken:[ 1; 2; 3; 100; 200; 200 ] ~in_flight_deqs:0));
  check "in-flight: unknown value caught"
    (Result.is_error (wif ~taken:[ 1; 2; 3; 100; 200; 9 ] ~in_flight_deqs:0))

(* Everything but measured times must repeat exactly. *)
let modelled (o : Outcome.t) =
  let timed n =
    List.mem n
      [ "setup_s"; "time.throughput"; "time.latency_p50_us"; "time.latency_p99_us";
        "sim.events_per_cpu_s"; "core.reattach_ms_p50"; "core.resolve_us_p50";
        "pmem.wal_replay_ms_p50" ]
  in
  List.filter_map
    (fun (m : Outcome.metric) -> if timed m.name then None else Some (m.name, m.value))
    (o.e2e @ o.layers)

let test_determinism () =
  let a = W_sim.run ~seed:7 ~reps:11 () and b = W_sim.run ~seed:7 ~reps:11 () in
  check "sim: no failures" (a.failed = 0 && b.failed = 0);
  check "sim: same seed, identical modelled metrics and counts" (modelled a = modelled b);
  let c = W_sim.run ~seed:8 ~reps:11 () in
  check "sim: another seed, other modelled metrics" (modelled a <> modelled c);
  let crash () = W_crash.run ~init_nodes:512 ~seed:3 ~cycles:12 () in
  let a = crash () and b = crash () in
  check "crash: no failures" (a.failed = 0 && b.failed = 0 && a.errors = []);
  check "crash: same seed, identical modelled metrics and counts"
    (modelled a = modelled b)

(* The checker slice is the issue's 22 crash cases at line size 1. *)
let test_slice () =
  let slice = W_checker.cases ~seed:0 in
  check "slice: 22 cases" (List.length slice = 22);
  check "slice: crash cases at line size 1 only"
    (List.for_all
       (fun (c : W_checker.case) -> c.case.crashes && c.case.line_size = 1)
       slice)

let () =
  test_tail ();
  test_windows ();
  test_conservation ();
  test_determinism ();
  test_slice ();
  Printf.printf "perfbench: %d checks passed\n" !passed
