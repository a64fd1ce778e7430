(** What one workload run reports: the operation ledger, the metrics,
    and provenance. *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type t = {
  attempted : int;
  failed : int;  (** operations that raised, plus failed checks *)
  errors : string list;  (** correctness failures, first few *)
  e2e : metric list;
  layers : metric list;
  setup_samples : float array;  (** every timed set-up of the run *)
  info : (string * Dssq_obs.Json.t) list;  (** provenance and tails *)
}

(** The end-to-end metrics every workload reports, in order, with their
    units.  What "a unit of work" and "a request" are differs per
    workload; NOTES.md has the table.  Beside set-up time they are all
    modelled, so they repeat for a seed whatever the host does; measured
    times are per-layer metrics ([time.*]). *)
let e2e_names =
  [
    ("setup_s", "s");
    ("model_throughput", "1/s");
    ("model_latency_p50_us", "us");
    ("model_latency_p99_us", "us");
  ]

(* Error log bounded so a systematic failure cannot flood memory. *)
module Errors = struct
  type t = { mutable msgs : string list; mutable n : int }

  let create () = { msgs = []; n = 0 }

  let add t msg =
    if t.n < 20 then t.msgs <- msg :: t.msgs;
    t.n <- t.n + 1

  let list t = List.rev t.msgs
  let count t = t.n
end

let tail_info name (tl : Pstats.tail) =
  let module J = Dssq_obs.Json in
  ( name,
    J.Obj
      [
        ("percentile", J.Float (100. *. tl.q));
        ("samples", J.Int tl.n);
        ("beyond", J.Int tl.beyond);
      ] )

(** The tail of [a] or a failed check when there are too few samples. *)
let tail_exn ~what a =
  match Pstats.tail a with
  | Some t -> t
  | None ->
      failwith
        (Printf.sprintf "%s: %d samples, need at least 11 for a tail" what
           (Array.length a))
