(** In-memory span recorder for the traced run.

    A span is a named interval around one call into a layer, with the id
    of the request it served (an operation, a restart cycle, a checked
    case) and the span that caused it.  Wall spans are in monotonic
    nanoseconds; spans of the simulated machine are in modelled
    nanoseconds and are kept apart in the output.  Spans stay in memory
    up to a cap (later ones are counted as dropped) and are written out
    once, when the run ends. *)

type clock = Wall | Model

type span = {
  sid : int;
  name : string;
  req : int;
  parent : int;  (** [sid] of the causing span, -1 for none *)
  clock : clock;
  t0 : float;  (** ns *)
  t1 : float;
  args : (string * float) list;  (** counts read at the span's ends *)
}

type t = {
  mutable spans : span list;
  mutable kept : int;
  mutable dropped : int;
  mutable next : int;
  cap : int;
}

let create ?(cap = 40_000) () =
  { spans = []; kept = 0; dropped = 0; next = 0; cap }

let fresh t =
  let s = t.next in
  t.next <- s + 1;
  s

(** Record a finished span; returns its id. *)
let add ?(parent = -1) ?(args = []) ?sid t ~name ~req ~clock t0 t1 =
  let sid = match sid with Some s -> s | None -> fresh t in
  if t.kept < t.cap then begin
    t.spans <- { sid; name; req; parent; clock; t0; t1; args } :: t.spans;
    t.kept <- t.kept + 1
  end
  else t.dropped <- t.dropped + 1;
  sid

(** [wall tr ~name ~req f] runs [f] inside a wall-clock span when [tr]
    is a recorder, and just runs it otherwise.  [f] receives the span's
    id so nested calls can name it as their parent. *)
let wall ?parent ?(args = fun () -> []) tr ~name ~req f =
  match tr with
  | None -> f (-1)
  | Some t ->
      let sid = fresh t in
      let t0 = Clock.now_ns () in
      let r = f sid in
      let t1 = Clock.now_ns () in
      ignore
        (add ?parent ~args:(args ()) ~sid t ~name ~req ~clock:Wall
           (Int64.to_float t0) (Int64.to_float t1));
      r

let count t = t.kept
let dropped t = t.dropped

(** Concatenate per-domain recorders into [dst]. *)
let absorb ~dst src =
  List.iter
    (fun s ->
      if dst.kept < dst.cap then begin
        dst.spans <- s :: dst.spans;
        dst.kept <- dst.kept + 1
      end
      else dst.dropped <- dst.dropped + 1)
    src.spans;
  dst.dropped <- dst.dropped + src.dropped

(** Chrome trace-event JSON: wall spans in process 1, modelled spans in
    process 2; times in microseconds from the first span of each
    clock. *)
let to_json t =
  let module J = Dssq_obs.Json in
  let spans = List.rev t.spans in
  let origin c =
    List.fold_left
      (fun acc s -> if s.clock = c then Float.min acc s.t0 else acc)
      infinity spans
  in
  let ow = origin Wall and om = origin Model in
  let ev s =
    let o = if s.clock = Wall then ow else om in
    J.Obj
      [
        ("name", J.String s.name);
        ("ph", J.String "X");
        ("pid", J.Int (if s.clock = Wall then 1 else 2));
        ("tid", J.Int 0);
        ("ts", J.Float ((s.t0 -. o) /. 1e3));
        ("dur", J.Float ((s.t1 -. s.t0) /. 1e3));
        ( "args",
          J.Obj
            ([ ("sid", J.Int s.sid); ("req", J.Int s.req); ("parent", J.Int s.parent) ]
            @ List.map (fun (k, v) -> (k, J.Float v)) s.args) );
      ]
  in
  J.Obj
    [
      ("traceEvents", J.List (List.map ev spans));
      ("dropped", J.Int t.dropped);
    ]

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Dssq_obs.Json.to_string ~indent:false (to_json t)))
