(** Queue-content conservation: every value put into a queue comes out
    exactly once, counting what is still inside at the end. *)

(** Order-free fingerprint of a multiset of ints: its size and a sum of
    mixed hashes.  Constant memory, so a native worker can keep one for
    millions of operations. *)
module Fp = struct
  type t = { mutable count : int; mutable sum : int }

  let create () = { count = 0; sum = 0 }

  (* splitmix64 finaliser, truncated to OCaml's 63-bit ints *)
  let mix v =
    let z = v + 0x1e3779b97f4a7c15 in
    let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
    let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
    z lxor (z lsr 31)

  let add t v =
    t.count <- t.count + 1;
    t.sum <- t.sum + mix v

  let union a b = { count = a.count + b.count; sum = a.sum + b.sum }
end

(** [exact ~put ~got] checks that the multiset put in ([put]: seeded
    plus enqueued) equals the multiset taken out ([got]: dequeued plus
    drained at the end).  Valid when no operation was left in flight. *)
let exact ~(put : Fp.t) ~(got : Fp.t) =
  if put.count = got.count && put.sum = got.sum then Ok ()
  else
    Error
      (Printf.sprintf "conservation: %d value(s) put, %d taken%s" put.count
         got.count
         (if put.count = got.count then " (different values)" else ""))

type report = { lost : int; duplicated : int; unknown : int; allowed_lost : int }

(** The check when some operations were cut off mid-flight (the
    simulated machine stops its threads at the horizon).  [supplied]:
    seeded values and completed enqueues; [maybe]: values of in-flight
    enqueues, which may or may not have taken effect; [taken]: every
    value dequeued, including the final drain; [in_flight_deqs]: how
    many dequeues were cut off, each of which may have removed one value
    nobody saw.  Passes iff nothing is duplicated or unknown and at most
    [in_flight_deqs] supplied values are missing. *)
let with_in_flight ~supplied ~maybe ~taken ~in_flight_deqs =
  let known = Hashtbl.create 1024 in
  List.iter (fun v -> Hashtbl.replace known v `Supplied) supplied;
  List.iter
    (fun v -> if not (Hashtbl.mem known v) then Hashtbl.replace known v `Maybe)
    maybe;
  let seen = Hashtbl.create 1024 in
  let duplicated = ref 0 and unknown = ref 0 in
  List.iter
    (fun v ->
      if Hashtbl.mem seen v then incr duplicated
      else begin
        Hashtbl.replace seen v ();
        if not (Hashtbl.mem known v) then incr unknown
      end)
    taken;
  let lost =
    List.fold_left
      (fun acc v -> if Hashtbl.mem seen v then acc else acc + 1)
      0
      (List.sort_uniq compare supplied)
  in
  let r =
    {
      lost;
      duplicated = !duplicated;
      unknown = !unknown;
      allowed_lost = in_flight_deqs;
    }
  in
  if r.duplicated = 0 && r.unknown = 0 && r.lost <= r.allowed_lost then Ok r
  else
    Error
      (Printf.sprintf
         "conservation: %d lost (%d in-flight dequeues allowed), %d \
          duplicated, %d unknown"
         r.lost r.allowed_lost r.duplicated r.unknown)
