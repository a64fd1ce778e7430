(** Order statistics shared by the workloads.

    Quantiles are nearest-rank: the [q] quantile of [n] samples is the
    smallest sample with at least [q *. n] samples at or below it.  A
    tail is reported at the highest percentile that still leaves
    [min_beyond] samples beyond it, capped at p99, so a tail never
    rests on a handful of outliers. *)

let sorted a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

(* Index of the nearest-rank [q] quantile among [n] sorted samples. *)
let rank n q =
  max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let quantile_sorted s q =
  if Array.length s = 0 then invalid_arg "Pstats.quantile: no samples";
  s.(rank (Array.length s) q)

let quantile a q = quantile_sorted (sorted a) q

(** The middle value, or the mean of the two middle values for an even
    count (as Python's [statistics.median]). *)
let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pstats.median: no samples";
  let s = sorted a in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

type tail = {
  q : float;  (** the percentile used, as a fraction *)
  value : float;
  beyond : int;  (** samples strictly above the tail's rank *)
  n : int;
}

(** The highest percentile a tail is reported at. *)
let cap = 0.99

(** Samples that must lie strictly beyond a tail. *)
let min_beyond = 10

(* Rank of the tail among [n] samples and its percentile: p[cap],
   pulled down until [min_beyond] samples lie beyond it. *)
let tail_index n =
  let i = rank n cap in
  if i <= n - 1 - min_beyond then (i, cap)
  else (n - 1 - min_beyond, float_of_int (n - min_beyond) /. float_of_int n)

(** The tail of [a], or [None] when fewer than [min_beyond + 1] samples
    exist. *)
let tail a =
  let n = Array.length a in
  if n < min_beyond + 1 then None
  else begin
    let s = sorted a in
    let i, q = tail_index n in
    Some
      {
        q;
        value = s.(i);
        beyond = n - 1 - i;
        n;
      }
  end

(** Median of per-window rates: [counts.(i) /. seconds.(i)] for every
    window.  A transient stall then moves one window, not the result. *)
let median_of_windows ~counts ~seconds =
  if Array.length counts <> Array.length seconds then
    invalid_arg "Pstats.median_of_windows: length mismatch";
  median
    (Array.mapi (fun i c -> float_of_int c /. seconds.(i)) counts)

(** Growable float sample buffer. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(** Exact histogram of non-negative integer samples (nanoseconds):
    one counter per value below [limit], a list above it.  Cheap enough
    to feed from every operation of a native worker, exact enough that
    quantiles keep all their digits. *)
module Ihist = struct
  type t = { counts : int array; mutable over : int list; mutable total : int }

  let create ?(limit = 1 lsl 17) () =
    { counts = Array.make limit 0; over = []; total = 0 }

  let add t v =
    let v = max 0 v in
    if v < Array.length t.counts then t.counts.(v) <- t.counts.(v) + 1
    else t.over <- v :: t.over;
    t.total <- t.total + 1

  let merge_into ~dst src =
    if Array.length dst.counts <> Array.length src.counts then
      invalid_arg "Ihist.merge_into: limit mismatch";
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
    dst.over <- List.rev_append src.over dst.over;
    dst.total <- dst.total + src.total

  (* The sample of rank [i] (0-based) in sorted order. *)
  let nth t i =
    let len = Array.length t.counts in
    let rec walk v seen =
      if v >= len then begin
        let over = Array.of_list t.over in
        Array.sort compare over;
        over.(i - seen)
      end
      else
        let seen' = seen + t.counts.(v) in
        if seen' > i then v else walk (v + 1) seen'
    in
    float_of_int (walk 0 0)

  let quantile t q =
    if t.total = 0 then invalid_arg "Ihist.quantile: no samples";
    nth t (rank t.total q)

  let tail t =
    let n = t.total in
    if n < min_beyond + 1 then None
    else begin
      let i, q = tail_index n in
      Some
        {
          q;
          value = nth t i;
          beyond = n - 1 - i;
          n;
        }
    end
end
