(* Statistics the benchmark reports: nearest-rank percentiles that carry
   their own sample counts, medians, geometric means, and the scaling of a
   host time to reference speed. *)

(* A percentile is only reported as a metric when at least this many
   samples lie beyond it; below that one outlier decides its value. *)
let min_beyond = 10

type pct = {
  p : int;  (** percent, 1..100 *)
  value : float;
  n : int;  (** samples *)
  beyond : int;  (** samples strictly above the rank *)
}

let usable q = q.beyond >= min_beyond

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least p% of all samples at or
   below it, i.e. the ceil(p*n/100)-th smallest.  Integer arithmetic keeps
   the rank exact. *)
let percentile p xs =
  if p < 1 || p > 100 then invalid_arg "Stats.percentile: p outside 1..100";
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = ((p * n) + 99) / 100 in
  { p; value = a.(rank - 1); n; beyond = n - rank }

let pp_pct name unit q =
  Printf.sprintf "%s p%d = %.4f %s (n=%d, %d beyond%s)" name q.p q.value unit
    q.n q.beyond
    (if usable q then "" else ", FLAGGED: fewer than 10 beyond, not a metric")

let median xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: no samples"
  | _ ->
      if List.exists (fun x -> x <= 0.0) xs then
        invalid_arg "Stats.geomean: non-positive sample";
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

(* A host time measured while the reference loop took [measured_ref],
   restated as if the host ran the loop in [ref].  Slow spells of the
   machine stretch both, so the ratio cancels them.  [elasticity] is how
   much more a measured time stretches than the reference loop does: a
   workload that leans harder on caches and memory than the loop slows by
   (measured_ref / ref) ** elasticity. *)
let at_ref ~elasticity ~ref ~measured_ref raw =
  if measured_ref <= 0.0 then invalid_arg "Stats.at_ref: non-positive reference";
  raw *. ((ref /. measured_ref) ** elasticity)
