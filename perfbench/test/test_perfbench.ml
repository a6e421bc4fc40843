(* Self-tests for the benchmark's own helpers: nearest-rank percentiles,
   reference-speed scaling, the geomean, the host-speed reference loop and
   the fixed-work population draw. *)

open Perfbench

let floats = List.map float_of_int
let close a b = Float.abs (a -. b) < 1e-9

let test_percentile () =
  let xs = floats [ 7; 3; 10; 1; 5; 9; 2; 8; 4; 6 ] in
  let at p = (Stats.percentile p xs).Stats.value in
  Alcotest.(check (float 0.0)) "p50 of 1..10" 5.0 (at 50);
  Alcotest.(check (float 0.0)) "p90 of 1..10" 9.0 (at 90);
  Alcotest.(check (float 0.0)) "p100 is the max" 10.0 (at 100);
  Alcotest.(check (float 0.0)) "p1 is the min" 1.0 (at 1);
  Alcotest.(check (float 0.0)) "p51 rounds the rank up" 6.0 (at 51);
  let q = Stats.percentile 90 xs in
  Alcotest.(check int) "sample count" 10 q.Stats.n;
  Alcotest.(check int) "one sample beyond p90 of ten" 1 q.Stats.beyond;
  Alcotest.(check bool) "too few beyond to be a metric" false (Stats.usable q);
  Alcotest.check_raises "no samples"
    (Invalid_argument "Stats.percentile: no samples") (fun () ->
      ignore (Stats.percentile 50 []))

let test_beyond_counts () =
  let n k = floats (List.init k Fun.id) in
  let beyond p k = (Stats.percentile p (n k)).Stats.beyond in
  Alcotest.(check int) "p90 of 1000 has 100 beyond" 100 (beyond 90 1000);
  Alcotest.(check int) "p99 of 1000 has 10 beyond" 10 (beyond 99 1000);
  Alcotest.(check bool) "p99 of 1000 is usable" true
    (Stats.usable (Stats.percentile 99 (n 1000)));
  Alcotest.(check bool) "p99 of 999 is flagged" false
    (Stats.usable (Stats.percentile 99 (n 999)));
  Alcotest.(check bool) "the flag shows in the printed line" true
    (let s = Stats.pp_pct "x" "ms" (Stats.percentile 99 (n 999)) in
     String.length s > 0
     && List.exists (fun w -> w = "FLAGGED:") (String.split_on_char ' ' s))

let test_median () =
  Alcotest.(check (float 0.0)) "odd" 3.0 (Stats.median (floats [ 5; 1; 3 ]));
  Alcotest.(check (float 0.0)) "even" 2.5 (Stats.median (floats [ 4; 1; 3; 2 ]))

let test_at_ref () =
  Alcotest.(check bool) "a host twice as slow as the reference halves" true
    (close 1.0 (Stats.at_ref ~elasticity:1.0 ~ref:600.0 ~measured_ref:1200.0 2.0));
  Alcotest.(check bool) "elasticity 2: twice as slow is a quarter" true
    (close 0.5 (Stats.at_ref ~elasticity:2.0 ~ref:600.0 ~measured_ref:1200.0 2.0));
  Alcotest.(check bool) "at reference speed nothing changes" true
    (close 2.0 (Stats.at_ref ~elasticity:1.5 ~ref:600.0 ~measured_ref:600.0 2.0));
  Alcotest.check_raises "zero reference"
    (Invalid_argument "Stats.at_ref: non-positive reference") (fun () ->
      ignore (Stats.at_ref ~elasticity:1.0 ~ref:600.0 ~measured_ref:0.0 1.0))

let test_geomean () =
  Alcotest.(check bool) "geomean 1 4" true (close 2.0 (Stats.geomean [ 1.0; 4.0 ]));
  Alcotest.(check bool) "geomean 2 4 8" true
    (close 4.0 (Stats.geomean [ 2.0; 4.0; 8.0 ]));
  Alcotest.check_raises "empty" (Invalid_argument "Stats.geomean: no samples")
    (fun () -> ignore (Stats.geomean []));
  Alcotest.check_raises "zero"
    (Invalid_argument "Stats.geomean: non-positive sample") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_refloop () =
  let t = Refloop.time_ns () in
  Alcotest.(check bool) "takes time" true (t > 0);
  Alcotest.(check bool) "sorts" true (Refloop.sorted ());
  let w0 = Gc.minor_words () in
  for _ = 1 to 10 do
    ignore (Refloop.time_ns ())
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "allocates nothing" 0.0 (w1 -. w0);
  Alcotest.(check bool) "on two domains" true (Refloop.sample_domains_ns 2 > 0.0)

(* a synthetic candidate stream: work 1..4 from the candidate's seed *)
let synthetic ~seed i =
  let s = Population.sub_seed ~seed i in
  (s, 1 + (Hashtbl.hash s mod 4))

let test_draw_synthetic () =
  let quotas = [ (1, 5); (3, 2) ] in
  let draw seed =
    Population.draw ~pool:100 ~quotas ~class_of:snd ~candidate:synthetic ~seed ()
  in
  let picks = List.init 20 (fun s -> draw (s + 1)) in
  List.iteri
    (fun s p ->
      Alcotest.(check int)
        (Printf.sprintf "seed %d fills the budget" (s + 1))
        11
        (List.fold_left (fun a (_, w) -> a + w) 0 p);
      Alcotest.(check int)
        (Printf.sprintf "seed %d keeps 7 members" (s + 1))
        7 (List.length p))
    picks;
  Alcotest.(check bool) "same seed, same draw" true (draw 4 = draw 4);
  Alcotest.(check bool) "seeds pick different members" true
    (List.exists (fun p -> p <> List.hd picks) picks);
  Alcotest.(check bool) "an unfillable class fails" true
    (match
       Population.draw ~pool:1000 ~quotas:[ (9, 1) ] ~class_of:snd
         ~candidate:synthetic ~seed:1 ()
     with
    | _ -> false
    | exception Failure _ -> true)

(* the generator the irregular workload draws from, by instance count:
   equal budget for every seed *)
let test_draw_generated () =
  let instances (k, init) = Pv_kernels.Interp.count_instances k ~init in
  let work seed =
    let p =
      Population.draw ~pool:100 ~quotas:[ (64, 3); (16, 3) ] ~class_of:instances
        ~candidate:(fun ~seed i ->
          let s = Population.sub_seed ~seed i in
          let k = Pv_kernels.Generate.kernel s in
          (k, Pv_kernels.Generate.init_for k s))
        ~seed ()
    in
    (List.length p, List.fold_left (fun a c -> a + instances c) 0 p)
  in
  List.iter
    (fun seed ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "seed %d" seed)
        (6, (3 * 64) + (3 * 16))
        (work seed))
    [ 1; 2; 3; 17; 99 ]

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "samples beyond a percentile" `Quick test_beyond_counts;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "reference-speed scaling" `Quick test_at_ref;
          Alcotest.test_case "geomean" `Quick test_geomean;
        ] );
      ("refloop", [ Alcotest.test_case "reference loop" `Quick test_refloop ]);
      ( "population",
        [
          Alcotest.test_case "fixed-work draw" `Quick test_draw_synthetic;
          Alcotest.test_case "generated kernels" `Quick test_draw_generated;
        ] );
    ]
