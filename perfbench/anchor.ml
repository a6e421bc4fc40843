(* The paper anchor: [Experiment.paper_grid], the path [make bench-tables]
   and [prevv sweep] take, checked against the Table II cycle columns in
   EXPERIMENTS.md, and its distance from the paper's headline figures.
   Every workload runs it once, untimed, as a correctness gate. *)

open Pv_core

(* EXPERIMENTS.md Table II: cycles under [15], [8], PreVV16, PreVV64 *)
let table2 =
  [
    ("polyn_mult", [ 2407; 2321; 2321; 2321 ]);
    ("2mm", [ 2749; 2021; 2021; 2021 ]);
    ("3mm", [ 3503; 2496; 2208; 2208 ]);
    ("gaussian", [ 8681; 4972; 6221; 4993 ]);
    ("triangular", [ 2713; 2619; 2619; 2619 ]);
  ]

(* The paper's three Table II headline figures, in percent:
   PreVV16 cycles vs [8] on gaussian (+27.4), PreVV16 cycles vs [8] over
   all kernels (+10.79, taken as the geomean of per-kernel ratios) and
   PreVV64 execution time vs [8] (geomean, -2.64). *)
let paper_gaussian_v16 = 27.4
let paper_v16_cycles = 10.79
let paper_v64_exec = -2.64

type t = {
  failures : string list;
  cells : int;
  prevv_cycles : int;  (** PreVV16 + PreVV64 cycles over the five kernels *)
  gap_pp : float;  (** mean absolute gap to the headline figures *)
  points : Experiment.point list list;
}

let run () =
  let grid = Experiment.paper_grid () in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun row ->
      match row with
      | (p : Experiment.point) :: _ -> (
          let got = List.map (fun (q : Experiment.point) -> q.Experiment.cycles) row in
          List.iter
            (fun (q : Experiment.point) ->
              if not q.Experiment.verified then
                fail "%s/%s not verified" q.Experiment.kernel q.Experiment.config)
            row;
          match List.assoc_opt p.Experiment.kernel table2 with
          | Some want when want = got -> ()
          | Some want ->
              fail "%s cycles %s, Table II has %s" p.Experiment.kernel
                (String.concat "/" (List.map string_of_int got))
                (String.concat "/" (List.map string_of_int want))
          | None -> fail "unexpected kernel %s" p.Experiment.kernel)
      | [] -> fail "empty grid row")
    grid;
  let col i = List.map (fun row -> List.nth row i) grid in
  let fast = col 1 and v16 = col 2 and v64 = col 3 in
  let ratios f a b =
    List.map2 (fun (x : Experiment.point) (y : Experiment.point) -> f x /. f y) a b
  in
  let cyc (p : Experiment.point) = float_of_int p.Experiment.cycles in
  let exec (p : Experiment.point) = p.Experiment.exec_us in
  let pct r = 100.0 *. (r -. 1.0) in
  let gaussian =
    List.find (fun ((p : Experiment.point), _) -> p.Experiment.kernel = "gaussian")
      (List.combine v16 fast)
  in
  let gaussian_v16 = pct (cyc (fst gaussian) /. cyc (snd gaussian)) in
  let v16_cycles = pct (Experiment.geomean (ratios cyc v16 fast)) in
  let v64_exec = pct (Experiment.geomean (ratios exec v64 fast)) in
  let gap_pp =
    (Float.abs (gaussian_v16 -. paper_gaussian_v16)
    +. Float.abs (v16_cycles -. paper_v16_cycles)
    +. Float.abs (v64_exec -. paper_v64_exec))
    /. 3.0
  in
  let sum l = List.fold_left (fun s (p : Experiment.point) -> s + p.Experiment.cycles) 0 l in
  Printf.printf
    "anchor: Table II gaussian v16 %+.2f%% (paper %+.2f), v16 cycles %+.2f%% \
     (paper %+.2f), v64 exec %+.2f%% (paper %+.2f); gap %.4f pp\n"
    gaussian_v16 paper_gaussian_v16 v16_cycles paper_v16_cycles v64_exec
    paper_v64_exec gap_pp;
  {
    failures = List.rev !failures;
    cells = List.length (List.concat grid);
    prevv_cycles = sum v16 + sum v64;
    gap_pp;
    points = grid;
  }
