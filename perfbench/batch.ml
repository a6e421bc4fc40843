(* The closed-loop batch workloads, paper-grid and irregular: passes over
   a fixed cell list on one domain with the cache off, each pass
   interleaved with samples of the host-speed reference loop.  Every cell
   is verified against the interpreter, and every pass after the first
   must reproduce the first bit for bit. *)

open Pv_core
module Stats = Perfbench.Stats
module Refloop = Perfbench.Refloop

(* A fixed, nominal reference-loop time.  Host times are reported as if
   the reference loop had taken exactly this long while they were
   measured; on the 2-vCPU x86-64 VM the benchmark was tuned on (OCaml
   5.1.1) the loop takes 0.38-0.43 ms, so reported times run longer than
   raw ones there. *)
let ref_ns = 600_000.0

(* How much more the simulator's time stretches than the reference loop's
   when the host slows: fitted (least squares on log times, 1.65) over 379
   interleaved paper-grid passes on the reference host, rounded down. *)
let elasticity = 1.5

(* cells between two reference samples *)
let ref_every = 5

(* One pass over the cells, with each time both raw and at reference
   speed.  A cell is restated with the reference samples taken just before
   and just after its block of [ref_every] cells, so a slow spell shorter
   than a pass only rescales the cells it overlapped. *)
type pass = {
  outs : Cell.out array;
  cell_ms : float array;
  cell_ms_at_ref : float array;
  pass_s : float;
  pass_s_at_ref : float;
  sim_s : float;  (** time inside [Pipeline.simulate] *)
  sim_s_at_ref : float;
  words : float;  (** minor words inside [Pipeline.simulate] *)
  ref_ms : float;  (** the pass's median reference sample *)
}

let scale_of measured_ref = Stats.at_ref ~elasticity ~ref:ref_ns ~measured_ref 1.0

let run_pass (cells : Cell.input array) =
  let n = Array.length cells in
  (* refs.(b) is sampled before block b; the last one after the pass *)
  let refs = Array.make ((n + ref_every - 1) / ref_every + 1) 0.0 in
  let raw = Array.make n Cell.{ t_cell_ns = 0; t_sim_ns = 0; t_words = 0.0 } in
  let outs =
    Array.mapi
      (fun i c ->
        if i mod ref_every = 0 then
          refs.(i / ref_every) <- float_of_int (Refloop.sample_ns ());
        let o, t = Cell.run c in
        raw.(i) <- t;
        o)
      cells
  in
  refs.(Array.length refs - 1) <- float_of_int (Refloop.sample_ns ());
  let scale i =
    let b = i / ref_every in
    scale_of ((refs.(b) +. refs.(b + 1)) /. 2.0)
  in
  let sum f = Array.fold_left ( +. ) 0.0 (Array.mapi f raw) in
  let cell_ns _ t = float_of_int t.Cell.t_cell_ns in
  let sim_ns _ t = float_of_int t.Cell.t_sim_ns in
  let at_ref f i t = f i t *. scale i in
  {
    outs;
    cell_ms = Array.map (fun t -> float_of_int t.Cell.t_cell_ns /. 1e6) raw;
    cell_ms_at_ref = Array.mapi (fun i t -> at_ref cell_ns i t /. 1e6) raw;
    pass_s = sum cell_ns /. 1e9;
    pass_s_at_ref = sum (at_ref cell_ns) /. 1e9;
    sim_s = sum sim_ns /. 1e9;
    sim_s_at_ref = sum (at_ref sim_ns) /. 1e9;
    words = sum (fun _ t -> t.Cell.t_words);
    ref_ms = Stats.median (Array.to_list refs) /. 1e6;
  }

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* [f ()] timed again and again, each repetition bracketed by reference
   samples, until it has run [min_reps] times and [min_s] seconds have
   passed; returns the last result and the median time of one call in s,
   at reference speed and raw.  Each repetition starts from a compacted
   heap, so none pays for the garbage of the one before, and calls [f]
   [inner] times back to back, so a call of a few microseconds is not
   lost in the cold caches compaction leaves. *)
let timed_setup ?(inner = 1) ~min_reps ~min_s f =
  let at_ref = ref [] and raw = ref [] and last = ref None in
  let t_end = Refloop.now_ns () + int_of_float (min_s *. 1e9) in
  while List.length !raw < min_reps || Refloop.now_ns () < t_end do
    Gc.compact ();
    let r0 = float_of_int (Refloop.sample_ns ()) in
    let t0 = Refloop.now_ns () in
    for _ = 2 to inner do
      ignore (f ())
    done;
    let v = f () in
    let t1 = Refloop.now_ns () in
    let r1 = float_of_int (Refloop.sample_ns ()) in
    let s = float_of_int (t1 - t0) /. 1e9 /. float_of_int inner in
    raw := s :: !raw;
    at_ref := (s *. scale_of ((r0 +. r1) /. 2.0)) :: !at_ref;
    last := Some v
  done;
  (Option.get !last, Stats.median !at_ref, Stats.median !raw)

type workload = {
  cells : Cell.input array;
  serial : (string * int) list;
      (** kernel -> serial-machine cycles, where the cells do not include
          the serial scheme *)
  fixed : string list;
      (** kernels whose PreVV cycles [prevv_cycles] sums: the part of the
          workload no seed changes *)
}

let is_prevv c = Cell.family_of_scheme (Cell.scheme_name c) = "prevv"

let cells_of kernels schemes ~init =
  Array.of_list
    (List.concat_map
       (fun k -> List.map (fun dis -> { Cell.kernel = k; init = init k; dis }) schemes)
       kernels)

let paper_kernels () = Pv_kernels.Defs.paper_benchmarks ()

let paper_setup () =
  let kernels = paper_kernels () in
  {
    cells = cells_of kernels (Experiment.paper_configs ()) ~init:(fun _ -> None);
    serial = [];
    fixed = List.map (fun k -> k.Pv_kernels.Ast.name) kernels;
  }

(* The oracle and serial cycles of each paper kernel, the lower and upper
   bounds every paper-grid cell must fall between.  Computed once a run,
   untimed. *)
let paper_bounds () =
  let bound dis k = (Pipeline.simulate (Pipeline.compile k) dis).Pipeline.cycles in
  List.map
    (fun k -> (k.Pv_kernels.Ast.name, (bound Pipeline.oracle k, bound Pipeline.serial k)))
    (paper_kernels ())

(* Static memory accesses of a kernel: every load in its expressions and
   every store. *)
let accesses (k : Pv_kernels.Ast.kernel) =
  let loads e = List.length (Pv_kernels.Ast.expr_loads [] e) in
  let rec stmt = function
    | Pv_kernels.Ast.Store (_, i, v) -> 1 + loads i + loads v
    | Pv_kernels.Ast.For { lo; hi; body; _ } -> loads lo + loads hi + stmts body
    | Pv_kernels.Ast.If (c, a, b) -> loads c + stmts a + stmts b
  and stmts l = List.fold_left (fun n s -> n + stmt s) 0 l in
  stmts k.Pv_kernels.Ast.body

(* A generated kernel's size class: its body instances
   ([Interp.count_instances], 16 or 64 under the default spec) and its
   static accesses, bucketed as <=4, 5-6, 7+ (16 instances) or <=2, 3-4,
   5+ (64 instances). *)
let size_class (k, init) =
  let a = accesses k and n = Pv_kernels.Interp.count_instances k ~init in
  let edges = if n <= 16 then (4, 6) else (2, 4) in
  (n, if a <= fst edges then 0 else if a <= snd edges then 1 else 2)

(* 400 generated kernels per seed, 200 of 16 instances and 200 of 64 (so
   16,000 body instances), spread over the access buckets in the
   proportions 3,000 draws of the generator showed.  Quotas on instances
   alone let the seed move the pass time and the cell-time p90 by 5-9%;
   fewer kernels let it move the prevv/serial geomean by more than 10%. *)
let quotas =
  [
    ((16, 0), 41); ((16, 1), 76); ((16, 2), 83);
    ((64, 0), 97); ((64, 1), 79); ((64, 2), 24);
  ]

(* Every class fills in about 400 candidates; in 1,000 the rarest class
   (6% of candidates, quota 24) falls short with odds below 1 in 10^5. *)
let pool = 1000

let population ~seed =
  Perfbench.Population.draw ~pool ~quotas ~class_of:size_class
    ~candidate:(fun ~seed i ->
      let s = Perfbench.Population.sub_seed ~seed i in
      let k = Pv_kernels.Generate.kernel s in
      ({ k with Pv_kernels.Ast.name = Printf.sprintf "gen%d" s },
       Pv_kernels.Generate.init_for k s))
    ~seed ()

(* every bundled kernel outside the paper's five *)
let bundled_irregular () =
  let paper =
    List.map (fun k -> k.Pv_kernels.Ast.name) (Pv_kernels.Defs.paper_benchmarks ())
  in
  List.filter
    (fun k -> not (List.mem k.Pv_kernels.Ast.name paper))
    (Pv_kernels.Defs.all ())

let irregular_kernels ~seed () = (bundled_irregular (), population ~seed)

let irregular_setup ~seed () =
  let bundled, generated = irregular_kernels ~seed () in
  let schemes =
    List.map (fun (module S : Scheme.S) -> S.config) (Scheme.all ())
  in
  let inits = List.map (fun (k, i) -> (k.Pv_kernels.Ast.name, i)) generated in
  {
    cells =
      cells_of (bundled @ List.map fst generated) schemes ~init:(fun k ->
          List.assoc_opt k.Pv_kernels.Ast.name inits);
    serial = [];
    fixed = List.map (fun k -> k.Pv_kernels.Ast.name) bundled;
  }

(* ------------------------------------------------------------------ *)
(* Simulated figures                                                   *)
(* ------------------------------------------------------------------ *)

let kernel_of c = c.Cell.kernel.Pv_kernels.Ast.name

(* serial cycles per kernel: from the cells when the serial scheme runs
   in them, else from the set-up bounds *)
let serial_cycles w (outs : Cell.out array) =
  let from_cells =
    List.filter_map
      (fun i ->
        let c = w.cells.(i) in
        if Cell.scheme_name c = "serial" then Some (kernel_of c, outs.(i).Cell.cycles)
        else None)
      (List.init (Array.length w.cells) Fun.id)
  in
  from_cells @ w.serial

(* PreVV cycles over serial cycles, one ratio per (kernel, PreVV depth) *)
let prevv_over_serial w outs =
  let serial = serial_cycles w outs in
  List.filter_map
    (fun i ->
      let c = w.cells.(i) in
      if is_prevv c then
        Some
          (float_of_int outs.(i).Cell.cycles
          /. float_of_int (List.assoc (kernel_of c) serial))
      else None)
    (List.init (Array.length w.cells) Fun.id)

let prevv_cycles w (outs : Cell.out array) =
  let s = ref 0 in
  Array.iteri
    (fun i c ->
      if is_prevv c && List.mem (kernel_of c) w.fixed then
        s := !s + outs.(i).Cell.cycles)
    w.cells;
  !s

(* ------------------------------------------------------------------ *)
(* Traced passes                                                       *)
(* ------------------------------------------------------------------ *)

(* a traced pass: the outputs, the traced cells' wall time (ns, raw) and
   the pass's median reference sample *)
let run_traced_pass acc (cells : Cell.input array) =
  let refs = ref [] in
  let before = acc.Cell.cell_ns in
  let outs =
    Array.mapi
      (fun i c ->
        if i mod ref_every = 0 then
          refs := float_of_int (Refloop.sample_ns ()) :: !refs;
        Cell.traced acc c)
      cells
  in
  refs := float_of_int (Refloop.sample_ns ()) :: !refs;
  (outs, acc.Cell.cell_ns -. before, Stats.median !refs)
