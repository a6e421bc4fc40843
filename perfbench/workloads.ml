(* The three workloads and the metrics each reports.  Every workload prints
   every metric; perfbench/NOTES.md says what each one measures on each
   workload. *)

module Stats = Perfbench.Stats
module Refloop = Perfbench.Refloop

(* A metric value; a host time also carries its raw, unscaled value. *)
type metric = { name : string; unit : string; value : float; raw : float option }

let v name unit value = { name; unit; value; raw = None }

(* a host time at reference speed, and raw *)
let host name unit ~at_ref ~raw = { name; unit; value = at_ref; raw = Some raw }

type result = {
  failures : string list;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let finish g metrics =
  {
    failures = Gate.failures g;
    attempted = g.Gate.attempted;
    failed = g.Gate.failed;
    metrics;
  }

let anchor g =
  let a = Anchor.run () in
  Gate.check g (a.Anchor.failures = []) "paper anchor: %s"
    (String.concat "; " a.Anchor.failures);
  a

(* The high-water mark of the major heap over the run, all domains.  It
   is a per-layer metric: identical runs of the same work read up to 15%
   apart, so no bound on it could both hold and mean anything. *)
let peak_heap () =
  v "process.peak_heap_mb" "MB"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6)

(* A percentile is a metric only with at least ten samples beyond it. *)
let pct g name unit p xs =
  let q = Stats.percentile p xs in
  print_endline (Stats.pp_pct name unit q);
  Gate.check g (Stats.usable q) "%s p%d has only %d samples beyond it" name p
    q.Stats.beyond;
  q.Stats.value

let digest_line ~workload ~seed cells outs =
  let buf = Buffer.create 4096 in
  Array.iteri (fun i c -> Cell.digest_line buf c outs.(i)) cells;
  Printf.printf "digest %s seed %d: %s (%d cells)\n" workload seed
    (Digest.to_hex (Digest.string (Buffer.contents buf)))
    (Array.length cells)

(* Set-up runs at least this many times and for at least this long; its
   median is [setup_s]. *)
let setup_reps = 9
let setup_min_s = 1.5

let past t = Refloop.now_ns () >= t
let after_s s = Refloop.now_ns () + int_of_float (s *. 1e9)

(* median time of [f ()] over at least five calls and 0.5 s, at reference
   speed, in ms *)
let timed_ms f =
  let (), s, _ =
    Batch.timed_setup ~min_reps:5 ~min_s:0.5 (fun () -> ignore (f ()))
  in
  1e3 *. s

(* Every cell verified, and every later pass equal to the first. *)
let check_first g (w : Batch.workload) (outs : Cell.out array) =
  Array.iteri
    (fun i (o : Cell.out) ->
      Gate.check g
        (o.Cell.finished && o.Cell.verified)
        "%s: not verified against the interpreter"
        (Cell.label w.Batch.cells.(i)))
    outs

let check_same g (w : Batch.workload) ~first what outs =
  Array.iteri
    (fun i o ->
      Gate.check g
        (Cell.same o first.(i))
        "%s: %s differs from the first pass"
        (Cell.label w.Batch.cells.(i))
        what)
    outs

(* untraced passes until [t_end], at least [min] *)
let passes g w ~first ~min ~t_end =
  let ps = ref [] in
  while List.length !ps < min || not (past t_end) do
    let p = Batch.run_pass w.Batch.cells in
    check_same g w ~first "a repeated pass" p.Batch.outs;
    ps := p :: !ps
  done;
  !ps

let med f xs = Stats.median (List.map f xs)

(* traced passes until [t_end], at least one; returns the accumulator, the
   pass count and the median traced pass time and reference sample *)
let traced_passes g w ~first ~t_end =
  let acc = Cell.fresh_acc () in
  let times = ref [] and refs = ref [] in
  while !times = [] || not (past t_end) do
    let outs, ns, r = Batch.run_traced_pass acc w.Batch.cells in
    check_same g w ~first "the traced run" outs;
    times := ns :: !times;
    refs := r :: !refs
  done;
  let measured_ref = Stats.median !refs in
  ( acc,
    List.length !times,
    Stats.median !times /. 1e9 *. Batch.scale_of measured_ref,
    measured_ref )

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

(* The layers of traced cells, per pass, at reference speed. *)
let cell_layers (acc : Cell.acc) ~passes ~measured_ref =
  let per_pass_ms ns =
    ns *. Batch.scale_of measured_ref /. float_of_int passes /. 1e6
  in
  let per_pass n = float_of_int n /. float_of_int passes in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let fam name = List.assoc name acc.Cell.fams in
  let fam_metrics name =
    let f = fam name in
    Array.to_list
      (Array.mapi
         (fun i slot -> v (name ^ "." ^ slot ^ "_ms") "ms" (per_pass_ms f.Cell.ns.(i)))
         Cell.slots)
    @ [
        v (name ^ ".calls") "count" (per_pass f.Cell.calls);
        v (name ^ ".words_per_cycle") "words/cycle"
          (if f.Cell.cycles = 0 then 0.0
           else Array.fold_left ( +. ) 0.0 f.Cell.words /. float_of_int f.Cell.cycles);
      ]
  in
  let prevv = fam "prevv" and lsq = fam "lsq" in
  [
    v "frontend.compile_ms" "ms" (per_pass_ms acc.Cell.compile_ns);
    v "kernels.interp_ms" "ms" (per_pass_ms acc.Cell.interp_ns);
    v "scheme.make_ms" "ms" (per_pass_ms acc.Cell.make_ns);
    v "bounds.prescience_ms" "ms" (per_pass_ms acc.Cell.prescience_ns);
    v "dataflow.self_ms" "ms" (per_pass_ms (acc.Cell.sim_ns -. acc.Cell.backend_ns));
    v "dataflow.evals_per_cycle" "evals/cycle" (ratio acc.Cell.evals acc.Cell.cycles);
  ]
  @ List.concat_map fam_metrics Cell.families
  @ [
      v "prevv.squashes" "count" (per_pass prevv.Cell.squashes);
      v "prevv.replayed_ops" "count" (per_pass prevv.Cell.replayed);
      v "prevv.load_accept_ratio" "ratio" (ratio prevv.Cell.loads prevv.Cell.load_reqs);
      v "lsq.stall_full" "count" (per_pass lsq.Cell.stall_full);
      v "lsq.stall_alloc" "count" (per_pass lsq.Cell.stall_alloc);
      v "lsq.stall_order" "count" (per_pass lsq.Cell.stall_order);
      v "memory.verify_ms" "ms" (per_pass_ms acc.Cell.verify_ns);
      v "resource.report_ms" "ms" (per_pass_ms acc.Cell.report_ns);
      v "trace.coverage_ratio" "ratio" (Cell.coverage acc);
    ]

(* The service layers, from one open-loop run.  The emit wait of a request
   is estimated as its hand-over-to-response time less its own closed-loop
   compute time ([compute_ms] of its cell; 0 for a repeat). *)
let service_layers g (r : Serve.run) ~compute_ms =
  let n = Array.length r.Serve.reqs in
  let ms ns = float_of_int ns /. 1e6 in
  let intake =
    List.init n (fun i -> ms (max 0 (r.Serve.call_ns.(i) - r.Serve.due_ns.(i))))
  in
  let late =
    List.init n (fun i ->
        ms (r.Serve.ret_ns.(i) - max r.Serve.call_ns.(i) r.Serve.due_ns.(i)))
  in
  let seen = Hashtbl.create 64 in
  let wait =
    List.init n (fun i ->
        let q = r.Serve.reqs.(i) in
        let c =
          if Hashtbl.mem seen q then 0.0
          else begin
            Hashtbl.add seen q ();
            compute_ms (q.Serve.kernel ^ "/" ^ q.Serve.backend)
          end
        in
        Float.max 0.0 (ms (r.Serve.emit_ns.(i) - r.Serve.ret_ns.(i)) -. c))
  in
  let s = r.Serve.summary in
  let intake_p50 = pct g "service.intake_lag_ms" "ms" 50 intake in
  let wait_p50 = pct g "service.emit_wait_ms" "ms" 50 wait in
  let wait_p90 = pct g "service.emit_wait_ms" "ms" 90 wait in
  let late_p99 = pct g "serve.gen_late_ms" "ms" 99 late in
  let hits = s.Pv_core.Service.cache_hits in
  [
    v "service.intake_lag_ms_p50" "ms" intake_p50;
    v "service.emit_wait_ms_p50" "ms" wait_p50;
    v "service.emit_wait_ms_p90" "ms" wait_p90;
    v "service.cache_hit_ratio" "ratio"
      (float_of_int hits
      /. float_of_int (max 1 (hits + s.Pv_core.Service.cache_misses)));
    v "service.dedup_hits" "count" (float_of_int s.Pv_core.Service.dedup_hits);
    v "service.queue_depth_max" "count"
      (float_of_int
         (Pv_obs.Metrics.gauge_value r.Serve.metrics "serve.queue_depth_max"));
    v "serve.gen_late_ms_p99" "ms" late_p99;
  ]

(* the service layers on a workload that runs no service *)
let service_layers_absent =
  List.map
    (fun (name, unit) -> v name unit 0.0)
    [
      ("service.intake_lag_ms_p50", "ms");
      ("service.emit_wait_ms_p50", "ms");
      ("service.emit_wait_ms_p90", "ms");
      ("service.cache_hit_ratio", "ratio");
      ("service.dedup_hits", "count");
      ("service.queue_depth_max", "count");
      ("serve.gen_late_ms_p99", "ms");
    ]

(* ------------------------------------------------------------------ *)
(* End-to-end figures every workload shares                            *)
(* ------------------------------------------------------------------ *)

let cycles_of (outs : Cell.out array) =
  Array.fold_left (fun s (o : Cell.out) -> s + o.Cell.cycles) 0 outs

(* the simulated figures of the first pass, and the anchor's gap *)
let simulated (w : Batch.workload) (first : Batch.pass) (a : Anchor.t) =
  let ratios = Batch.prevv_over_serial w first.Batch.outs in
  [
    v "alloc_words_per_cycle" "words/cycle"
      (first.Batch.words /. float_of_int (cycles_of first.Batch.outs));
    v "prevv_cycles" "cycles" (float_of_int (Batch.prevv_cycles w first.Batch.outs));
    v "paper_gap_pp" "pp" a.Anchor.gap_pp;
    v "prevv_over_serial_max" "ratio" (List.fold_left Float.max 0.0 ratios);
    v "prevv_over_serial_geomean" "ratio" (Stats.geomean ratios);
  ]

(* latency percentiles, at reference speed and raw *)
let latency g ~at_ref ~raw =
  let p50 = pct g "latency_ms" "ms" 50 at_ref in
  let p90 = pct g "latency_ms" "ms" 90 at_ref in
  let r50 = (Stats.percentile 50 raw).Stats.value in
  let r90 = (Stats.percentile 90 raw).Stats.value in
  [
    host "latency_ms_p50" "ms" ~at_ref:p50 ~raw:r50;
    host "latency_ms_p90" "ms" ~at_ref:p90 ~raw:r90;
  ]

(* simulated cycles over the median pass's time inside [Pipeline.simulate] *)
let sim_rate (first : Cell.out array) ps =
  let mcycles = float_of_int (cycles_of first) /. 1e6 in
  host "sim_mcycles_per_s" "Mcycles/s"
    ~at_ref:(mcycles /. med (fun p -> p.Batch.sim_s_at_ref) ps)
    ~raw:(mcycles /. med (fun p -> p.Batch.sim_s) ps)

(* ------------------------------------------------------------------ *)
(* paper-grid and irregular                                            *)
(* ------------------------------------------------------------------ *)

let batch ~paper ~seed ~seconds ~traced =
  let name = if paper then "paper-grid" else "irregular" in
  let g = Gate.create () in
  (* paper-grid's set-up only builds the kernels and the cell list, a
     couple of microseconds, so it is timed a thousand calls at a time *)
  let setup, inner =
    if paper then (Batch.paper_setup, 1000) else (Batch.irregular_setup ~seed, 1)
  in
  let w, setup_s, setup_raw =
    Batch.timed_setup ~inner ~min_reps:setup_reps ~min_s:setup_min_s setup
  in
  let a = anchor g in
  let bounds = if paper then Batch.paper_bounds () else [] in
  let w = { w with Batch.serial = List.map (fun (k, (_, s)) -> (k, s)) bounds } in
  let cells = w.Batch.cells in
  let n = Array.length cells in
  let t_end = after_s (float_of_int seconds) in
  let first = Batch.run_pass cells in
  check_first g w first.Batch.outs;
  if paper then
    List.iteri
      (fun i (p : Pv_core.Experiment.point) ->
        Gate.check g
          (p.Pv_core.Experiment.cycles = first.Batch.outs.(i).Cell.cycles)
          "%s: %d cycles, Experiment.paper_grid has %d" (Cell.label cells.(i))
          first.Batch.outs.(i).Cell.cycles p.Pv_core.Experiment.cycles)
      (List.concat a.Anchor.points);
  Array.iteri
    (fun i c ->
      Option.iter
        (fun (oracle, serial) ->
          let cy = first.Batch.outs.(i).Cell.cycles in
          Gate.check g
            (oracle <= cy && cy <= serial)
            "%s: %d cycles, outside the oracle and serial bounds %d..%d"
            (Cell.label c) cy oracle serial)
        (List.assoc_opt (Batch.kernel_of c) bounds))
    cells;
  digest_line ~workload:name ~seed cells first.Batch.outs;
  let first_outs = first.Batch.outs in
  (* untraced: the whole time, or the first 30% of a traced run *)
  let ps =
    passes g w ~first:first_outs ~min:3
      ~t_end:(if traced then after_s (0.3 *. float_of_int seconds) else t_end)
  in
  let pass_s = med (fun p -> p.Batch.pass_s_at_ref) ps in
  let pass_raw = med (fun p -> p.Batch.pass_s) ps in
  Printf.printf
    "%s: %d cells per pass, %d timed passes, pass %.4f s at reference speed \
     (raw %.4f s, reference %.4f ms)\n"
    name n (List.length ps) pass_s pass_raw
    (med (fun p -> p.Batch.ref_ms) ps);
  if not traced then begin
    let samples f = List.concat_map (fun p -> Array.to_list (f p)) ps in
    finish g
      ([
         host "setup_s" "s" ~at_ref:setup_s ~raw:setup_raw;
         host "cells_per_s" "1/s" ~at_ref:(float_of_int n /. pass_s)
           ~raw:(float_of_int n /. pass_raw);
         sim_rate first_outs ps;
       ]
      @ latency g
          ~at_ref:(samples (fun p -> p.Batch.cell_ms_at_ref))
          ~raw:(samples (fun p -> p.Batch.cell_ms))
      @ simulated w first a)
  end
  else begin
    let acc, k, traced_s, measured_ref =
      traced_passes g w ~first:first_outs ~t_end
    in
    Printf.printf
      "%s: %d traced passes, traced pass %.4f s at reference speed, coverage \
       %.4f\n"
      name k traced_s (Cell.coverage acc);
    let generate () =
      if paper then ignore (Batch.paper_kernels ())
      else ignore (Batch.irregular_kernels ~seed ())
    in
    finish g
      (cell_layers acc ~passes:k ~measured_ref
      @ [ v "kernels.generate_ms" "ms" (timed_ms generate) ]
      @ service_layers_absent
      @ [
          peak_heap ();
          v "host.ref_ms" "ms" (measured_ref /. 1e6);
          v "trace.overhead_ratio" "ratio" (traced_s /. pass_s);
        ])
  end

(* ------------------------------------------------------------------ *)
(* serve-open                                                          *)
(* ------------------------------------------------------------------ *)

let serve ~seed ~seconds ~traced =
  let g = Gate.create () in
  (* set-up: the expected answers, and a cold service start answering one
     request *)
  let one = [| (Serve.unique ~copies:1).(0) |] in
  let expected, setup_s, setup_raw =
    Batch.timed_setup ~min_reps:setup_reps ~min_s:setup_min_s (fun () ->
        let e = Serve.expected () in
        ignore (Serve.drive ~period_ns:0 one);
        e)
  in
  let t_end = after_s (float_of_int seconds) in
  let a = anchor g in
  let w = Serve.workload () in
  (* the closed-loop replay of every distinct cell: the simulated figures,
     the simulator's rate and each cell's own compute time *)
  let first = Batch.run_pass w.Batch.cells in
  check_first g w first.Batch.outs;
  digest_line ~workload:"serve-open" ~seed w.Batch.cells first.Batch.outs;
  let ps =
    passes g w ~first:first.Batch.outs ~min:3
      ~t_end:(after_s (0.1 *. float_of_int seconds))
  in
  let copies = 20 in
  let capacity_reqs = Serve.unique ~copies in
  (* one capacity step: its wall time in s at reference speed, and raw.
     It keeps every worker domain busy, so the reference loop is sampled on
     that many domains at once around it. *)
  let capacity () =
    let r0 = Refloop.sample_domains_ns (Serve.jobs ()) in
    let r = Serve.drive ~period_ns:0 capacity_reqs in
    let r1 = Refloop.sample_domains_ns (Serve.jobs ()) in
    Serve.check_run g expected "capacity step" r;
    let raw = float_of_int r.Serve.wall_ns /. 1e9 in
    (Serve.at_ref ~measured_ref:((r0 +. r1) /. 2.0) raw, raw)
  in
  let caps = ref [ capacity () ] in
  (* the open loop: 60% of the time, and at least [min_requests] *)
  let n =
    max Serve.min_requests
      (int_of_float (0.6 *. float_of_int seconds *. Serve.rate))
  in
  let r = Serve.drive ~period_ns:(int_of_float (1e9 /. Serve.rate)) (Serve.stream ~seed n) in
  Serve.check_run g expected "open loop" r;
  let s = r.Serve.summary in
  Printf.printf
    "serve-open: %d requests at %.0f req/s on %d workers: %d cache hits, %d \
     misses, %d dedup hits, service p50 %.3f ms\n"
    n Serve.rate (Serve.jobs ()) s.Pv_core.Service.cache_hits
    s.Pv_core.Service.cache_misses s.Pv_core.Service.dedup_hits
    s.Pv_core.Service.p50_ms;
  if not traced then begin
    while List.length !caps < 3 || not (past t_end) do
      caps := capacity () :: !caps
    done;
    let cap_s = med fst !caps and cap_raw = med snd !caps in
    Printf.printf
      "serve-open: capacity step %d requests, %.4f s at reference speed (raw \
       %.4f s, %d runs)\n"
      (Array.length capacity_reqs) cap_s cap_raw (List.length !caps);
    let reqs = float_of_int (Array.length capacity_reqs) in
    (* latency runs on the wall clock: pacing, not host speed, sets it *)
    let lat =
      List.init n (fun i ->
          float_of_int (r.Serve.emit_ns.(i) - r.Serve.due_ns.(i)) /. 1e6)
    in
    finish g
      ([
         host "setup_s" "s" ~at_ref:setup_s ~raw:setup_raw;
         host "cells_per_s" "1/s" ~at_ref:(reqs /. cap_s) ~raw:(reqs /. cap_raw);
         sim_rate first.Batch.outs ps;
       ]
      @ latency g ~at_ref:lat ~raw:lat
      @ simulated w first a)
  end
  else begin
    let pass_s = med (fun p -> p.Batch.pass_s_at_ref) ps in
    let acc, k, traced_s, measured_ref =
      traced_passes g w ~first:first.Batch.outs ~t_end
    in
    (* each cell's closed-loop compute time *)
    let cell_ms = Hashtbl.create 64 in
    Array.iteri
      (fun i c ->
        Hashtbl.replace cell_ms (Cell.label c) (med (fun p -> p.Batch.cell_ms.(i)) ps))
      w.Batch.cells;
    finish g
      (cell_layers acc ~passes:k ~measured_ref
      @ [ v "kernels.generate_ms" "ms" (timed_ms Serve.kernels_of) ]
      @ service_layers g r ~compute_ms:(Hashtbl.find cell_ms)
      @ [
          peak_heap ();
          v "host.ref_ms" "ms" (measured_ref /. 1e6);
          v "trace.overhead_ratio" "ratio" (traced_s /. pass_s);
        ])
  end
