(** One evaluation point: a kernel under a disambiguation scheme, with
    cycle count (simulated), area and clock period (modelled), and
    execution time — one cell group of Tables I and II. *)

type point = {
  kernel : string;
  config : string;
  cycles : int;
  report : Pv_resource.Report.t;
  exec_us : float;
  mem_stats : Pv_dataflow.Memif.stats;
  verified : bool;  (** final memory matched the reference interpreter *)
  metrics : Pv_obs.Metrics.snapshot;
      (** per-run metric snapshot (cycles, fires, backend traffic, arbiter
          tallies — see [Pipeline.simulate]).  Deterministic: identical
          across engines and worker counts, and marshal-safe so it rides
          the result cache. *)
}

let elaboration_of (dis : Pipeline.disambiguation) :
    Pv_netlist.Elaborate.disambiguation =
  Scheme.elaboration_of dis

(** Run one (kernel, scheme) point: compile, simulate, verify, elaborate. *)
let run ?sim_cfg ?init (kernel : Pv_kernels.Ast.kernel)
    (dis : Pipeline.disambiguation) : point =
  let compiled = Pipeline.compile kernel in
  let m = Pv_obs.Metrics.create () in
  let result = Pipeline.simulate ?sim_cfg ?init ~metrics:m compiled dis in
  let verified =
    match result.Pipeline.outcome with
    | Pv_dataflow.Sim.Finished _ -> Pipeline.verify ?init compiled result = []
    | _ -> false
  in
  let report =
    Pv_resource.Report.of_circuit compiled.Pipeline.graph
      compiled.Pipeline.info.Pv_frontend.Depend.portmap (elaboration_of dis)
  in
  {
    kernel = kernel.Pv_kernels.Ast.name;
    config = Pipeline.name_of dis;
    cycles = result.Pipeline.cycles;
    report;
    exec_us =
      Pv_resource.Timing.exec_time_us ~cycles:result.Pipeline.cycles
        ~cp_ns:report.Pv_resource.Report.cp_ns;
    mem_stats = result.Pipeline.mem_stats;
    verified;
    metrics = Pv_obs.Metrics.snapshot m;
  }

(* ------------------------------------------------------------------ *)
(* Result caching                                                      *)
(* ------------------------------------------------------------------ *)

(* every functional-unit kind, so a sim config's latency function can be
   fingerprinted by sampling (the closure itself is not marshalable) *)
let all_binops : Pv_dataflow.Types.binop list =
  Pv_dataflow.Types.
    [
      Add; Sub; Mul; Mulc; Div; Rem; And; Or; Xor; Shl; Shr; Lt; Le; Gt; Ge;
      Eq; Ne; Min; Max;
    ]

(** Content address of one evaluation point: a digest over everything that
    determines the result — kernel AST, input data, the full scheme
    configuration, and the simulator configuration (engine, budgets, fault
    plan, per-unit latencies).  Wall-clock timing is never part of a
    [point], so cached results are exact.  The salt names the schema: bump
    it whenever [point] or any constituent record changes shape. *)
let cache_key ?(sim_cfg = Pv_dataflow.Sim.default_config) ?init
    (kernel : Pv_kernels.Ast.kernel) (dis : Pipeline.disambiguation) : string =
  let module Sim = Pv_dataflow.Sim in
  let init =
    match init with
    | Some i -> i
    | None -> Pv_kernels.Workload.default_init kernel
  in
  (* the scheme's own fingerprint covers its full configuration; the name
     keys distinct families whose configs could collide byte-wise *)
  let dis_repr = (Scheme.name_of dis, Scheme.fingerprint_of dis) in
  let sim_repr =
    ( Sim.string_of_engine sim_cfg.Sim.engine,
      sim_cfg.Sim.max_cycles,
      sim_cfg.Sim.stall_limit,
      Marshal.to_string sim_cfg.Sim.faults [],
      List.map sim_cfg.Sim.op_latency all_binops )
  in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string ("prevv-expt/v3", kernel, init, dis_repr, sim_repr) []))

(** {!run} through a {!Parallel.Cache}: a hit returns the stored point
    without compiling or simulating anything. *)
let run_cached ?sim_cfg ?init ~cache kernel dis : point * [ `Hit | `Miss ] =
  let key = cache_key ?sim_cfg ?init kernel dis in
  Parallel.Cache.memo cache ~key (fun () -> run ?sim_cfg ?init kernel dis)

(* ------------------------------------------------------------------ *)
(* Sweep driver                                                        *)
(* ------------------------------------------------------------------ *)

let cell_label (kernel, dis) =
  kernel.Pv_kernels.Ast.name ^ "/" ^ Pipeline.name_of dis

(** Fan (kernel, scheme) cells across [jobs] worker domains under
    {!Supervisor.run_tasks}, in cell order.  Each cell runs with a fresh
    cancellation token wired into the simulator's [cancel] hook; crashes
    and deadline overruns are retried per [policy], and cells that
    exhaust the budget (or are infeasible) come back as structured
    {!Supervisor.task_error}s while the rest of the grid completes.  The
    token never enters {!cache_key}.  Workers only compute; any printing
    belongs to the caller, after the sweep.

    [metrics] (optional) aggregates the sweep: every point's own snapshot
    is absorbed (deterministic), plus [runner.*] telemetry — point/error
    counts and a cycles histogram (deterministic), and the supervisor's
    counters, cache-hit deltas, effective job count and a per-worker load
    histogram (runtime-dependent by nature; strip the [runner.] prefix
    when comparing runs). *)
let sweep ?policy ?sim_cfg ?cache ?metrics ?(jobs = 1) cells :
    (point, Supervisor.task_error) result list * Supervisor.stats =
  let hits0, misses0 =
    match cache with
    | Some c -> (Parallel.Cache.hits c, Parallel.Cache.misses c)
    | None -> (0, 0)
  in
  let base =
    Option.value sim_cfg ~default:Pv_dataflow.Sim.default_config
  in
  let f ~token (kernel, dis) =
    let sim_cfg =
      {
        base with
        Pv_dataflow.Sim.cancel =
          (fun () -> Supervisor.Token.cancelled token);
      }
    in
    match cache with
    | None -> run ~sim_cfg kernel dis
    | Some cache -> fst (run_cached ~sim_cfg ~cache kernel dis)
  in
  let results, stats =
    Supervisor.run_tasks ?policy ?metrics ~metrics_prefix:"runner." ~jobs
      ~label:cell_label f cells
  in
  (match metrics with
  | None -> ()
  | Some m ->
      let module M = Pv_obs.Metrics in
      List.iter
        (function
          | Ok p ->
              M.incr m "runner.points";
              M.observe m "runner.point_cycles" p.cycles;
              M.absorb m p.metrics
          | Error _ -> M.incr m "runner.errors")
        results;
      (match cache with
      | Some c ->
          M.add m "runner.cache_hits" (Parallel.Cache.hits c - hits0);
          M.add m "runner.cache_misses" (Parallel.Cache.misses c - misses0)
      | None -> ()));
  (results, stats)

(** The paper's four evaluated configurations, in table-column order. *)
let paper_configs () =
  [ Pipeline.plain_lsq; Pipeline.fast_lsq; Pipeline.prevv 16; Pipeline.prevv 64 ]

(** Run the full grid for the paper's five kernels (Tables I & II),
    optionally across [jobs] domains and through a result cache.  The
    returned rows are identical whatever the worker count: every point is
    deterministic and is computed from private state. *)
let paper_grid ?sim_cfg ?cache ?(jobs = 1) () : point list list =
  let configs = paper_configs () in
  let kernels = Pv_kernels.Defs.paper_benchmarks () in
  let cells =
    List.concat_map (fun k -> List.map (fun d -> (k, d)) configs) kernels
  in
  let results, _stats = sweep ?sim_cfg ?cache ~jobs cells in
  let points =
    Array.of_list
      (List.map
         (function
           | Ok p -> p
           | Error e ->
               failwith
                 (Format.asprintf "paper_grid: %a" Supervisor.pp_task_error e))
         results)
  in
  (* cells are kernel-major: row [r] holds points [r * width ..] *)
  let width = List.length configs in
  List.mapi (fun r _ -> Array.to_list (Array.sub points (r * width) width))
    kernels

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let point_json (p : point) =
  let module J = Pv_obs.Json in
  let r = p.report in
  J.Obj
    [
      ("kernel", J.Str p.kernel);
      ("config", J.Str p.config);
      ("cycles", J.Int p.cycles);
      ("luts", J.Int r.Pv_resource.Report.luts);
      ("ffs", J.Int r.Pv_resource.Report.ffs);
      ("cp_ns", J.fixed 4 r.Pv_resource.Report.cp_ns);
      ("exec_us", J.fixed 4 p.exec_us);
      ("queue_luts", J.Int r.Pv_resource.Report.queue_luts);
      ("queue_ffs", J.Int r.Pv_resource.Report.queue_ffs);
      ("squashes", J.Int p.mem_stats.Pv_dataflow.Memif.squashes);
      ("stall_full", J.Int p.mem_stats.Pv_dataflow.Memif.stall_full);
      ("verified", J.Bool p.verified);
    ]

let point_to_json p = Pv_obs.Json.to_string (point_json p)

let pct a b = 100.0 *. (float_of_int a /. float_of_int b -. 1.0)
let pctf a b = 100.0 *. ((a /. b) -. 1.0)

let geomean ratios =
  exp (List.fold_left (fun acc r -> acc +. log r) 0.0 ratios
       /. float_of_int (List.length ratios))
