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

(** Map a simulation scheme to the area model's configuration (paper-unit
    depths). *)
val elaboration_of :
  Pipeline.disambiguation -> Pv_netlist.Elaborate.disambiguation

(** Run one (kernel, scheme) point: compile, simulate, verify, elaborate.
    @raise Invalid_argument for infeasible configurations (e.g. a queue
    depth below one iteration's operation count). *)
val run :
  ?sim_cfg:Pv_dataflow.Sim.config ->
  ?init:(string * int array) list ->
  Pv_kernels.Ast.kernel ->
  Pipeline.disambiguation ->
  point

(** Content address of one evaluation point: a digest of the kernel AST,
    input data, scheme configuration and simulator configuration (engine,
    budgets, fault plan, sampled per-unit latencies).  Two cells with equal
    keys produce equal points; wall-clock timing is never part of a point,
    so cached results are exact. *)
val cache_key :
  ?sim_cfg:Pv_dataflow.Sim.config ->
  ?init:(string * int array) list ->
  Pv_kernels.Ast.kernel ->
  Pipeline.disambiguation ->
  string

(** {!run} through a {!Parallel.Cache}: a hit returns the stored point
    without compiling or simulating anything.
    @raise Invalid_argument as {!run} (errors are never cached). *)
val run_cached :
  ?sim_cfg:Pv_dataflow.Sim.config ->
  ?init:(string * int array) list ->
  cache:Parallel.Cache.t ->
  Pv_kernels.Ast.kernel ->
  Pipeline.disambiguation ->
  point * [ `Hit | `Miss ]

(** Fan (kernel, scheme) cells across [jobs] worker domains (default 1 =
    serial on the calling domain) under {!Supervisor.run_tasks}: one
    result per cell, in cell order, plus the run's {!Supervisor.stats}.
    Each cell's token is wired into [Sim.config.cancel]; failed cells are
    retried per [policy] (default {!Supervisor.default_policy}), and a
    cell that exhausts its budget — or is infeasible, never retried —
    comes back as a {!Supervisor.task_error} while the rest of the grid
    completes.  Workers never print.

    [metrics] aggregates the sweep: each point's own snapshot is absorbed
    (deterministic), plus [runner.*] telemetry — point/error counts and a
    cycles histogram (deterministic), and the supervisor's retry/respawn
    counters, cache-hit deltas, effective job count and a per-worker load
    histogram (runtime-dependent by nature; drop [runner.]-prefixed
    entries when comparing runs). *)
val sweep :
  ?policy:Supervisor.policy ->
  ?sim_cfg:Pv_dataflow.Sim.config ->
  ?cache:Parallel.Cache.t ->
  ?metrics:Pv_obs.Metrics.t ->
  ?jobs:int ->
  (Pv_kernels.Ast.kernel * Pipeline.disambiguation) list ->
  (point, Supervisor.task_error) result list * Supervisor.stats

(** The paper's four evaluated configurations, in table-column order:
    [15], [8], PreVV16, PreVV64. *)
val paper_configs : unit -> Pipeline.disambiguation list

(** The full grid for the paper's five kernels (Tables I & II): one row
    per kernel, one point per configuration.  [jobs] fans the cells across
    that many worker domains (default 1 = serial); [cache] reuses stored
    points.  The result is identical whatever the worker count.
    @raise Failure naming the cell if any cell ends as a task error. *)
val paper_grid :
  ?sim_cfg:Pv_dataflow.Sim.config ->
  ?cache:Parallel.Cache.t ->
  ?jobs:int ->
  unit ->
  point list list

(** Deterministic JSON value of a point (no timing fields beyond the
    modelled [exec_us]; [cp_ns] and [exec_us] at 4 decimals): the [result]
    of a [prevv serve] response and a cell of [prevv sweep --json]. *)
val point_json : point -> Pv_obs.Json.t

(** [point_json] rendered compactly — the byte-identity surface of the
    parallel-vs-serial determinism harness. *)
val point_to_json : point -> string

(** Percentage delta [100 * (a/b - 1)], integer and float versions. *)
val pct : int -> int -> float

val pctf : float -> float -> float

(** Geometric mean of a non-empty list of ratios. *)
val geomean : float list -> float
