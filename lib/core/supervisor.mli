(** Supervision: a task wrapper over the {!Parallel} worker pool with
    crash isolation, per-task deadlines and deterministic retry with
    exponential backoff.

    {!Parallel.map} is exception-transparent: one raising task re-raises
    after the batch, poisoning the whole grid.  This module wraps every
    task in an attempt loop that runs inside the worker, so that

    - an uncaught exception marks only that task failed;
    - a per-attempt deadline (cooperative: the task polls its
      {!Token}, the simulator raises {!Pv_dataflow.Sim.Cancelled}) turns a
      runaway task into a retried one instead of a hung grid;
    - a killed worker (a task raising {!Kill_worker}, the chaos-testing
      stand-in for a dying domain) takes down only itself: the pool
      spawns one replacement and the task is resubmitted with what is
      left of its attempt budget;
    - failed tasks are retried, each after its own seed-deterministic
      exponential backoff, up to [max_attempts], then reported as a
      structured {!task_error} — the caller always receives one result
      per task.

    With no pool (or [jobs <= 1]) the same loop runs inline on the
    calling domain: the serial reference.

    DESIGN.md §18 specifies the task lifecycle and policy semantics. *)

(** {1 Cancellation tokens} *)

module Token : sig
  (** A cooperative cancellation token: a flag the owner may set, plus an
      optional monotonic-clock deadline.  Tasks (and {!Pv_dataflow.Sim}
      via its [config.cancel] hook) poll {!cancelled}. *)

  type t

  (** [create ?deadline_s ()] — [deadline_s] is seconds from now on the
      monotonic clock ({!Clock}). *)
  val create : ?deadline_s:float -> unit -> t

  (** Set the flag (idempotent, thread-safe). *)
  val cancel : t -> unit

  (** True once {!cancel} was called or the deadline passed. *)
  val cancelled : t -> bool
end

(** {1 Policy} *)

type policy = {
  max_attempts : int;  (** total tries per task (>= 1) *)
  base_delay_s : float;  (** backoff after the first failure *)
  max_delay_s : float;  (** backoff ceiling *)
  deadline_s : float option;  (** per-attempt cooperative deadline *)
  seed : int;  (** jitter seed: same seed => same schedule *)
  retryable : exn -> bool;
      (** which failures are worth retrying; {!default_policy} retries
          everything except [Invalid_argument] (an infeasible
          configuration never becomes feasible) *)
}

(** 3 attempts, 10 ms base, 500 ms ceiling, no deadline, seed 0. *)
val default_policy : policy

(** [backoff_delay policy ~label ~attempt] — the delay in seconds before
    retry number [attempt] (the first retry is [attempt = 1]) of the task
    named [label]: exponential ([base * 2^(attempt-1)], capped at
    [max_delay_s]) with a deterministic jitter factor in [0.5, 1.5)
    derived from [(seed, label, attempt)].  Pure: same policy, label and
    attempt always give the same delay. *)
val backoff_delay : policy -> label:string -> attempt:int -> float

(** The full per-task schedule [backoff_delay ~attempt:1 .. max_attempts-1]
    — what a task would sleep between its successive attempts. *)
val backoff_schedule : policy -> label:string -> float list

(** {1 Task outcomes} *)

(** Raised by a task to simulate its worker domain dying mid-task — the
    chaos-testing kill switch ({!Parallel.Kill_worker}).  The attempt
    counts as failed and retryable; on a pool the worker dies and is
    replaced, inline the loop simply goes on. *)
exception Kill_worker

type task_error = {
  label : string;  (** e.g. ["gaussian/prevv16"] *)
  attempts : int;  (** attempts actually made *)
  last_error : string;
      (** the last failure, in the one wording [prevv serve] error bodies
          and sweep [infeasible: <msg>] lines share: [Invalid_argument m]
          is [m], a deadline cancellation names its cycle, anything else
          is [Printexc.to_string] *)
  deadline_hit : bool;  (** the last failure was a deadline overrun *)
  worker_kills : int;  (** attempts that died with {!Kill_worker} *)
}

val pp_task_error : Format.formatter -> task_error -> unit

(** Deterministic JSON object for an errors section. *)
val task_error_to_json : task_error -> Pv_obs.Json.t

type stats = {
  completed : int;  (** tasks that returned a value *)
  failed : int;  (** tasks reported as {!task_error} *)
  retries : int;  (** extra attempts beyond each task's first *)
  respawns : int;  (** replacement workers spawned after kills *)
  deadline_hits : int;  (** attempts cancelled by their deadline *)
}

(** {1 Running} *)

(** [supervise ~pool ~label f k] runs one task under the attempt loop and
    calls [k ~attempts result] exactly once when it ends ([attempts]
    counts killed attempts too).  With [pool] the attempts run on its
    workers, [k] runs on whichever worker ends the task, and [supervise]
    returns at once; without, everything runs on the calling domain before
    [supervise] returns.  [f] gets a fresh {!Token} per attempt. *)
val supervise :
  ?policy:policy ->
  ?pool:Parallel.pool ->
  label:string ->
  (token:Token.t -> 'b) ->
  (attempts:int -> ('b, task_error) result -> unit) ->
  unit

(** [run_tasks ~jobs ~label f tasks] runs every task under supervision and
    returns one result per task, in task order, plus the run's {!stats}.
    [f] receives a fresh {!Token} per attempt (wire it into
    [Sim.config.cancel] for cooperative deadlines).  The tasks run on a
    transient {!Parallel} pool of [min jobs (List.length tasks)] workers;
    [jobs <= 1] runs them serially on the calling domain — the
    deterministic reference.  [metrics] (optional) gets [<prefix>retries]
    / [<prefix>respawns] / [<prefix>task_errors] / [<prefix>deadline_hits]
    counters, the [<prefix>jobs_effective] gauge and one
    [<prefix>worker_jobs] observation per worker
    ([metrics_prefix] defaults to ["supervisor."]).  [log] (default
    {!Pv_obs.Log.null}) receives one structured line per anomalous task
    ([task_retried] at Warn, [task_failed] at Error) and a [pool_summary]
    line when any retry/kill/failure occurred — emitted post-run from the
    calling domain, so a single-writer sink suffices.

    Tasks must not print; ordering and content of the returned list are
    deterministic given a deterministic task function (wall-clock
    deadlines excepted — see DESIGN.md §18). *)
val run_tasks :
  ?policy:policy ->
  ?metrics:Pv_obs.Metrics.t ->
  ?metrics_prefix:string ->
  ?log:Pv_obs.Log.t ->
  jobs:int ->
  label:('a -> string) ->
  (token:Token.t -> 'a -> 'b) ->
  'a list ->
  ('b, task_error) result list * stats
