(** The [BENCH_sim.json] schema tag and the regression check of a fresh
    bench run against a committed baseline ([bench/main.exe --check]).

    The check runs seven gates and names the gate in each failure:
    - [schema]: the fresh file carries {!schema} and the committed file
      the same tag, so a schema bump cannot land without a new baseline;
    - [event-speed]: [geomean_event_time_ratio < 1] in both files, and
      every kernel's [event_time_ratio < 1] in the committed one;
    - [allocation]: [allocs_per_cycle] scan = event = 0 in both files
      (the slope measurement is deterministic, so an equality);
    - [equivalence]: every regime of both files is [equivalent];
    - [throughput]: per kernel, the fresh event-engine [cycles_per_s]
      under the file's backend is at least 0.8x the committed value
      scaled by the runner's speed, the geomean of fresh/committed scan
      [cycles_per_s];
    - [grid]: [jobs_effective = jobs_requested = jobs],
      [parallel_speedup > 1] and [identical_to_serial] in the fresh file;
    - [soak]: in the fresh file, [lost = 0], [overload.lost = 0],
      [worker_kills >= 1], [respawns >= 1], [shed = 0],
      [overload.shed > 0] and [identical_to_serial_replay]. *)

(** The schema tag the bench writer emits and the check expects. *)
val schema : string

(** [check ~jobs ~committed ~fresh] runs every gate.  [Ok] carries a
    one-line summary with the runner speed factor; [Error] lists each
    failed assertion as ["gate: detail"].  A missing or mistyped field
    fails the gate that reads it. *)
val check :
  jobs:int -> committed:Pv_obs.Json.t -> fresh:Pv_obs.Json.t ->
  (string, string list) result

(** Read and parse a JSON file. *)
val load : string -> (Pv_obs.Json.t, string) result
