(** Supervision over the worker pool — see the .mli and DESIGN.md §18. *)

module Token = struct
  type t = { flag : bool Atomic.t; deadline_ns : int64 option }

  let create ?deadline_s () =
    {
      flag = Atomic.make false;
      deadline_ns =
        Option.map
          (fun s -> Int64.add (Clock.now_ns ()) (Int64.of_float (s *. 1e9)))
          deadline_s;
    }

  let cancel t = Atomic.set t.flag true

  let cancelled t =
    Atomic.get t.flag
    ||
    match t.deadline_ns with
    | None -> false
    | Some d -> Int64.compare (Clock.now_ns ()) d > 0
end

type policy = {
  max_attempts : int;
  base_delay_s : float;
  max_delay_s : float;
  deadline_s : float option;
  seed : int;
  retryable : exn -> bool;
}

let default_policy =
  {
    max_attempts = 3;
    base_delay_s = 0.01;
    max_delay_s = 0.5;
    deadline_s = None;
    seed = 0;
    retryable = (function Invalid_argument _ -> false | _ -> true);
  }

(* Deterministic jitter in [0.5, 1.5): Hashtbl.hash over (seed, label,
   attempt) is stable across runs and processes for these immediate
   values, which is what makes the schedule reproducible. *)
let backoff_delay p ~label ~attempt =
  let exponential = p.base_delay_s *. (2.0 ** float_of_int (attempt - 1)) in
  let capped = Float.min exponential p.max_delay_s in
  let h = Hashtbl.hash (p.seed, label, attempt) in
  capped *. (0.5 +. (float_of_int (h land 1023) /. 1024.0))

let backoff_schedule p ~label =
  List.init (max 0 (p.max_attempts - 1)) (fun i ->
      backoff_delay p ~label ~attempt:(i + 1))

exception Kill_worker = Parallel.Kill_worker

type task_error = {
  label : string;
  attempts : int;
  last_error : string;
  deadline_hit : bool;
  worker_kills : int;
}

let pp_task_error ppf e =
  Format.fprintf ppf "%s: failed after %d attempt(s)%s%s: %s" e.label
    e.attempts
    (if e.deadline_hit then " (deadline)" else "")
    (if e.worker_kills > 0 then
       Printf.sprintf " (%d worker kill(s))" e.worker_kills
     else "")
    e.last_error

let task_error_to_json e =
  Pv_obs.Json.Obj
    [
      ("label", Pv_obs.Json.Str e.label);
      ("attempts", Pv_obs.Json.Int e.attempts);
      ("last_error", Pv_obs.Json.Str e.last_error);
      ("deadline_hit", Pv_obs.Json.Bool e.deadline_hit);
      ("worker_kills", Pv_obs.Json.Int e.worker_kills);
    ]

type stats = {
  completed : int;
  failed : int;
  retries : int;
  respawns : int;
  deadline_hits : int;
}

(* ------------------------------------------------------------------ *)
(* Attempt bookkeeping                                                 *)
(* ------------------------------------------------------------------ *)

let describe_exn = function
  | Pv_dataflow.Sim.Cancelled { at_cycle } ->
      Printf.sprintf "deadline exceeded (cancelled at cycle %d)" at_cycle
  | Invalid_argument m -> m
  | e -> Printexc.to_string e

(* per-task mutable state, written only by the one domain running the
   task's current attempt *)
type 'b slot = {
  s_label : string;
  mutable s_attempts : int;
  mutable s_kills : int;
  mutable s_deadline_hit : bool;  (** last failure was a deadline overrun *)
  mutable s_deadline_count : int;
  mutable s_last_error : string;
  mutable s_value : 'b option;
  mutable s_give_up : bool;  (** non-retryable failure or budget exhausted *)
}

let new_slot label =
  {
    s_label = label;
    s_attempts = 0;
    s_kills = 0;
    s_deadline_hit = false;
    s_deadline_count = 0;
    s_last_error = "";
    s_value = None;
    s_give_up = false;
  }

(* one attempt of one task; raises nothing but Kill_worker *)
let attempt policy f (s : _ slot) =
  s.s_attempts <- s.s_attempts + 1;
  let token = Token.create ?deadline_s:policy.deadline_s () in
  match f ~token with
  | v -> s.s_value <- Some v
  | exception Kill_worker ->
      s.s_kills <- s.s_kills + 1;
      s.s_deadline_hit <- false;
      s.s_last_error <- "worker killed mid-task";
      if s.s_attempts >= policy.max_attempts then s.s_give_up <- true;
      raise Kill_worker
  | exception e ->
      let dl = policy.deadline_s <> None && Token.cancelled token in
      s.s_deadline_hit <- dl;
      if dl then s.s_deadline_count <- s.s_deadline_count + 1;
      s.s_last_error <- describe_exn e;
      if s.s_attempts >= policy.max_attempts || not (policy.retryable e) then
        s.s_give_up <- true

let finished (s : _ slot) = s.s_value <> None || s.s_give_up

let result_of (s : _ slot) =
  match s.s_value with
  | Some v -> Ok v
  | None ->
      Error
        {
          label = s.s_label;
          attempts = s.s_attempts;
          last_error = s.s_last_error;
          deadline_hit = s.s_deadline_hit;
          worker_kills = s.s_kills;
        }

(* ------------------------------------------------------------------ *)
(* The attempt loop                                                    *)
(* ------------------------------------------------------------------ *)

(* Run attempts of one task on the current domain until it succeeds or
   gives up, sleeping the task's own backoff before every retry, then
   call [on_done].  Inline ([pool = None]) a killed attempt is just a
   failed one.  On a pool it ends the worker: the task hands what is
   left of its budget to a fresh job (which backs off first) and
   re-raises, so the pool spawns exactly one replacement. *)
let rec drive policy pool f (s : _ slot) on_done =
  if finished s then on_done ()
  else begin
    if s.s_attempts > 0 then
      Clock.sleep_s
        (backoff_delay policy ~label:s.s_label ~attempt:s.s_attempts);
    match attempt policy f s with
    | () -> drive policy pool f s on_done
    | exception Kill_worker -> (
        match pool with
        | None -> drive policy pool f s on_done
        | Some p ->
            if finished s then on_done ()
            else Parallel.submit p (fun () -> drive policy pool f s on_done);
            raise Kill_worker)
  end

(* start the task's attempt loop on the pool, or run it inline *)
let start policy pool f s on_done =
  let run () = drive policy pool f s on_done in
  match pool with None -> run () | Some p -> Parallel.submit p run

let supervise ?(policy = default_policy) ?pool ~label f k =
  let s = new_slot label in
  start policy pool f s (fun () -> k ~attempts:s.s_attempts (result_of s))

(* ------------------------------------------------------------------ *)

let run_tasks ?(policy = default_policy) ?metrics
    ?(metrics_prefix = "supervisor.") ?(log = Pv_obs.Log.null) ~jobs ~label f
    tasks =
  if policy.max_attempts < 1 then
    invalid_arg "Supervisor.run_tasks: max_attempts < 1";
  let tasks = Array.of_list tasks in
  let slots = Array.map (fun task -> new_slot (label task)) tasks in
  let jobs =
    max 1 (min (Parallel.effective_jobs jobs) (Array.length tasks))
  in
  let pool = if jobs <= 1 then None else Some (Parallel.create ~jobs) in
  Array.iteri
    (fun i task ->
      start policy pool (fun ~token -> f ~token task) slots.(i) ignore)
    tasks;
  Option.iter Parallel.shutdown pool;
  let respawns = Option.fold ~none:0 ~some:Parallel.respawns pool in
  let worker_jobs =
    Option.fold ~none:[ Array.length tasks ] ~some:Parallel.worker_jobs pool
  in
  let results = Array.to_list (Array.map result_of slots) in
  let stats =
    Array.fold_left
      (fun acc s ->
        {
          acc with
          completed = (acc.completed + if s.s_value <> None then 1 else 0);
          failed = (acc.failed + if s.s_value = None then 1 else 0);
          retries = acc.retries + max 0 (s.s_attempts - 1);
          deadline_hits = acc.deadline_hits + s.s_deadline_count;
        })
      { completed = 0; failed = 0; retries = 0; respawns; deadline_hits = 0 }
      slots
  in
  (match metrics with
  | None -> ()
  | Some m ->
      let module M = Pv_obs.Metrics in
      M.add m (metrics_prefix ^ "retries") stats.retries;
      M.add m (metrics_prefix ^ "respawns") stats.respawns;
      M.add m (metrics_prefix ^ "task_errors") stats.failed;
      M.add m (metrics_prefix ^ "deadline_hits") stats.deadline_hits;
      M.set_gauge_max m (metrics_prefix ^ "jobs_effective") jobs;
      List.iter (M.observe m (metrics_prefix ^ "worker_jobs")) worker_jobs);
  (* structured post-run logging: per-task anomalies (retries, kills,
     deadline overruns, final failures) plus one pool summary.  Emitted
     from the calling domain only, after the workers have joined, so the
     sink never sees concurrent writes. *)
  (let module L = Pv_obs.Log in
   let module J = Pv_obs.Json in
   if L.enabled log Warn then begin
     Array.iter
       (fun s ->
         if s.s_value = None then
           L.error log "task_failed"
             ~fields:
               [
                 ("task", J.Str s.s_label);
                 ("attempts", J.Int s.s_attempts);
                 ("worker_kills", J.Int s.s_kills);
                 ("deadline_hit", J.Bool s.s_deadline_hit);
                 ("error", J.Str s.s_last_error);
               ]
         else if s.s_attempts > 1 || s.s_kills > 0 || s.s_deadline_count > 0
         then
           L.warn log "task_retried"
             ~fields:
               [
                 ("task", J.Str s.s_label);
                 ("attempts", J.Int s.s_attempts);
                 ("worker_kills", J.Int s.s_kills);
                 ("deadline_hits", J.Int s.s_deadline_count);
               ])
       slots;
     if
       stats.retries > 0 || stats.respawns > 0 || stats.failed > 0
       || stats.deadline_hits > 0
     then
       L.warn log "pool_summary"
         ~fields:
           [
             ("jobs", J.Int jobs);
             ("completed", J.Int stats.completed);
             ("failed", J.Int stats.failed);
             ("retries", J.Int stats.retries);
             ("respawns", J.Int stats.respawns);
             ("deadline_hits", J.Int stats.deadline_hits);
           ]
   end);
  (results, stats)
