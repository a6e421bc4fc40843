(* The supervision layer (DESIGN.md §18).

   The load-bearing properties:
   - backoff is seed-deterministic: same (policy, label) gives the same
     schedule, every delay respects the exponential envelope and cap;
   - a task that keeps failing is retried exactly max_attempts times and
     comes back as a structured task_error while the rest of the grid
     completes — one crash never poisons the batch;
   - a worker killed mid-task (Kill_worker) takes down only itself: the
     pool spawns exactly one replacement per kill and the task still
     completes within its attempt budget;
   - a cooperative deadline cancels a runaway task (the simulator's
     cancel hook raises Sim.Cancelled) and is reported as deadline_hit. *)

open Pv_core

exception Flaky of int

let quick_policy =
  {
    Supervisor.default_policy with
    Supervisor.base_delay_s = 0.0005;
    Supervisor.max_delay_s = 0.002;
  }

(* ------------------------------------------------------------------ *)
(* Backoff determinism                                                 *)
(* ------------------------------------------------------------------ *)

let test_backoff_deterministic () =
  let p = { quick_policy with Supervisor.max_attempts = 6; Supervisor.seed = 42 } in
  let a = Supervisor.backoff_schedule p ~label:"gaussian/prevv16" in
  let b = Supervisor.backoff_schedule p ~label:"gaussian/prevv16" in
  Alcotest.(check (list (float 0.0))) "same seed => same schedule" a b;
  Alcotest.(check int) "max_attempts - 1 delays" 5 (List.length a);
  (* a different seed or label jitters differently somewhere *)
  let c =
    Supervisor.backoff_schedule { p with Supervisor.seed = 43 }
      ~label:"gaussian/prevv16"
  in
  let d = Supervisor.backoff_schedule p ~label:"matvec/prevv16" in
  Alcotest.(check bool) "different seed differs" true (a <> c);
  Alcotest.(check bool) "different label differs" true (a <> d);
  (* envelope: delay n sits in [0.5, 1.5) x min(base * 2^(n-1), cap) *)
  List.iteri
    (fun i delay ->
      let base =
        Float.min
          (p.Supervisor.base_delay_s *. (2.0 ** float_of_int i))
          p.Supervisor.max_delay_s
      in
      Alcotest.(check bool)
        (Printf.sprintf "delay %d in envelope" (i + 1))
        true
        (delay >= 0.5 *. base && delay < 1.5 *. base))
    a

(* ------------------------------------------------------------------ *)
(* Crash isolation and retry budget                                    *)
(* ------------------------------------------------------------------ *)

let test_failing_task_isolated () =
  List.iter
    (fun jobs ->
      let results, stats =
        Supervisor.run_tasks ~policy:quick_policy ~jobs
          ~label:(Printf.sprintf "task%d")
          (fun ~token:_ i -> if i = 2 then raise (Flaky i) else i * 10)
          [ 0; 1; 2; 3; 4 ]
      in
      let tag = Printf.sprintf "(jobs=%d)" jobs in
      List.iteri
        (fun i r ->
          match (i, r) with
          | 2, Error (e : Supervisor.task_error) ->
              Alcotest.(check string)
                ("errors section names the point " ^ tag)
                "task2" e.Supervisor.label;
              Alcotest.(check int)
                ("attempts = budget " ^ tag)
                quick_policy.Supervisor.max_attempts e.Supervisor.attempts;
              Alcotest.(check bool)
                ("last exception recorded " ^ tag)
                true
                (e.Supervisor.last_error <> "")
          | 2, Ok _ -> Alcotest.fail ("task2 should fail " ^ tag)
          | i, Ok v ->
              Alcotest.(check int) ("rest of grid completes " ^ tag) (i * 10) v
          | _, Error _ -> Alcotest.fail ("only task2 may fail " ^ tag))
        results;
      Alcotest.(check int) ("completed " ^ tag) 4 stats.Supervisor.completed;
      Alcotest.(check int) ("failed " ^ tag) 1 stats.Supervisor.failed;
      Alcotest.(check int)
        ("retries = budget - 1 " ^ tag)
        (quick_policy.Supervisor.max_attempts - 1)
        stats.Supervisor.retries)
    [ 1; 2 ]

let test_non_retryable_fails_fast () =
  let results, stats =
    Supervisor.run_tasks ~policy:quick_policy ~jobs:1
      ~label:(Printf.sprintf "t%d")
      (fun ~token:_ i ->
        if i = 0 then invalid_arg "infeasible configuration" else i)
      [ 0; 1 ]
  in
  (match List.hd results with
  | Error e ->
      Alcotest.(check int) "one attempt only" 1 e.Supervisor.attempts;
      Alcotest.(check bool) "message kept" true
        (e.Supervisor.last_error <> "")
  | Ok _ -> Alcotest.fail "expected failure");
  Alcotest.(check int) "no retries burned" 0 stats.Supervisor.retries

let test_flaky_task_recovers () =
  (* fails twice, succeeds on the third attempt: inside the budget *)
  let tries = Atomic.make 0 in
  let results, stats =
    Supervisor.run_tasks ~policy:quick_policy ~jobs:1
      ~label:(fun _ -> "flaky")
      (fun ~token:_ () ->
        if Atomic.fetch_and_add tries 1 < 2 then raise (Flaky 0) else 99)
      [ () ]
  in
  (match results with
  | [ Ok v ] -> Alcotest.(check int) "recovered value" 99 v
  | _ -> Alcotest.fail "expected recovery");
  Alcotest.(check int) "two retries" 2 stats.Supervisor.retries;
  Alcotest.(check int) "no failure" 0 stats.Supervisor.failed

(* ------------------------------------------------------------------ *)
(* Killed workers                                                      *)
(* ------------------------------------------------------------------ *)

let test_killed_worker_respawned () =
  (* task 0 kills its worker once, then succeeds on retry; with 2
     workers over 6 tasks the pool must respawn and finish everything *)
  let killed = Atomic.make false in
  let results, stats =
    Supervisor.run_tasks ~policy:quick_policy ~jobs:2
      ~label:(Printf.sprintf "task%d")
      (fun ~token:_ i ->
        if i = 0 && not (Atomic.exchange killed true) then
          raise Supervisor.Kill_worker
        else i + 100)
      [ 0; 1; 2; 3; 4; 5 ]
  in
  List.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) (Printf.sprintf "task %d done" i) (i + 100) v
      | Error e ->
          Alcotest.failf "task %d failed: %s" i e.Supervisor.last_error)
    results;
  Alcotest.(check int) "all completed" 6 stats.Supervisor.completed;
  Alcotest.(check int) "one replacement" 1 stats.Supervisor.respawns;
  Alcotest.(check int) "the killed attempt is a retry" 1
    stats.Supervisor.retries

let test_one_respawn_per_kill () =
  (* three tasks kill their worker on their first two attempts: six
     kills on the pool, six replacements, every task still completes on
     its third attempt *)
  let kills = Atomic.make 0 in
  let tries = Array.init 9 (fun _ -> Atomic.make 0) in
  let results, stats =
    Supervisor.run_tasks ~policy:quick_policy ~jobs:3
      ~label:(Printf.sprintf "task%d")
      (fun ~token:_ i ->
        if i mod 3 = 0 && Atomic.fetch_and_add tries.(i) 1 < 2 then begin
          Atomic.incr kills;
          raise Supervisor.Kill_worker
        end;
        i)
      (List.init 9 Fun.id)
  in
  Alcotest.(check (list int)) "all tasks completed" (List.init 9 Fun.id)
    (List.map (function Ok v -> v | Error _ -> -1) results);
  Alcotest.(check int) "six kills" 6 (Atomic.get kills);
  Alcotest.(check int) "respawns = worker kills" (Atomic.get kills)
    stats.Supervisor.respawns

let test_kill_exhausts_budget () =
  (* a task that kills its worker every time ends as a task_error with
     the kill count recorded *)
  let results, _ =
    Supervisor.run_tasks
      ~policy:{ quick_policy with Supervisor.max_attempts = 2 }
      ~jobs:2
      ~label:(Printf.sprintf "task%d")
      (fun ~token:_ i ->
        if i = 0 then raise Supervisor.Kill_worker else i)
      [ 0; 1; 2 ]
  in
  match List.hd results with
  | Error e ->
      Alcotest.(check int) "attempts" 2 e.Supervisor.attempts;
      Alcotest.(check int) "kills recorded" 2 e.Supervisor.worker_kills
  | Ok _ -> Alcotest.fail "expected kill exhaustion"

(* ------------------------------------------------------------------ *)
(* Deadlines and cooperative cancellation                              *)
(* ------------------------------------------------------------------ *)

let test_token_deadline () =
  let t = Supervisor.Token.create ~deadline_s:(-1.0) () in
  Alcotest.(check bool) "past deadline already cancelled" true
    (Supervisor.Token.cancelled t);
  let u = Supervisor.Token.create () in
  Alcotest.(check bool) "fresh token live" false (Supervisor.Token.cancelled u);
  Supervisor.Token.cancel u;
  Alcotest.(check bool) "cancel sticks" true (Supervisor.Token.cancelled u)

let test_deadline_overrun_reported () =
  let policy =
    { quick_policy with
      Supervisor.max_attempts = 2;
      Supervisor.deadline_s = Some 0.02 }
  in
  let results, stats =
    Supervisor.run_tasks ~policy ~jobs:1
      ~label:(fun _ -> "spinner")
      (fun ~token () ->
        (* a runaway task that at least polls its token, like Sim does *)
        while not (Supervisor.Token.cancelled token) do
          ignore (Sys.opaque_identity ())
        done;
        raise Exit)
      [ () ]
  in
  (match results with
  | [ Error e ] ->
      Alcotest.(check bool) "deadline_hit" true e.Supervisor.deadline_hit;
      Alcotest.(check int) "retried to budget" 2 e.Supervisor.attempts
  | _ -> Alcotest.fail "expected deadline failure");
  Alcotest.(check int) "deadline hits counted" 2 stats.Supervisor.deadline_hits

let test_sim_cancel_hook () =
  (* the simulator's cancel hook, wired to each cell's token by
     Experiment.sweep: an already-expired deadline turns the run into a
     deterministic Cancelled error naming its cycle *)
  let policy =
    { quick_policy with
      Supervisor.max_attempts = 1;
      Supervisor.deadline_s = Some (-1.0) }
  in
  match
    Experiment.sweep ~policy
      [ (Pv_kernels.Defs.gaussian (), Pipeline.prevv 16) ]
  with
  | [ Error e ], _ ->
      Alcotest.(check bool) "deadline_hit" true e.Supervisor.deadline_hit;
      Alcotest.(check bool) "names the cancel cycle" true
        (String.starts_with ~prefix:"deadline exceeded (cancelled at cycle"
           e.Supervisor.last_error)
  | _ -> Alcotest.fail "cancelled run must not produce a point"

(* ------------------------------------------------------------------ *)
(* Supervised sweep over real cells                                    *)
(* ------------------------------------------------------------------ *)

let test_sweep_partial_results () =
  (* one infeasible cell (depth 2 cannot hold one body instance): the
     errors section names it, the other cells complete *)
  let kernel = Pv_kernels.Defs.gaussian () in
  let cells =
    [ (kernel, Pipeline.prevv 1); (kernel, Pipeline.prevv 16);
      (kernel, Pipeline.fast_lsq) ]
  in
  let m = Pv_obs.Metrics.create () in
  let results, stats =
    Experiment.sweep ~policy:quick_policy ~metrics:m ~jobs:2 cells
  in
  (match results with
  | [ Error e; Ok p16; Ok plsq ] ->
      Alcotest.(check string)
        "error names kernel/config" "gaussian/prevv1" e.Supervisor.label;
      Alcotest.(check int) "infeasible fails fast" 1 e.Supervisor.attempts;
      Alcotest.(check bool) "message is the bare Invalid_argument text" true
        (String.starts_with ~prefix:"PreVV: depth_q" e.Supervisor.last_error);
      Alcotest.(check bool) "points verified" true
        (p16.Experiment.verified && plsq.Experiment.verified)
  | _ -> Alcotest.fail "expected [Error; Ok; Ok]");
  Alcotest.(check int) "stats.completed" 2 stats.Supervisor.completed;
  Alcotest.(check int) "stats.failed" 1 stats.Supervisor.failed;
  (* the sweep matches the bare runs point for point *)
  let reference = Experiment.run kernel (Pipeline.prevv 16) in
  (match results with
  | [ _; Ok p; _ ] ->
      Alcotest.(check string) "same rendering as bare run"
        (Experiment.point_to_json reference)
        (Experiment.point_to_json p)
  | _ -> ());
  (* the task_error JSON is parseable and self-describing *)
  match results with
  | Error e :: _ -> (
      match
        Pv_obs.Json.parse (Pv_obs.Json.to_string (Supervisor.task_error_to_json e))
      with
      | Ok j ->
          Alcotest.(check (option string))
            "json label" (Some "gaussian/prevv1")
            (Option.bind (Pv_obs.Json.member "label" j) Pv_obs.Json.to_string_opt)
      | Error msg -> Alcotest.failf "task_error json unparseable: %s" msg)
  | _ -> ()

let test_paper_grid_shape () =
  let rows = Experiment.paper_grid ~jobs:2 () in
  Alcotest.(check int) "five kernel rows" 5 (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check int) "four configs per row" 4 (List.length row);
      List.iter
        (fun (p : Experiment.point) ->
          Alcotest.(check bool)
            (p.Experiment.kernel ^ "/" ^ p.Experiment.config ^ " verified")
            true p.Experiment.verified)
        row)
    rows

let () =
  Alcotest.run "supervisor"
    [
      ( "backoff",
        [ Alcotest.test_case "deterministic schedule" `Quick
            test_backoff_deterministic ] );
      ( "isolation",
        [
          Alcotest.test_case "failing task isolated" `Quick
            test_failing_task_isolated;
          Alcotest.test_case "non-retryable fails fast" `Quick
            test_non_retryable_fails_fast;
          Alcotest.test_case "flaky task recovers" `Quick
            test_flaky_task_recovers;
        ] );
      ( "kills",
        [
          Alcotest.test_case "killed worker respawned" `Quick
            test_killed_worker_respawned;
          Alcotest.test_case "kill exhausts budget" `Quick
            test_kill_exhausts_budget;
          Alcotest.test_case "one respawn per kill" `Quick
            test_one_respawn_per_kill;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "token deadline" `Quick test_token_deadline;
          Alcotest.test_case "deadline overrun reported" `Quick
            test_deadline_overrun_reported;
          Alcotest.test_case "sim cancel hook" `Quick test_sim_cancel_hook;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "partial results + errors section" `Quick
            test_sweep_partial_results;
          Alcotest.test_case "paper grid shape" `Quick test_paper_grid_shape;
        ] );
    ]
