(** LDJSON experiment service — see the .mli and DESIGN.md §18. *)

module Json = Pv_obs.Json
module Sim = Pv_dataflow.Sim

type request = {
  id : string;
  kernel : string;
  backend : string;
  engine : Sim.engine;
  max_cycles : int option;
  fault_seed : int option;
}

let request ~id ~kernel ~backend ?(engine = Sim.Event) ?max_cycles ?fault_seed
    () =
  { id; kernel; backend; engine; max_cycles; fault_seed }

let ( let* ) = Result.bind

let parse_request line =
  match Json.parse line with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok j ->
      let str_field name =
        match Json.member name j with
        | Some (Json.Str s) -> Ok s
        | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
        | None -> Error (Printf.sprintf "missing field %S" name)
      in
      let int_field name =
        match Json.member name j with
        | Some (Json.Int i) -> Ok (Some i)
        | None | Some Json.Null -> Ok None
        | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)
      in
      let* id = str_field "id" in
      let* kernel = str_field "kernel" in
      let* backend = str_field "backend" in
      let* engine =
        match Json.member "engine" j with
        | None | Some Json.Null -> Ok Sim.Event
        | Some (Json.Str s) -> (
            match Sim.engine_of_string s with
            | Some e -> Ok e
            | None -> Error (Printf.sprintf "unknown engine %S" s))
        | Some _ -> Error "field \"engine\" must be a string"
      in
      let* max_cycles = int_field "max_cycles" in
      let* fault_seed = int_field "fault_seed" in
      Ok { id; kernel; backend; engine; max_cycles; fault_seed }

let request_to_json r =
  Json.to_string
    (Json.Obj
       ([
          ("id", Json.Str r.id);
          ("kernel", Json.Str r.kernel);
          ("backend", Json.Str r.backend);
          ("engine", Json.Str (Sim.string_of_engine r.engine));
        ]
       @ (match r.max_cycles with
         | Some n -> [ ("max_cycles", Json.Int n) ]
         | None -> [])
       @
       match r.fault_seed with
       | Some n -> [ ("fault_seed", Json.Int n) ]
       | None -> []))

(* the id is deliberately excluded: two requests differing only in id are
   the same computation and share one in-flight slot / cache entry *)
let request_key r =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( "prevv-serve/v1",
            r.kernel,
            r.backend,
            Sim.string_of_engine r.engine,
            r.max_cycles,
            r.fault_seed )
          []))

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  jobs : int;
  queue_capacity : int;
  policy : Supervisor.policy;
  cache : Parallel.Cache.t option;
  kill_at : int list;
  stats_interval : float option;
      (** emit a {"type":"stats",...} frame at least this many seconds
          apart (checked between requests); [None] = never *)
  log : Pv_obs.Log.t;  (** structured operational log (sheds, kills, drain) *)
}

let default_config =
  {
    jobs = 1;
    queue_capacity = 256;
    policy = Supervisor.default_policy;
    cache = None;
    kill_at = [];
    stats_interval = None;
    log = Pv_obs.Log.null;
  }

(* ------------------------------------------------------------------ *)
(* Responses (deterministic: no timing, no attempt counts)             *)
(* ------------------------------------------------------------------ *)

let response id status fields =
  Json.to_string
    (Json.Obj (("id", id) :: ("status", Json.Str status) :: fields))

let ok_line id point = response (Json.Str id) "ok" [ ("result", point) ]

let error_line id msg =
  response (Json.Str id) "error" [ ("error", Json.Str msg) ]

let overloaded_line id ~retry_after_ms =
  response (Json.Str id) "overloaded"
    [ ("retry_after_ms", Json.Int retry_after_ms) ]

let bad_line msg =
  response Json.Null "bad_request" [ ("error", Json.Str msg) ]

(* ------------------------------------------------------------------ *)
(* Compute                                                             *)
(* ------------------------------------------------------------------ *)

(* one compute attempt; raises on failure *)
let compute cfg ~token req =
  let kernel = Pv_kernels.Defs.by_name req.kernel in
  let dis =
    match Scheme.of_string req.backend with
    | Ok d -> d
    | Error e -> invalid_arg e
  in
  let base = Sim.default_config in
  let faults =
    match req.fault_seed with
    | None -> []
    | Some seed ->
        (* the seeded plan is sized to the kernel's instance count, which
           needs the compiled circuit; requests without a fault_seed skip
           this extra compile *)
        let compiled = Pipeline.compile kernel in
        let instances = Pv_frontend.Trace.length compiled.Pipeline.trace in
        Pv_dataflow.Fault.random_recoverable ~seed
          ~n_chans:(Pv_dataflow.Graph.n_chans compiled.Pipeline.graph)
          ~max_seq:instances
          ~horizon:(100 + (4 * instances))
          ()
  in
  let sim_cfg =
    {
      base with
      Sim.engine = req.engine;
      Sim.max_cycles =
        Option.value req.max_cycles ~default:base.Sim.max_cycles;
      Sim.faults;
      Sim.cancel = (fun () -> Supervisor.Token.cancelled token);
    }
  in
  let point =
    match cfg.cache with
    | Some c -> fst (Experiment.run_cached ~sim_cfg ~cache:c kernel dis)
    | None -> Experiment.run ~sim_cfg kernel dis
  in
  Experiment.point_json point

(* ------------------------------------------------------------------ *)
(* Supervised request loop                                             *)
(* ------------------------------------------------------------------ *)

type summary = {
  received : int;
  responded : int;
  ok : int;
  errors : int;
  bad_requests : int;
  shed : int;
  dedup_hits : int;
  retries : int;
  worker_kills : int;
  respawns : int;
  cache_hits : int;
  cache_misses : int;
  lost : int;
  wall_s : float;
  requests_per_s : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
}

let summary_to_json s =
  Json.Obj
    [
      ("received", Json.Int s.received);
      ("responded", Json.Int s.responded);
      ("ok", Json.Int s.ok);
      ("errors", Json.Int s.errors);
      ("bad_requests", Json.Int s.bad_requests);
      ("shed", Json.Int s.shed);
      ("dedup_hits", Json.Int s.dedup_hits);
      ("retries", Json.Int s.retries);
      ("worker_kills", Json.Int s.worker_kills);
      ("respawns", Json.Int s.respawns);
      ("cache_hits", Json.Int s.cache_hits);
      ("cache_misses", Json.Int s.cache_misses);
      ("lost", Json.Int s.lost);
      ("wall_s", Json.Float s.wall_s);
      ("requests_per_s", Json.Float s.requests_per_s);
      ("p50_ms", Json.Float s.p50_ms);
      ("p95_ms", Json.Float s.p95_ms);
      ("p99_ms", Json.Float s.p99_ms);
    ]

let drain_flag = Atomic.make false
let drain_now () = Atomic.set drain_flag true

type item = { t_seq : int; t_key : string; t_req : request }

type state = {
  cfg : config;
  pool : Parallel.pool option;  (** [None]: compute inline (serial) *)
  jobs : int;
  emit : string -> unit;
  lock : Mutex.t;
  emit_lock : Mutex.t;
      (** held while the ready prefix is popped and emitted, so lines
          leave in order and [emit] never runs twice at once *)
  settled : Condition.t;  (** signalled when [pending] drops to 0 *)
  responses : (int, string) Hashtbl.t;  (** seq -> response line *)
  mutable next_emit : int;
  mutable next_seq : int;
  mutable pending : int;  (** accepted, not yet responded *)
  inflight : (string, (int * string) list ref) Hashtbl.t;
      (** key -> waiting (seq, id) *)
  t0s : (int, int64) Hashtbl.t;  (** seq -> submit instant *)
  lats : float Queue.t;  (** latencies (ms) of computed responses *)
  kill_pending : (int, unit) Hashtbl.t;
  mutable n_received : int;
  mutable n_ok : int;
  mutable n_errors : int;
  mutable n_bad : int;
  mutable n_shed : int;
  mutable n_dedup : int;
  mutable n_retries : int;
  mutable n_kills : int;
  mutable ewma_ms : float;
      (** exponentially weighted recent service latency; 0.0 until the
          first computed response lands *)
  mutable max_pending : int;  (** queue-depth high water *)
}

let respawns st = Option.fold ~none:0 ~some:Parallel.respawns st.pool

(* store the computed outcome for every waiter of the item's key;
   lock held by caller *)
let store_locked st item result retries =
  let waiters =
    match Hashtbl.find_opt st.inflight item.t_key with
    | Some ws -> !ws
    | None -> [ (item.t_seq, item.t_req.id) ]
  in
  Hashtbl.remove st.inflight item.t_key;
  st.n_retries <- st.n_retries + retries;
  List.iter
    (fun (seq, id) ->
      let line =
        match result with
        | Ok body -> ok_line id body
        | Error e -> error_line id e.Supervisor.last_error
      in
      Hashtbl.replace st.responses seq line;
      (match result with
      | Ok _ -> st.n_ok <- st.n_ok + 1
      | Error _ -> st.n_errors <- st.n_errors + 1);
      (match Hashtbl.find_opt st.t0s seq with
      | Some t0 ->
          let ms = Clock.elapsed_s t0 *. 1000.0 in
          Queue.push ms st.lats;
          st.ewma_ms <-
            (if st.ewma_ms > 0.0 then (0.8 *. st.ewma_ms) +. (0.2 *. ms)
             else ms);
          Hashtbl.remove st.t0s seq
      | None -> ());
      st.pending <- st.pending - 1)
    waiters;
  if st.pending = 0 then Condition.broadcast st.settled

(* pop the contiguous ready prefix; lock held by caller *)
let rec ready_locked ?(acc = []) st =
  match Hashtbl.find_opt st.responses st.next_emit with
  | Some line ->
      Hashtbl.remove st.responses st.next_emit;
      st.next_emit <- st.next_emit + 1;
      ready_locked ~acc:(line :: acc) st
  | None -> List.rev acc

let with_emit_lock st f =
  Mutex.lock st.emit_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.emit_lock) f

(* emit the contiguous ready prefix, from whichever domain completed it *)
let flush st =
  with_emit_lock st (fun () ->
      Mutex.lock st.lock;
      let lines = ready_locked st in
      Mutex.unlock st.lock;
      List.iter st.emit lines)

(* one compute attempt; the [kill_at] chaos hook makes the first attempt
   of a marked arrival kill its worker instead *)
let attempt st ~token item =
  Mutex.lock st.lock;
  let kill = Hashtbl.mem st.kill_pending item.t_seq in
  if kill then begin
    Hashtbl.remove st.kill_pending item.t_seq;
    st.n_kills <- st.n_kills + 1
  end;
  Mutex.unlock st.lock;
  if kill then begin
    Pv_obs.Log.warn st.cfg.log "worker_killed"
      ~fields:
        [
          ("seq", Pv_obs.Json.Int item.t_seq);
          ("id", Pv_obs.Json.Str item.t_req.id);
        ];
    raise Supervisor.Kill_worker
  end;
  compute st.cfg ~token item.t_req

(* the request's computation under the supervised attempt loop: on a
   pool worker, or inline for jobs <= 1 (the serial reference) *)
let start st item =
  Supervisor.supervise ~policy:st.cfg.policy ?pool:st.pool
    ~label:(item.t_req.kernel ^ "/" ^ item.t_req.backend)
    (fun ~token -> attempt st ~token item)
    (fun ~attempts result ->
      Mutex.lock st.lock;
      store_locked st item result (attempts - 1);
      Mutex.unlock st.lock;
      flush st)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let idx = int_of_float (Float.round (p *. float_of_int (n - 1))) in
    sorted.(max 0 (min (n - 1) idx))

(* backoff hint for a shed client: the backlog ahead of it, in units of
   the recent per-request service latency, spread over the worker pool.
   Before any response has completed the EWMA is 0 and the hint degrades
   to the 1 ms minimum.  Lock held by caller. *)
let retry_after_ms_locked st =
  let per_req = Float.max st.ewma_ms 0.0 in
  let jobs = float_of_int st.jobs in
  let hint = per_req *. float_of_int (st.pending + 1) /. jobs in
  max 1 (int_of_float (Float.ceil hint))

(* one {"type":"stats",...} frame from the live counters; lock held by
   caller.  The gauge identity [received = responded + shed + errors +
   in_flight] holds exactly at every emission: each received request is,
   at any instant, in exactly one of those four states (bad requests
   count as responded — they got a response line). *)
let stats_json_locked st =
  let lats = Array.of_seq (Queue.to_seq st.lats) in
  Array.sort compare lats;
  Json.Obj
    [
      ("type", Json.Str "stats");
      ("received", Json.Int st.n_received);
      ("responded", Json.Int (st.n_ok + st.n_bad));
      ("shed", Json.Int st.n_shed);
      ("errors", Json.Int st.n_errors);
      ("in_flight", Json.Int st.pending);
      ( "queue_depth",
        Json.Int (Option.fold ~none:0 ~some:Parallel.queued st.pool) );
      ("queue_depth_max", Json.Int st.max_pending);
      ("dedup_hits", Json.Int st.n_dedup);
      ("retries", Json.Int st.n_retries);
      ("worker_kills", Json.Int st.n_kills);
      ("respawns", Json.Int (respawns st));
      ("ewma_ms", Json.Float st.ewma_ms);
      ("p50_ms", Json.Float (percentile lats 0.50));
      ("p95_ms", Json.Float (percentile lats 0.95));
      ("p99_ms", Json.Float (percentile lats 0.99));
    ]

(* an {"op":"stats"} control line: answered out-of-band, never counted as
   a request *)
let is_stats_request line =
  match Json.parse line with
  | Error _ -> false
  | Ok j -> (
      match Json.member "op" j with
      | Some (Json.Str "stats") -> true
      | _ -> false)

let run ?metrics (cfg : config) ~next ~emit =
  Atomic.set drain_flag false;
  let jobs = Parallel.effective_jobs cfg.jobs in
  let cache_hits0, cache_misses0 =
    match cfg.cache with
    | Some c -> (Parallel.Cache.hits c, Parallel.Cache.misses c)
    | None -> (0, 0)
  in
  let st =
    {
      cfg;
      pool = (if jobs <= 1 then None else Some (Parallel.create ~jobs));
      jobs;
      emit;
      lock = Mutex.create ();
      emit_lock = Mutex.create ();
      settled = Condition.create ();
      responses = Hashtbl.create 64;
      next_emit = 0;
      next_seq = 0;
      pending = 0;
      inflight = Hashtbl.create 64;
      t0s = Hashtbl.create 64;
      lats = Queue.create ();
      kill_pending = Hashtbl.create 4;
      n_received = 0;
      n_ok = 0;
      n_errors = 0;
      n_bad = 0;
      n_shed = 0;
      n_dedup = 0;
      n_retries = 0;
      n_kills = 0;
      ewma_ms = 0.0;
      max_pending = 0;
    }
  in
  List.iter (fun seq -> Hashtbl.replace st.kill_pending seq ()) cfg.kill_at;
  let capacity = max 1 cfg.queue_capacity in
  let t_start = Clock.now_ns () in
  (* ---- intake ---- *)
  let last_stats = ref t_start in
  let emit_stats_frame () =
    Mutex.lock st.lock;
    let frame = Json.to_string (stats_json_locked st) in
    Mutex.unlock st.lock;
    with_emit_lock st (fun () -> emit frame)
  in
  let rec intake () =
    if Atomic.get drain_flag then ()
    else
      match next () with
      | None -> ()
      | Some line when is_stats_request line ->
          (* control line: answer out-of-band, unsequenced and uncounted *)
          emit_stats_frame ();
          intake ()
      | Some line ->
          Mutex.lock st.lock;
          st.n_received <- st.n_received + 1;
          let seq = st.next_seq in
          st.next_seq <- seq + 1;
          let to_start =
            match parse_request line with
            | Error msg ->
                Hashtbl.replace st.responses seq (bad_line msg);
                st.n_bad <- st.n_bad + 1;
                None
            | Ok req ->
                if st.pending >= capacity then begin
                  (* bounded queue: explicit shed, never a silent drop;
                     the hint tells the client when capacity should free
                     up *)
                  let retry_after_ms = retry_after_ms_locked st in
                  Hashtbl.replace st.responses seq
                    (overloaded_line req.id ~retry_after_ms);
                  st.n_shed <- st.n_shed + 1;
                  Pv_obs.Log.warn st.cfg.log "shed"
                    ~fields:
                      [
                        ("id", Pv_obs.Json.Str req.id);
                        ("pending", Pv_obs.Json.Int st.pending);
                        ("retry_after_ms", Pv_obs.Json.Int retry_after_ms);
                      ];
                  None
                end
                else begin
                  st.pending <- st.pending + 1;
                  if st.pending > st.max_pending then
                    st.max_pending <- st.pending;
                  Hashtbl.replace st.t0s seq (Clock.now_ns ());
                  let key = request_key req in
                  match Hashtbl.find_opt st.inflight key with
                  | Some ws ->
                      (* identical request already in flight: wait on it *)
                      ws := (seq, req.id) :: !ws;
                      st.n_dedup <- st.n_dedup + 1;
                      None
                  | None ->
                      Hashtbl.add st.inflight key (ref [ (seq, req.id) ]);
                      Some { t_seq = seq; t_key = key; t_req = req }
                end
          in
          Mutex.unlock st.lock;
          Option.iter (start st) to_start;
          flush st;
          (match cfg.stats_interval with
          | Some iv when Clock.elapsed_s !last_stats >= iv ->
              last_stats := Clock.now_ns ();
              emit_stats_frame ()
          | _ -> ());
          intake ()
  in
  intake ();
  (* ---- drain ---- *)
  Pv_obs.Log.info cfg.log "drain"
    ~fields:[ ("pending", Pv_obs.Json.Int st.pending) ];
  Mutex.lock st.lock;
  while st.pending > 0 do
    Condition.wait st.settled st.lock
  done;
  Mutex.unlock st.lock;
  (* every completion emitted its own prefix; the join orders those
     emits before the summary *)
  Option.iter Parallel.shutdown st.pool;
  (* ---- summary ---- *)
  let wall_s = Clock.elapsed_s t_start in
  let lats = Array.of_seq (Queue.to_seq st.lats) in
  Array.sort compare lats;
  let responded = st.next_emit in
  let cache_hits, cache_misses =
    match cfg.cache with
    | Some c ->
        (Parallel.Cache.hits c - cache_hits0,
         Parallel.Cache.misses c - cache_misses0)
    | None -> (0, 0)
  in
  let summary =
    {
      received = st.n_received;
      responded;
      ok = st.n_ok;
      errors = st.n_errors;
      bad_requests = st.n_bad;
      shed = st.n_shed;
      dedup_hits = st.n_dedup;
      retries = st.n_retries;
      worker_kills = st.n_kills;
      respawns = respawns st;
      cache_hits;
      cache_misses;
      lost = st.n_received - responded;
      wall_s;
      requests_per_s =
        (if wall_s > 0.0 then float_of_int st.n_received /. wall_s else 0.0);
      p50_ms = percentile lats 0.50;
      p95_ms = percentile lats 0.95;
      p99_ms = percentile lats 0.99;
    }
  in
  (match metrics with
  | None -> ()
  | Some m ->
      let module M = Pv_obs.Metrics in
      M.add m "serve.received" summary.received;
      M.add m "serve.ok" summary.ok;
      M.add m "serve.errors" summary.errors;
      M.add m "serve.bad_requests" summary.bad_requests;
      M.add m "serve.shed" summary.shed;
      M.add m "serve.dedup_hits" summary.dedup_hits;
      M.add m "serve.retries" summary.retries;
      M.add m "serve.worker_kills" summary.worker_kills;
      M.add m "serve.respawns" summary.respawns;
      M.add m "serve.lost" summary.lost;
      M.add m "serve.p50_ms" (int_of_float (Float.round summary.p50_ms));
      M.add m "serve.p95_ms" (int_of_float (Float.round summary.p95_ms));
      M.add m "serve.p99_ms" (int_of_float (Float.round summary.p99_ms));
      M.set_gauge_max m "serve.queue_depth_max" st.max_pending;
      Option.iter (fun c -> Parallel.Cache.record_metrics c m) cfg.cache);
  Pv_obs.Log.info cfg.log "serve_done"
    ~fields:
      [
        ("received", Pv_obs.Json.Int summary.received);
        ("ok", Pv_obs.Json.Int summary.ok);
        ("errors", Pv_obs.Json.Int summary.errors);
        ("shed", Pv_obs.Json.Int summary.shed);
        ("worker_kills", Pv_obs.Json.Int summary.worker_kills);
      ];
  summary
