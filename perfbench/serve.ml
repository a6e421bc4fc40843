(* The serve-open workload: paced open-loop arrivals into [Service.run]
   with jobs = the host's recommended domain count and an in-memory cache,
   plus a capacity step that offers only unique requests.

   No request log exists, so the traffic is assumed: requests draw a small
   bundled kernel and a scheme uniformly, and a [repeat_share] of them
   repeat an earlier request (a cache hit, or a dedup while the first is in
   flight).  Unique requests differ in their [max_cycles] budget, which
   keys a distinct computation without changing its result. *)

open Pv_core
module Stats = Perfbench.Stats
module Refloop = Perfbench.Refloop

(* the bundled kernels whose cells take under 3 ms on the reference host,
   well inside the 10 ms between arrivals *)
let kernels =
  [ "histogram"; "fn_dependent"; "cond_update"; "spmv_like"; "fir_smooth";
    "running_max" ]

(* Assumed traffic: the reference rate and the share of repeats. *)
let rate = 100.0
let repeat_share = 0.25

(* enough requests that p90 has 100 samples beyond it *)
let min_requests = 1000

(* unique budgets start above the default so no run is cut short *)
let base_budget = Pv_dataflow.Sim.default_config.Pv_dataflow.Sim.max_cycles

let jobs () = Domain.recommended_domain_count ()

(* A capacity-step time restated at reference speed.  The step spreads
   over every worker, so it is set against the reference loop run on as
   many domains at once, and it stretches as that loop does (elasticity 1).
   Over ten 30 s runs on the reference host its IQR was 5-6% of the
   median, against 9-10% raw; the batch workloads' one-domain sample with
   elasticity 1.5 had made it wider than raw. *)
let at_ref ~measured_ref raw =
  Stats.at_ref ~elasticity:1.0 ~ref:Batch.ref_ns ~measured_ref raw
let schemes () = List.map (fun (module S : Scheme.S) -> S.name) (Scheme.all ())

(* the served kernels, as the program builds them *)
let kernels_of () = List.map Pv_kernels.Defs.by_name kernels

(* The distinct (kernel, scheme) computations the workload can ask for. *)
let workload () =
  let ks = kernels_of () in
  let dis = List.map (fun (module S : Scheme.S) -> S.config) (Scheme.all ()) in
  {
    Batch.cells = Batch.cells_of ks dis ~init:(fun _ -> None);
    serial = [];
    fixed = kernels;
  }

type req = { kernel : string; backend : string; budget : int }

let line_of i r =
  Service.request_to_json
    (Service.request ~id:(Printf.sprintf "r%d" i) ~kernel:r.kernel
       ~backend:r.backend ~max_cycles:r.budget ())

(* The seeded open-loop stream: request i is a repeat of a uniformly drawn
   earlier request with probability [repeat_share], else a fresh unique
   computation. *)
let stream ~seed n =
  let st = Random.State.make [| seed |] in
  let ks = Array.of_list kernels and ss = Array.of_list (schemes ()) in
  let reqs = Array.make n { kernel = ""; backend = ""; budget = 0 } in
  for i = 0 to n - 1 do
    reqs.(i) <-
      (if i > 0 && Random.State.float st 1.0 < repeat_share then
         reqs.(Random.State.int st i)
       else
         {
           kernel = ks.(Random.State.int st (Array.length ks));
           backend = ss.(Random.State.int st (Array.length ss));
           budget = base_budget + i;
         })
  done;
  reqs

(* Every (kernel, scheme) [copies] times, each copy a distinct budget: the
   same work on every run. *)
let unique ~copies =
  let cells =
    List.concat_map (fun k -> List.map (fun b -> (k, b)) (schemes ())) kernels
  in
  Array.of_list
    (List.concat
       (List.init copies (fun c ->
            List.mapi
              (fun j (kernel, backend) ->
                { kernel; backend; budget = base_budget + (c * 1000) + j })
              cells)))

(* expected result bodies, by "kernel/scheme" *)
let expected () =
  List.concat_map
    (fun k ->
      List.map
        (fun (module S : Scheme.S) ->
          let p = Experiment.run (Pv_kernels.Defs.by_name k) S.config in
          (k ^ "/" ^ S.name, p))
        (Scheme.all ()))
    kernels

type run = {
  reqs : req array;
  lines : string option array;  (** response line per request *)
  call_ns : int array;  (** when the service asked for request i *)
  ret_ns : int array;  (** when request i was handed over *)
  due_ns : int array;
  emit_ns : int array;
  summary : Service.summary;
  metrics : Pv_obs.Metrics.t;
  wall_ns : int;
}

(* Offer [reqs] to a fresh service.  [period_ns] = 0 hands every request
   over at once (the capacity step); otherwise request i is due
   [i * period_ns] after the start and handed over no earlier. *)
let drive ~period_ns reqs =
  let n = Array.length reqs in
  let lines = Array.mapi line_of reqs in
  let responses = Array.make n None in
  let call_ns = Array.make n 0 and ret_ns = Array.make n 0 in
  let due_ns = Array.make n 0 and emit_ns = Array.make n 0 in
  let t0 = Refloop.now_ns () + 1_000_000 in
  let i = ref 0 in
  let next () =
    if !i >= n then None
    else begin
      let k = !i in
      let due = t0 + (k * period_ns) in
      due_ns.(k) <- due;
      call_ns.(k) <- Refloop.now_ns ();
      let rec wait () =
        let now = Refloop.now_ns () in
        if now < due then begin
          Unix.sleepf (float_of_int (due - now) /. 1e9);
          wait ()
        end
      in
      if period_ns > 0 then wait ();
      ret_ns.(k) <- Refloop.now_ns ();
      incr i;
      Some lines.(k)
    end
  in
  (* responses come back in arrival order; [check_run] checks the ids *)
  let emitted = ref 0 in
  let emit line =
    let k = !emitted in
    if k < n then begin
      emit_ns.(k) <- Refloop.now_ns ();
      responses.(k) <- Some line
    end;
    incr emitted
  in
  let cfg =
    {
      Service.default_config with
      Service.jobs = jobs ();
      queue_capacity = n + 1;
      cache = Some (Parallel.Cache.in_memory ());
    }
  in
  let metrics = Pv_obs.Metrics.create () in
  let s0 = Refloop.now_ns () in
  let summary = Service.run ~metrics cfg ~next ~emit in
  let wall_ns = Refloop.now_ns () - s0 in
  { reqs; lines = responses; call_ns; ret_ns; due_ns; emit_ns; summary; metrics; wall_ns }

(* Every response is an ok line carrying exactly the point
   [Experiment.run] computes for its kernel and scheme. *)
let check_run g (expected : (string * Experiment.point) list) what (r : run) =
  let parsed_expected =
    List.map
      (fun (k, p) -> (k, Pv_obs.Json.parse (Experiment.point_to_json p)))
      expected
  in
  Array.iteri
    (fun i req ->
      let key = req.kernel ^ "/" ^ req.backend in
      let ok =
        match r.lines.(i) with
        | None -> false
        | Some line -> (
            match Pv_obs.Json.parse line with
            | Error _ -> false
            | Ok j ->
                Pv_obs.Json.member "id" j
                = Some (Pv_obs.Json.Str (Printf.sprintf "r%d" i))
                && Pv_obs.Json.member "status" j = Some (Pv_obs.Json.Str "ok")
                && (match (Pv_obs.Json.member "result" j, List.assoc key parsed_expected) with
                   | Some res, Ok want -> res = want
                   | _ -> false))
      in
      Gate.check g ok "%s: request r%d (%s) not answered with its point" what i key)
    r.reqs;
  let s = r.summary in
  Gate.check g
    (s.Service.lost = 0 && s.Service.errors = 0 && s.Service.shed = 0)
    "%s: lost %d, errors %d, shed %d" what s.Service.lost s.Service.errors
    s.Service.shed
