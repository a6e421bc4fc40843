(* The repository's benchmark.

     dune exec --root . -- ./perfbench/bench.exe \
       --workload paper-grid|irregular|serve-open --seed N --seconds S \
       --trace 0|1

   Builds the workload's inputs from the seed, measures for S seconds,
   verifies every output, and prints as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics of a separate traced run with
   --trace 1.  perfbench/NOTES.md says what each metric measures. *)

module Stats = Perfbench.Stats

let workload = ref ""
let seed = ref 1
let seconds = ref 20
let trace = ref 0

let usage =
  "bench.exe --workload paper-grid|irregular|serve-open --seed N --seconds S \
   --trace 0|1"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measurement time");
      ("--trace", Arg.Set_int trace, " 1 = traced run, per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)
(* ------------------------------------------------------------------ *)

let json_metrics metrics value =
  String.concat ", "
    (List.filter_map
       (fun (x : Workloads.metric) ->
         Option.map
           (fun v ->
             if not (Float.is_finite v) then
               failwith (Printf.sprintf "metric %s is not finite" x.Workloads.name);
             Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
               x.Workloads.name v x.Workloads.unit)
           (value x))
       metrics)

(* The raw host times go on their own line, for the steadiness script;
   the result object is the last line. *)
let print_result (r : Workloads.result) =
  let open Workloads in
  List.iter (Printf.printf "FAILED: %s\n") r.failures;
  Printf.printf "raw-metrics {%s}\n" (json_metrics r.metrics (fun x -> x.raw));
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failures = []) r.attempted r.failed
    (json_metrics r.metrics (fun x -> Some x.value))

let () =
  if !seconds < 1 then (prerr_endline "--seconds must be at least 1"; exit 2);
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace is 0 or 1"; exit 2);
  let r =
    match !workload with
    | "paper-grid" -> Workloads.batch ~paper:true ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
    | "irregular" -> Workloads.batch ~paper:false ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
    | "serve-open" -> Workloads.serve ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
    | w ->
        Printf.eprintf "unknown workload %S\n%s\n" w usage;
        exit 2
  in
  print_result r
