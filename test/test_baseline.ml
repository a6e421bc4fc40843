(* The bench baseline check (Pv_bench.Baseline, bench/main.exe --check):
   - the committed BENCH_sim.json passes against itself, and so does a copy
     from a uniformly slower runner (scan and event throughput both x0.5);
   - each doctored copy fails, and the failure names the gate it broke;
   - Json.to_float_opt, the accessor every numeric gate reads through,
     takes Int and Float alike;
   - the pretty printer's output parses back to the same value. *)

module Json = Pv_obs.Json
module Baseline = Pv_bench.Baseline

(* the committed baseline was recorded at --jobs 2; its grid and soak
   sections are checked for that request *)
let jobs = 2

let committed =
  lazy
    (match Baseline.load "../BENCH_sim.json" with
    | Ok j -> j
    | Error e -> Alcotest.failf "cannot load BENCH_sim.json: %s" e)

(* [update path f doc] rewrites the value at [path]; a "*" step applies
   the rest of the path to every element of a list, a "=NAME" step to the
   first list element whose "kernel" or "backend" is NAME *)
let rec update path f doc =
  match (path, doc) with
  | [], v -> f v
  | "*" :: rest, Json.List xs -> Json.List (List.map (update rest f) xs)
  | step :: rest, Json.List xs when String.length step > 0 && step.[0] = '=' ->
      let name = String.sub step 1 (String.length step - 1) in
      let named x =
        List.exists
          (fun key -> Json.member key x = Some (Json.Str name))
          [ "kernel"; "backend" ]
      in
      let seen = ref false in
      Json.List
        (List.map
           (fun x ->
             if (not !seen) && named x then (
               seen := true;
               update rest f x)
             else x)
           xs)
  | key :: rest, Json.Obj fields ->
      if not (List.mem_assoc key fields) then
        Alcotest.failf "fixture has no field %s" key;
      Json.Obj
        (List.map
           (fun (k, v) -> if k = key then (k, update rest f v) else (k, v))
           fields)
  | step :: _, _ -> Alcotest.failf "cannot follow %s" step

let scale k = function
  | Json.Int i -> Json.Float (k *. float_of_int i)
  | Json.Float x -> Json.Float (k *. x)
  | _ -> Alcotest.fail "not a number"

let set v _ = v

let check fresh = Baseline.check ~jobs ~committed:(Lazy.force committed) ~fresh

let passes name fresh () =
  match check fresh with
  | Ok _ -> ()
  | Error fs -> Alcotest.failf "%s should pass:\n%s" name (String.concat "\n" fs)

(* the doctored copy fails, and some failure line starts with [gate] *)
let fails_gate gate doctor () =
  match check (doctor (Lazy.force committed)) with
  | Ok _ -> Alcotest.failf "doctored copy passed; expected a %s failure" gate
  | Error fs ->
      let prefix = gate ^ ": " in
      let named f =
        String.length f >= String.length prefix
        && String.sub f 0 (String.length prefix) = prefix
      in
      if not (List.exists named fs) then
        Alcotest.failf "no %s failure among:\n%s" gate (String.concat "\n" fs)

let kernel = "=gaussian"
let backend doc =
  match Json.member "backend" doc with Some (Json.Str b) -> b | _ -> "?"

let test_self () = passes "committed vs itself" (Lazy.force committed) ()

let test_slower_runner () =
  let slow =
    List.fold_left
      (fun doc engine ->
        update
          [ "kernels"; "*"; "regimes"; "*"; engine; "cycles_per_s" ]
          (scale 0.5) doc)
      (Lazy.force committed) [ "scan"; "event" ]
  in
  passes "uniformly slower runner" slow ()

let slower_event_engine doc =
  update
    [ "kernels"; kernel; "regimes"; "=" ^ backend doc; "event"; "cycles_per_s" ]
    (scale 0.75) doc

let test_float_accessor () =
  let num = Alcotest.(check (option (float 0.0))) in
  let parsed s = Option.bind (Result.to_option (Json.parse s)) Json.to_float_opt in
  num "Int" (Some 3.0) (Json.to_float_opt (Json.Int 3));
  num "Float" (Some 2.5) (Json.to_float_opt (Json.Float 2.5));
  num "Str" None (Json.to_float_opt (Json.Str "3"));
  num "parsed 2.0" (Some 2.0) (parsed "2.0");
  num "parsed 2" (Some 2.0) (parsed "2")

let test_pretty_round_trip () =
  let doc = Lazy.force committed in
  Alcotest.(check bool) "parses back to the same value" true
    (Json.parse (Json.to_string_pretty doc) = Ok doc);
  Alcotest.(check string) "short values stay on one line"
    "{\"a\": [1, 2.5]}\n"
    (Json.to_string_pretty
       (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float 2.5 ]) ]))

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "baseline"
    [
      ( "passes",
        [
          case "committed vs itself" test_self;
          case "slower runner (throughput x0.5)" test_slower_runner;
        ] );
      ( "fails",
        [
          case "schema changed"
            (fails_gate "schema"
               (update [ "schema" ] (set (Json.Str "prevv-bench-sim/v0"))));
          case "event allocates"
            (fails_gate "allocation"
               (update
                  [ "kernels"; kernel; "allocs_per_cycle"; "event" ]
                  (set (Json.Float 0.5))));
          case "regime not equivalent"
            (fails_gate "equivalence"
               (update
                  [ "kernels"; kernel; "regimes"; "=serial"; "equivalent" ]
                  (set (Json.Bool false))));
          case "event throughput x0.75, scan unchanged"
            (fails_gate "throughput" slower_event_engine);
          case "parallel_speedup 0.9"
            (fails_gate "grid"
               (update [ "grid"; "parallel_speedup" ] (set (Json.Float 0.9))));
          case "soak lost 1"
            (fails_gate "soak" (update [ "soak"; "lost" ] (set (Json.Int 1))));
          case "overload shed 0"
            (fails_gate "soak"
               (update [ "soak"; "overload"; "shed" ] (set (Json.Int 0))));
        ] );
      ( "json",
        [
          case "number accessor reads Int and Float" test_float_accessor;
          case "pretty printer round-trips" test_pretty_round_trip;
        ] );
    ]
