(* The BENCH_sim.json schema tag and the regression check of a fresh bench
   run against a committed baseline — see baseline.mli. *)

module Json = Pv_obs.Json

let schema = "prevv-bench-sim/v7"

(* a field the check needs is absent or has the wrong type *)
exception Malformed of string

let get path j =
  List.fold_left
    (fun j k ->
      match Json.member k j with
      | Some v -> v
      | None -> raise (Malformed ("missing field " ^ path)))
    j
    (String.split_on_char '.' path)

let typed what conv path j =
  match conv (get path j) with
  | Some v -> v
  | None -> raise (Malformed (Printf.sprintf "%s is not a %s" path what))

let num = typed "number" Json.to_float_opt
let bool = typed "boolean" Json.to_bool_opt
let str = typed "string" Json.to_string_opt
let list = typed "list" Json.to_list_opt

let kernels doc = list "kernels" doc

(* the regime cell of kernel [name] under the document's own backend *)
let cell doc name =
  let backend = str "backend" doc in
  let k =
    match List.find_opt (fun k -> str "kernel" k = name) (kernels doc) with
    | Some k -> k
    | None -> raise (Malformed ("no kernel " ^ name))
  in
  match
    List.find_opt (fun r -> str "backend" r = backend) (list "regimes" k)
  with
  | Some r -> r
  | None ->
      raise (Malformed (Printf.sprintf "%s has no %s regime" name backend))

let check ~jobs ~committed ~fresh =
  let failures = ref [] in
  (* run one gate; [expect] records a failed assertion under the gate's
     name, and a malformed document fails the gate rather than the run *)
  let gate name body =
    let expect ok msg =
      if not ok then failures := (name ^ ": " ^ msg) :: !failures
    in
    try body expect with Malformed msg -> expect false msg
  in
  let both = [ ("committed", committed); ("fresh", fresh) ] in
  gate "schema" (fun expect ->
      let f = str "schema" fresh and c = str "schema" committed in
      expect (f = schema)
        (Printf.sprintf "fresh schema %S, expected %S" f schema);
      expect (c = f) (Printf.sprintf "committed schema %S, fresh %S" c f));
  gate "event-speed" (fun expect ->
      let ratio tag doc =
        let g = num "geomean_event_time_ratio" doc in
        expect (g < 1.0)
          (Printf.sprintf "%s geomean_event_time_ratio %g >= 1" tag g)
      in
      ratio "committed" committed;
      ratio "fresh" fresh;
      List.iter
        (fun k ->
          let r = num "event_time_ratio" k in
          expect (r < 1.0)
            (Printf.sprintf "committed %s event_time_ratio %g >= 1"
               (str "kernel" k) r))
        (kernels committed));
  gate "allocation" (fun expect ->
      List.iter
        (fun (tag, doc) ->
          List.iter
            (fun k ->
              let s = num "allocs_per_cycle.scan" k
              and e = num "allocs_per_cycle.event" k in
              expect (s = 0.0 && e = 0.0)
                (Printf.sprintf "%s %s allocs_per_cycle scan %g event %g, \
                                 expected 0" tag (str "kernel" k) s e))
            (kernels doc))
        both);
  gate "equivalence" (fun expect ->
      List.iter
        (fun (tag, doc) ->
          List.iter
            (fun k ->
              List.iter
                (fun r ->
                  expect (bool "equivalent" r)
                    (Printf.sprintf "%s %s under %s: scan and event disagree"
                       tag (str "kernel" k) (str "backend" r)))
                (list "regimes" k))
            (kernels doc))
        both);
  (* fresh event-engine throughput per kernel, normalised by the geomean
     of fresh/committed scan throughput: scan is the untouched reference,
     so that factor is the runner's speed, not an event-engine change *)
  let speed = ref 1.0 in
  gate "throughput" (fun expect ->
      let names = List.map (str "kernel") (kernels committed) in
      let cps doc name engine =
        num (engine ^ ".cycles_per_s") (cell doc name)
      in
      let scale =
        exp
          (List.fold_left
             (fun acc n ->
               acc +. log (cps fresh n "scan" /. cps committed n "scan"))
             0.0 names
          /. float_of_int (max 1 (List.length names)))
      in
      speed := scale;
      List.iter
        (fun n ->
          let got = cps fresh n "event"
          and want = cps committed n "event" *. scale in
          expect (got >= 0.8 *. want)
            (Printf.sprintf
               "%s event cycles_per_s %.0f < 0.8 x %.0f (committed, runner \
                speed factor %.2f)"
               n got want scale))
        names);
  gate "grid" (fun expect ->
      let eff = num "grid.jobs_effective" fresh
      and req = num "grid.jobs_requested" fresh
      and n = float_of_int jobs in
      expect (eff = n && req = n)
        (Printf.sprintf "jobs_effective %g, jobs_requested %g, expected %d" eff
           req jobs);
      let s = num "grid.parallel_speedup" fresh in
      expect (s > 1.0) (Printf.sprintf "parallel_speedup %g <= 1" s);
      expect
        (bool "grid.identical_to_serial" fresh)
        "parallel grid differs from the serial grid");
  gate "soak" (fun expect ->
      let count path pred want =
        let v = num ("soak." ^ path) fresh in
        expect (pred v) (Printf.sprintf "%s %g, expected %s" path v want)
      in
      count "lost" (fun v -> v = 0.0) "0";
      count "overload.lost" (fun v -> v = 0.0) "0";
      count "worker_kills" (fun v -> v >= 1.0) ">= 1";
      count "respawns" (fun v -> v >= 1.0) ">= 1";
      count "shed" (fun v -> v = 0.0) "0";
      count "overload.shed" (fun v -> v > 0.0) "> 0";
      expect
        (bool "soak.identical_to_serial_replay" fresh)
        "parallel responses differ from the serial replay");
  match List.rev !failures with
  | [] ->
      Ok (Printf.sprintf "bench baseline check OK (runner speed factor %.2f)"
            !speed)
  | fs -> Error fs

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      match Json.parse text with
      | Ok j -> Ok j
      | Error e -> Error (Printf.sprintf "%s: %s" path e))
