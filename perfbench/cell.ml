(* One (kernel, scheme) cell, run the way [Experiment.run] runs it:
   compile -> simulate -> verify -> [Report.of_circuit].

   [run] calls the same public functions as [Experiment.run] and times
   only the whole cell and the [Pipeline.simulate] call inside it.  [traced]
   replays the cell through the layers [Pipeline.simulate] and
   [Pipeline.verify] are made of, with a span around each call into a
   layer and a timing wrapper around every [Memif] closure, so each layer's
   self time and allocation can be read off.  Both produce an [out] that
   must agree bit for bit. *)

open Pv_core
module Sim = Pv_dataflow.Sim
module Memif = Pv_dataflow.Memif

let now_ns = Perfbench.Refloop.now_ns

type input = {
  kernel : Pv_kernels.Ast.kernel;
  init : (string * int array) list option;
      (** [None] = the kernel's default data, as [Experiment.run] uses *)
  dis : Pipeline.disambiguation;
}

let scheme_name c = Pipeline.name_of c.dis
let label c = c.kernel.Pv_kernels.Ast.name ^ "/" ^ scheme_name c

(* Everything a cell simulated.  Two runs of one cell must give equal
   values. *)
type out = {
  cycles : int;
  finished : bool;
  verified : bool;
  mem_digest : string;
  stats : Memif.stats;
  fires : int;
  evals : int;
  luts : int;
}

let same a b = a = b

let digest_line buf c o =
  let s = o.stats in
  Printf.bprintf buf "%s %d %b %b %s %d %d %d|%d %d %d %d %d %d %d %d %d %d %d %d %d\n"
    (label c) o.cycles o.finished o.verified
    (Digest.to_hex o.mem_digest) o.fires o.evals o.luts s.Memif.loads
    s.Memif.stores s.Memif.squashes s.Memif.replayed_ops s.Memif.stall_full
    s.Memif.stall_alloc s.Memif.stall_order s.Memif.stall_bw s.Memif.forwarded
    s.Memif.fake_tokens s.Memif.max_occupancy s.Memif.faults s.Memif.degraded

let copy_stats (s : Memif.stats) = { s with Memif.loads = s.Memif.loads }

let finished (r : Pipeline.result) =
  match r.Pipeline.outcome with Sim.Finished _ -> true | _ -> false

let make_out (r : Pipeline.result) ~verified ~luts =
  {
    cycles = r.Pipeline.cycles;
    finished = finished r;
    verified;
    mem_digest = Digest.string (Marshal.to_string r.Pipeline.mem []);
    stats = copy_stats r.Pipeline.mem_stats;
    fires = Array.fold_left ( + ) 0 r.Pipeline.run_stats.Sim.node_fires;
    evals = r.Pipeline.run_stats.Sim.evals;
    luts;
  }

(* ------------------------------------------------------------------ *)
(* Untraced                                                            *)
(* ------------------------------------------------------------------ *)

type timing = {
  t_cell_ns : int;
  t_sim_ns : int;
  t_words : float;  (** minor words allocated inside [Pipeline.simulate] *)
}

let run c =
  let t0 = now_ns () in
  let compiled = Pipeline.compile c.kernel in
  let m = Pv_obs.Metrics.create () in
  let w0 = Gc.minor_words () in
  let s0 = now_ns () in
  let r = Pipeline.simulate ?init:c.init ~metrics:m compiled c.dis in
  let s1 = now_ns () in
  let w1 = Gc.minor_words () in
  let verified = finished r && Pipeline.verify ?init:c.init compiled r = [] in
  let report =
    Pv_resource.Report.of_circuit compiled.Pipeline.graph
      compiled.Pipeline.info.Pv_frontend.Depend.portmap
      (Experiment.elaboration_of c.dis)
  in
  let t1 = now_ns () in
  ( make_out r ~verified ~luts:report.Pv_resource.Report.luts,
    { t_cell_ns = t1 - t0; t_sim_ns = s1 - s0; t_words = w1 -. w0 } )

(* ------------------------------------------------------------------ *)
(* Traced                                                              *)
(* ------------------------------------------------------------------ *)

(* Backend families, keyed by the scheme's registry name. *)
let family_of_scheme name =
  if String.length name >= 5 && String.sub name 0 5 = "prevv" then "prevv"
  else
    match name with
    | "dynamatic" | "fast-lsq" -> "lsq"
    | "oracle" -> "bounds.oracle"
    | "serial" -> "bounds.serial"
    | other -> other

let families = [ "prevv"; "lsq"; "bounds.oracle"; "bounds.serial" ]

(* The [Memif] closures, grouped: begin_instance/alloc_group, load_req/
   load_poll, store_req/store_addr/op_skip, poll_squash, and the per-cycle
   clock/quiesced pair. *)
let slots = [| "alloc"; "load"; "store"; "squash_poll"; "clock" |]
let s_alloc = 0
let s_load = 1
let s_store = 2
let s_squash = 3
let s_clock = 4

(* Per-family totals over every traced cell of that family. *)
type fam = {
  ns : float array;  (** per slot *)
  words : float array;  (** per slot *)
  mutable calls : int;
  mutable cycles : int;
  mutable load_reqs : int;  (** load_req calls *)
  mutable loads : int;  (** loads accepted *)
  mutable squashes : int;
  mutable replayed : int;
  mutable stall_full : int;
  mutable stall_alloc : int;
  mutable stall_order : int;
}

let fresh_fam () =
  {
    ns = Array.make 5 0.0;
    words = Array.make 5 0.0;
    calls = 0;
    cycles = 0;
    load_reqs = 0;
    loads = 0;
    squashes = 0;
    replayed = 0;
    stall_full = 0;
    stall_alloc = 0;
    stall_order = 0;
  }

(* Layer self times (ns) and counters over every traced cell. *)
type acc = {
  fams : (string * fam) list;
  mutable compile_ns : float;
  mutable interp_ns : float;
  mutable make_ns : float;
  mutable prescience_ns : float;
  mutable sim_ns : float;  (** the whole [Sim.run], backend calls included *)
  mutable backend_ns : float;  (** backend closure time inside [Sim.run] *)
  mutable verify_ns : float;
  mutable report_ns : float;
  mutable cell_ns : float;  (** whole traced cells *)
  mutable cycles : int;
  mutable evals : int;
}

let fresh_acc () =
  {
    fams = List.map (fun f -> (f, fresh_fam ())) families;
    compile_ns = 0.0;
    interp_ns = 0.0;
    make_ns = 0.0;
    prescience_ns = 0.0;
    sim_ns = 0.0;
    backend_ns = 0.0;
    verify_ns = 0.0;
    report_ns = 0.0;
    cell_ns = 0.0;
    cycles = 0;
    evals = 0;
  }

let layers_ns a =
  [
    ("frontend.compile", a.compile_ns);
    ("kernels.interp", a.interp_ns);
    ("scheme.make", a.make_ns);
    ("bounds.prescience", a.prescience_ns);
    ("dataflow.self", a.sim_ns -. a.backend_ns);
    ("backend.calls", a.backend_ns);
    ("memory.verify", a.verify_ns);
    ("resource.report", a.report_ns);
  ]

(* Self times of every layer over the traced cells' wall time: the part
   of a cell no span covers is the benchmark's own glue (memory set-up,
   metric recording). *)
let coverage a =
  List.fold_left (fun s (_, ns) -> s +. ns) 0.0 (layers_ns a) /. a.cell_ns

(* Each wrapper reads the clock and the minor-word counter around one
   closure call and adds the differences to its slot.  The reads allocate
   nothing, so the words charged are the backend's own. *)
let wrap (f : fam) (m : Memif.t) : Memif.t =
  (* the word count at [start] waits in a float array: passing it to
     [stop] as an argument would box it and charge the box to the
     backend *)
  let mark = Array.make 1 0.0 in
  let start () =
    mark.(0) <- Gc.minor_words ();
    now_ns ()
  in
  let stop slot t0 =
    let t1 = now_ns () in
    f.ns.(slot) <- f.ns.(slot) +. float_of_int (t1 - t0);
    f.words.(slot) <- f.words.(slot) +. (Gc.minor_words () -. mark.(0));
    f.calls <- f.calls + 1
  in
  {
    m with
    Memif.begin_instance =
      (fun ~seq ~group ->
        let t0 = start () in
        let r = m.Memif.begin_instance ~seq ~group in
        stop s_alloc t0;
        r);
    alloc_group =
      (fun ~key ~group ->
        let t0 = start () in
        let r = m.Memif.alloc_group ~key ~group in
        stop s_alloc t0;
        r);
    load_req =
      (fun ~port ~key ~addr ->
        let t0 = start () in
        let r = m.Memif.load_req ~port ~key ~addr in
        stop s_load t0;
        f.load_reqs <- f.load_reqs + 1;
        r);
    load_poll =
      (fun ~port slot ->
        let t0 = start () in
        let r = m.Memif.load_poll ~port slot in
        stop s_load t0;
        r);
    store_req =
      (fun ~port ~key ~addr ~value ->
        let t0 = start () in
        let r = m.Memif.store_req ~port ~key ~addr ~value in
        stop s_store t0;
        r);
    store_addr =
      (fun ~port ~key ~addr ->
        let t0 = start () in
        m.Memif.store_addr ~port ~key ~addr;
        stop s_store t0);
    op_skip =
      (fun ~port ~key ->
        let t0 = start () in
        let r = m.Memif.op_skip ~port ~key in
        stop s_store t0;
        r);
    poll_squash =
      (fun () ->
        let t0 = start () in
        let r = m.Memif.poll_squash () in
        stop s_squash t0;
        r);
    clock =
      (fun () ->
        let t0 = start () in
        m.Memif.clock ();
        stop s_clock t0);
    quiesced =
      (fun () ->
        let t0 = start () in
        let r = m.Memif.quiesced () in
        stop s_clock t0;
        r);
  }

let fam_total_ns f = Array.fold_left ( +. ) 0.0 f.ns

let span acc_field f =
  let t0 = now_ns () in
  let r = f () in
  acc_field (float_of_int (now_ns () - t0));
  r

(* The traced replay of [run]: [Pipeline.simulate] unrolled into
   initial memory -> [Scheme.make_env] -> prescience (oracle only) ->
   the scheme's [make] -> [Sim.run] over the wrapped backend, and
   [Pipeline.verify] into the golden interpreter and the memory diff. *)
let traced acc c =
  let t0 = now_ns () in
  let kernel = c.kernel in
  let compiled = span (fun ns -> acc.compile_ns <- acc.compile_ns +. ns) (fun () -> Pipeline.compile kernel) in
  let init =
    match c.init with
    | Some i -> i
    | None -> Pv_kernels.Workload.default_init kernel
  in
  let mem =
    Pv_memory.Layout.initial_memory compiled.Pipeline.layout kernel ~init
  in
  let env =
    Scheme.make_env ~portmap:compiled.Pipeline.info.Pv_frontend.Depend.portmap
      ~graph:compiled.Pipeline.graph mem
  in
  let name = scheme_name c in
  let fname = family_of_scheme name in
  let f = List.assoc fname acc.fams in
  if name = "oracle" then
    span
      (fun ns -> acc.prescience_ns <- acc.prescience_ns +. ns)
      (fun () -> ignore (Lazy.force env.Scheme.prescience));
  let inst =
    span
      (fun ns -> acc.make_ns <- acc.make_ns +. ns)
      (fun () ->
        let (module M : Scheme.S) = Scheme.of_disambiguation c.dis in
        M.make env)
  in
  let backend = wrap f inst.Scheme.memif in
  let before = fam_total_ns f in
  let outcome, run_stats =
    span
      (fun ns -> acc.sim_ns <- acc.sim_ns +. ns)
      (fun () -> Sim.run compiled.Pipeline.graph backend)
  in
  acc.backend_ns <- acc.backend_ns +. (fam_total_ns f -. before);
  let cycles =
    match outcome with
    | Sim.Finished { cycles } -> cycles
    | Sim.Deadlock { at_cycle; _ } | Sim.Timeout { at_cycle; _ } -> at_cycle
  in
  let r =
    {
      Pipeline.outcome;
      cycles;
      mem;
      mem_stats = backend.Memif.stats ();
      run_stats;
    }
  in
  (* what [Pipeline.simulate] records, so the traced cell does the same work *)
  let m = Pv_obs.Metrics.create () in
  inst.Scheme.record_metrics m;
  let golden =
    span
      (fun ns -> acc.interp_ns <- acc.interp_ns +. ns)
      (fun () -> Pv_kernels.Interp.run kernel ~init)
  in
  let verified =
    span
      (fun ns -> acc.verify_ns <- acc.verify_ns +. ns)
      (fun () ->
        finished r
        && Pv_memory.Layout.diff_against compiled.Pipeline.layout kernel
             r.Pipeline.mem golden
           = [])
  in
  let report =
    span
      (fun ns -> acc.report_ns <- acc.report_ns +. ns)
      (fun () ->
        Pv_resource.Report.of_circuit compiled.Pipeline.graph
          compiled.Pipeline.info.Pv_frontend.Depend.portmap
          (Experiment.elaboration_of c.dis))
  in
  let s = r.Pipeline.mem_stats in
  f.cycles <- f.cycles + cycles;
  f.loads <- f.loads + s.Memif.loads;
  f.squashes <- f.squashes + s.Memif.squashes;
  f.replayed <- f.replayed + s.Memif.replayed_ops;
  f.stall_full <- f.stall_full + s.Memif.stall_full;
  f.stall_alloc <- f.stall_alloc + s.Memif.stall_alloc;
  f.stall_order <- f.stall_order + s.Memif.stall_order;
  acc.cycles <- acc.cycles + cycles;
  acc.evals <- acc.evals + run_stats.Sim.evals;
  acc.cell_ns <- acc.cell_ns +. float_of_int (now_ns () - t0);
  make_out r ~verified ~luts:report.Pv_resource.Report.luts
