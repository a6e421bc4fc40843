(** Post-run performance profiling: per-node utilisation and per-channel
    occupancy, the data needed to find a circuit's throughput bottleneck
    (which component fires least often, which channels sit full waiting). *)

type node_profile = {
  np_id : Types.node_id;
  np_label : string;
  np_fires : int;
  np_utilisation : float;  (** fires / cycles *)
}

type chan_profile = {
  cp_id : Types.chan_id;
  cp_src : string;
  cp_dst : string;
  cp_held : int;  (** cycles the channel register held an unconsumed token *)
  cp_pressure : float;  (** held / cycles: 1.0 = permanently backpressured *)
}

type t = {
  cycles : int;
  outcome : Sim.outcome;
  nodes : node_profile list;  (** sorted by utilisation, lowest first *)
  chans : chan_profile list;  (** sorted by pressure, highest first *)
}

(** Run [g] against [mem] collecting the profile. *)
let run ?(cfg = Sim.default_config) (g : Graph.t) (mem : Memif.t) : t =
  let sim = Sim.create ~cfg g mem in
  let held = Array.make (Graph.n_chans g) 0 in
  let outcome =
    let rec loop () =
      match Sim.status sim with
      | Some outcome -> outcome
      | None ->
          Sim.step sim;
          for cid = 0 to Array.length held - 1 do
            if Sim.chan_occupied sim cid then held.(cid) <- held.(cid) + 1
          done;
          loop ()
    in
    loop ()
  in
  let cycles = max 1 (Sim.cycle sim) in
  let nodes =
    let acc = ref [] in
    Graph.iter_nodes
      (fun n ->
        match n.Graph.kind with
        | Types.Sink -> ()
        | _ ->
            acc :=
              {
                np_id = n.Graph.nid;
                np_label = Printf.sprintf "%s#%d" n.Graph.label n.Graph.nid;
                np_fires = (Sim.fires sim).(n.Graph.nid);
                np_utilisation =
                  float_of_int (Sim.fires sim).(n.Graph.nid)
                  /. float_of_int cycles;
              }
              :: !acc)
      g;
    List.sort (fun a b -> compare a.np_utilisation b.np_utilisation) !acc
  in
  let chans =
    let acc = ref [] in
    Graph.iter_chans
      (fun c ->
        let name nid = (Graph.node g nid).Graph.label in
        acc :=
          {
            cp_id = c.Graph.cid;
            cp_src = name c.Graph.src.Graph.node;
            cp_dst = name c.Graph.dst.Graph.node;
            cp_held = held.(c.Graph.cid);
            cp_pressure = float_of_int held.(c.Graph.cid) /. float_of_int cycles;
          }
          :: !acc)
      g;
    List.sort (fun a b -> compare b.cp_pressure a.cp_pressure) !acc
  in
  { cycles; outcome; nodes; chans }

(** Deterministic JSON rendering (stable field and list order), for tooling
    and for the cross-engine profile-equality regression test. *)
let to_json t : Pv_obs.Json.t =
  let open Pv_obs.Json in
  let outcome_str =
    match t.outcome with
    | Sim.Finished _ -> "finished"
    | Sim.Deadlock _ -> "deadlock"
    | Sim.Timeout _ -> "timeout"
  in
  Obj
    [
      ("cycles", Int t.cycles);
      ("outcome", Str outcome_str);
      ( "nodes",
        List
          (List.map
             (fun n ->
               Obj
                 [
                   ("id", Int n.np_id);
                   ("label", Str n.np_label);
                   ("fires", Int n.np_fires);
                   ("utilisation", Float n.np_utilisation);
                 ])
             t.nodes) );
      ( "chans",
        List
          (List.map
             (fun c ->
               Obj
                 [
                   ("id", Int c.cp_id);
                   ("src", Str c.cp_src);
                   ("dst", Str c.cp_dst);
                   ("held", Int c.cp_held);
                   ("pressure", Float c.cp_pressure);
                 ])
             t.chans) );
    ]

(** The initiation interval implied by the busiest repeating component. *)
let initiation_interval t ~instances =
  if instances = 0 then infinity
  else float_of_int t.cycles /. float_of_int instances

let pp ?(top = 8) ppf t =
  Format.fprintf ppf "%a over %d cycles@\n" Sim.pp_outcome t.outcome t.cycles;
  Format.fprintf ppf "most backpressured channels:@\n";
  List.iteri
    (fun k c ->
      if k < top then
        Format.fprintf ppf "  %-18s -> %-18s held %5.1f%% of cycles@\n" c.cp_src
          c.cp_dst (100.0 *. c.cp_pressure))
    t.chans;
  Format.fprintf ppf "least utilised components:@\n";
  List.iteri
    (fun k n ->
      if k < top then
        Format.fprintf ppf "  %-24s fired %5.1f%% of cycles@\n" n.np_label
          (100.0 *. n.np_utilisation))
    t.nodes
