(** Value-change-dump (VCD) recording of a simulation, viewable in GTKWave
    or any waveform viewer — the ModelSim-style debugging aid for circuits
    built with this library.

    Every channel contributes two signals (its 32-bit data value and a
    [*_v] valid bit) and every node a fire strobe; an [epoch] vector and a
    one-cycle [squash] strobe mark mis-speculation squashes so GTKWave
    timelines line up with the Chrome traces from {!Pv_obs.Trace}. *)

(** Streaming recorder over an existing simulation. *)
type t

(** Write the VCD header for [sim]'s graph and return a recorder. *)
val create : out_channel -> Sim.t -> t

(** Dump the signal changes for the current cycle; call once per cycle
    {e before} {!Sim.step}. *)
val sample : t -> unit

(** Run a simulation to completion while writing a VCD to [path]; returns
    the outcome.  The config's [max_cycles] bounds the dump size (the
    [prevv vcd] command sets it to 5,000 by default). *)
val record :
  ?cfg:Sim.config ->
  path:string ->
  Graph.t ->
  Memif.t ->
  Sim.outcome
