(** Distributed grounding — ProbKB-p and ProbKB-pn (paper, Section 4.4).

    Runs {!Ground.drive}'s closure loop with every [Mi ⋈ TΠ] join
    executed on the simulated MPP cluster: this module owns only the
    distribution, the distributed plans and their cost charges.  In [Views]
    mode (ProbKB-p) the fact side of each join comes from the
    redistributed materialized views, so it is always collocated and only
    intermediates move; in [No_views] mode (ProbKB-pn) the fact table is
    distributed by its primary key and every join pays redistribution or
    broadcast motions — the two plans of Figure 4.

    Results (the inferred facts, the trajectory, the constraint removals
    and the ground factors) are identical to the single-node route; the
    differential tests assert it.  The MPP executor has no delta joins,
    so there is no semi-naive or incremental mode. *)

type mode =
  | Views  (** ProbKB-p: redistributed materialized views *)
  | No_views  (** ProbKB-pn: base distribution only *)

type options = {
  max_iterations : int;
  apply_constraints : (Kb.Storage.t -> int * int) option;
      (** the [applyConstraints(TΠ)] hook; returns
          [(violations found, facts removed)] *)
  build_factors : bool;
  on_iteration :
    (iteration:int -> new_facts:int -> sim_elapsed:float -> unit) option;
      (** progress callback with the cumulative simulated clock *)
  spill : Storage.Spill.t option;
      (** out-of-core shards for [No_views] mode (default [None]): once
          [TΠ] crosses the policy's byte threshold, each hash shard of
          the distributed fact table is flushed to its own on-disk
          segment store and local joins materialize it back through the
          mmap — [measured_seconds] then includes the shard read I/O.
          Results are bit-identical with or without spilling *)
  obs : Obs.t;
      (** trace context (default {!Obs.null}).  When enabled, the run
          emits [closure > iteration i > distribute/M1..M6] and
          [factors] span trees, the loop's counters under [mpp.*], and
          [mpp.*] counters (motions, motion bytes, per-segment join busy
          time and skew) derived from the cost trace. *)
}

val default_options : options

type result = {
  ground : Ground.result;
      (** the closure loop's result, as on the single-node route; its
          trajectory points are also emitted as snapshots (stage ["mpp"],
          point ["iteration"], with [sim_seconds] and [motion_bytes])
          when [obs] has a sink installed *)
  graph : Factor_graph.Fgraph.t;  (** [ground.graph], [TΦ] *)
  sim_seconds : float;
      (** simulated cluster time, including load — derived from the cost
          model, not measured *)
  measured_seconds : float;
      (** real time spent in the materially-executed operators
          (per-segment joins, view builds) on the domain pool, summed
          per segment inside the simulation *)
  load_sim_seconds : float;
      (** one-time distribution work (view creation, MLN replication) —
          the paper's Table 3 Load column; subtract from [sim_seconds]
          for steady-state query time *)
  motion_bytes : int;  (** bytes shipped by motions *)
  cost : Mpp.Cost.t;  (** the full trace (Figure 4-style plan) *)
}

(** [run ?options ?mode cluster kb] grounds [kb] in place on the simulated
    cluster. *)
val run : ?options:options -> ?mode:mode -> Mpp.Cluster.t -> Kb.Gamma.t -> result
