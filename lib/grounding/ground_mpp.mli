(** Distributed grounding — ProbKB-p and ProbKB-pn (paper, Section 4.4).

    Runs {!Ground.drive}'s closure loop with every [Mi ⋈ TΠ] join
    executed on the simulated MPP cluster: this module owns only the
    distribution, the distributed plans and their cost charges.  In [Views]
    mode (ProbKB-p) the fact side of each join comes from the
    redistributed materialized views, so it is always collocated and only
    intermediates move; in [No_views] mode (ProbKB-pn) the fact table is
    distributed by its primary key and every join pays redistribution or
    broadcast motions — the two plans of Figure 4.

    The closure is semi-naive.  The views or pn shards are distributed
    tables that receive INSERTs: each distribution appends the rows [TΠ]
    gained since the previous one, and only an Ω pass that compacts
    [TΠ] forces a rebuild.  From the second iteration on, each pattern
    joins only the previous iteration's facts (Δ): a one-atom pattern
    its rules with Δ; a two-atom pattern Δ on its q atom, then J with all
    of [TΠ], and Δ on its r atom through the mirrored rule table, keeping
    only the q facts older than Δ.  The first iteration binds all of
    [TΠ] to the q atom.

    Every query returns its derivation rows — head, body ids and rule
    weight — in the single-node scan join's order: the distributed joins
    project the body ids, and the coordinator stably sorts the gathered
    rows by them.  {!Ground.drive} merges their heads and builds [TΦ]
    from them, so there is no factor phase of distributed joins.  [TΠ]
    (every fact id included), [TΦ] and the trajectory are bit-identical
    to {!Ground.run}'s for either mode, any segment count, spilled or
    not; the oracle test in [test_mpp] checks it. *)

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
          segment store, each later distribution appends its new rows as
          one more segment, and local joins probe the shard from its
          mmap'd segments — [measured_seconds] then includes the shard
          read I/O.  A rebuild removes the stores it replaces, so a run
          leaves one store per shard.  Results are bit-identical with or
          without spilling *)
  obs : Obs.t;
      (** trace context (default {!Obs.null}).  When enabled, the run
          emits [closure > iteration i > distribute/M1..M6] and
          [factors] span trees ([factors > last delta] distributes and
          joins once more when the closure stopped at
          [max_iterations]), the loop's counters under [mpp.*], the
          distribution counters [mpp.distribution_builds] and
          [mpp.rows_appended], and [mpp.*] counters (motions, motion
          bytes, per-segment join busy time and skew) derived from the
          cost trace. *)
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
