(** Algorithm 1 — the grounding driver.

    Repeatedly applies every rule partition in batches, merging new facts
    into [TΠ], applying semantic constraints, until the transitive closure
    is reached (or an iteration budget is exhausted); then applies the
    partitions once more to construct the ground factors, plus one
    singleton factor per weighted base fact.

    The loop is written once ({!drive}) and runs the joins through an
    {!executor}: {!run} and {!closure} use the local one (the domain
    pool), {!Ground_mpp.run} the simulated MPP cluster. *)

type options = {
  max_iterations : int;  (** closure iteration budget (paper: 15 suffice) *)
  apply_constraints : (Kb.Storage.t -> int * int) option;
      (** the [applyConstraints(TΠ)] hook of Algorithm 1, line 6; returns
          [(violations found, facts removed)] (see [Quality.Semantic]) *)
  build_factors : bool;  (** run the groundFactors phase (default true) *)
  semi_naive : bool;
      (** delta-driven evaluation: each iteration joins only against the
          facts added by the previous one instead of the whole of [TΠ].
          Sound because derivation is monotone; mid-run deletions by a
          constraint hook are handled by dropping the deleted rows from
          the pending delta after each constraint pass, so the hook no
          longer forces naive evaluation — the delta-mode closure matches
          the naive reference output.  An optimization the paper leaves on
          the table — see the ablation benchmark.  Default [false],
          matching the paper's Algorithm 1 *)
  initial_delta : Relational.Table.t option;
      (** incremental mode: a table with the [TΠ] schema holding the facts
          that were just added to an already-closed store; the first
          iteration joins only against them (implies [semi_naive]).  This
          is the paper's knowledge-expansion loop run *continuously*: new
          extractions arrive, only their consequences are derived *)
  on_iteration : (iteration:int -> new_facts:int -> unit) option;
      (** progress callback *)
  spill : Storage.Spill.t option;
      (** out-of-core probing (default [None]): once [TΠ] crosses the
          policy's byte threshold, keep an on-disk segment-store copy in
          step (whole segments appended per iteration, partial tail
          resident) and probe the closure and factor joins from it via
          mmap instead of the resident table.  The resident store stays
          the authority; results are bit-identical with or without
          spilling *)
  obs : Obs.t;
      (** trace context (default {!Obs.null}).  When enabled, the run
          emits a [closure > iteration i > M1..M6/merge] span tree, a
          [factors] span tree, and [ground.*] counters; the context is
          also installed as the ambient trace so the relational operators
          underneath record their own metrics. *)
}

val default_options : options

(** One point of the expansion trajectory — the per-iteration curve behind
    the paper's quality-over-iterations figures.  Point 0 (present only
    with a constraint hook) is the pre-closure constraint pass. *)
type trajectory_point = {
  iteration : int;
  new_facts : int;  (** facts added by this iteration's joins *)
  total_facts : int;  (** [TΠ] size after constraints ran *)
  violations : int;  (** constraint violations found this pass *)
  removed : int;  (** facts the constraint pass deleted *)
}

type result = {
  graph : Factor_graph.Fgraph.t;  (** [TΦ] *)
  iterations : int;  (** closure iterations executed *)
  converged : bool;  (** true iff a fixpoint was reached *)
  trajectory : trajectory_point list;
      (** per-iteration expansion curve, oldest first; each point is also
          emitted as a snapshot (stage ["ground"], point ["iteration"])
          when [obs] has a sink installed *)
  new_fact_count : int;  (** facts added by inference in total *)
  removed_by_constraints : int;  (** facts deleted by the constraint hook *)
  n_singleton_factors : int;
  n_clause_factors : int;
  stats : Relational.Stats.t;  (** per-query timings and cardinalities *)
}

(** {1 The closure loop} *)

(** Where the joins of one route execute.  Everything between them —
    active patterns, Ω passes, the semi-naive delta, merging in pattern
    order, trajectory, snapshots, counters, convergence and the factor
    phase's spans — belongs to {!drive}. *)
type executor = {
  stage : string;
      (** snapshot stage and counter prefix (["ground"], ["mpp"]) *)
  cat : string;  (** span category *)
  atoms :
    delta:Relational.Table.t option ->
    Mln.Pattern.t list ->
    (Mln.Pattern.t * Relational.Table.t * float) list;
      (** one iteration's Query 1-i per pattern, all against the same
          [TΠ]: deduplicated head atoms and the query's seconds, in
          pattern order; with a delta, only derivations using a delta
          fact *)
  factors : unit -> Mln.Pattern.t -> Factor_graph.Fgraph.t -> int;
      (** prepares the factor phase, then runs Query 2-i into [TΦ] *)
  singletons : Factor_graph.Fgraph.t -> int;
      (** [groundFactors(TΠ)] (Algorithm 1, line 10) *)
  point_data : unit -> (string * Obs.value) list;
      (** extra snapshot data for each trajectory point *)
}

(** [drive options exec kb] runs Algorithm 1 on [kb], with [exec]
    running the joins.  It does not read [options.spill]: spilling
    belongs to the executor. *)
val drive : options -> executor -> Kb.Gamma.t -> result

(** [run ?options kb] grounds the knowledge base in place: inferred facts
    are merged into [kb]'s fact store with null weights. *)
val run : ?options:options -> Kb.Gamma.t -> result

(** [closure ?options kb] is {!run} with [build_factors = false] — computes
    only the fact closure (the repeated Query 1 phase of Table 3). *)
val closure : ?options:options -> Kb.Gamma.t -> result
