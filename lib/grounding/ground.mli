(** Algorithm 1 — the grounding driver.

    Repeatedly applies every rule partition in batches, merging new facts
    into [TΠ], applying semantic constraints, until the transitive closure
    is reached (or an iteration budget is exhausted); then applies the
    partitions once more to construct the ground factors, plus one
    singleton factor per weighted base fact.

    The first iteration joins all of [TΠ]; every later one joins only
    the derivations that use a fact the previous iteration added (the
    delta), and appends the same facts, in the same order and with the
    same ids, as re-joining all of [TΠ] would.

    The loop is written once ({!drive}) and runs the joins through an
    {!executor}: {!run} and {!closure} use the local one (the domain
    pool), {!Ground_mpp.run} the simulated MPP cluster. *)

type options = {
  max_iterations : int;  (** closure iteration budget (paper: 15 suffice) *)
  apply_constraints : (Kb.Storage.t -> int * int) option;
      (** the [applyConstraints(TΠ)] hook of Algorithm 1, line 6; returns
          [(violations found, facts removed)] (see [Quality.Semantic]).
          It must delete through [Kb.Storage.delete_ids ~ban] (as
          [Quality.Semantic.hook] does), which bans the keys and
          compacts in one call: a delta iteration never re-joins the old
          facts that derived a deleted fact, so only a ban keeps the
          full join from re-deriving it, and the next delta is read off
          the compacted [TΠ] *)
  build_factors : bool;  (** run the groundFactors phase (default true) *)
  delta_from : int option;
      (** incremental mode: the first id of the facts that were just
          added to an already-closed store ({!Kb.Storage.next_id} taken
          before inserting them); the first iteration, too, joins only
          against the facts from that id on.  This is the paper's
          knowledge-expansion loop run *continuously*: new extractions
          arrive, only their consequences are derived *)
  on_iteration : (iteration:int -> new_facts:int -> unit) option;
      (** progress callback *)
  spill : Storage.Spill.t option;
      (** out-of-core scans (default [None]): once [TΠ] crosses the
          policy's byte threshold, the phases that scan it — the first
          iteration and the factor phase — probe an on-disk segment-store
          copy via mmap instead of the resident table (whole segments
          appended as [TΠ] grows, the partial tail resident).  A copy
          made stale by a constraint pass's compaction is replaced, and
          its store directory removed, so a run leaves one store.  Delta
          iterations probe the resident partial-key indexes and read no
          segment.  The resident store stays the authority; results are
          bit-identical with or without spilling *)
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
}

(** {1 The closure loop} *)

(** Where the joins of one route execute.  Everything between them —
    active patterns, Ω passes, the delta, merging in pattern order,
    trajectory, snapshots, counters, convergence and the factor phase's
    spans — belongs to {!drive}.  [drive] counts the statements of the
    paper's Table 3 as the [<stage>.atom_queries] counter: one per
    Query 1-i it merges. *)
type executor = {
  stage : string;
      (** snapshot stage and counter prefix (["ground"], ["mpp"]) *)
  cat : string;  (** span category *)
  atoms :
    delta_from:int option ->
    Mln.Pattern.t list ->
    (Mln.Pattern.t * Relational.Table.t) list;
      (** one iteration's Query 1-i per pattern, all against the same
          [TΠ]: deduplicated head atoms, in pattern order.  Without a
          delta, every head the full query derives, in its order.  With
          [delta_from = Some id], the delta is the facts from [id] on —
          the rows of [TΠ] from that id ({!Kb.Storage.rows_from}) — and
          the executor returns the heads of the derivations that use a
          delta fact, in the full query's order
          ({!Queries.ground_atoms_delta}), so a delta iteration adds the
          facts a full one would, in the same order and with the same
          ids *)
  factors : unit -> Mln.Pattern.t -> Factor_graph.Fgraph.t -> int;
      (** prepares the factor phase, then runs Query 2-i into [TΦ], its
          rows in the single-node scan join's order *)
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
