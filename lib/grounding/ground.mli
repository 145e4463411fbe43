(** Algorithm 1 — the grounding driver.

    Repeatedly applies every rule partition in batches, merging new facts
    into [TΠ], applying semantic constraints, until the transitive closure
    is reached (or an iteration budget is exhausted); then builds the
    ground factors from the derivations those joins found, plus one
    singleton factor per weighted base fact.

    The first iteration joins all of [TΠ]; every later one joins only
    the derivations that use a fact the previous iteration added (the
    delta), and appends the same facts, in the same order and with the
    same ids, as re-joining all of [TΠ] would.  Each derivation over the
    final [TΠ] is so joined exactly once, and its row — head key, body
    ids, rule weight — is kept: [TΦ] is built from those rows, with no
    second pass over [TΠ], and equals Query 2 over the final [TΠ] row
    for row, in its order, with the same factor ids.

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
  build_factors : bool;
      (** build [TΦ] (default true): keep the closure's derivation rows
          and resolve them into factors once it ends *)
  delta_from : int option;
      (** incremental mode: the first id of the facts that were just
          added to an already-closed store ({!Kb.Storage.next_id} taken
          before inserting them); the first iteration, too, joins only
          against the facts from that id on.  This is the paper's
          knowledge-expansion loop run *continuously*: new extractions
          arrive, only their consequences are derived.  It derives facts
          only: the derivations over the older facts were never joined,
          so [build_factors] must be [false] ({!closure}); {!drive}
          raises [Invalid_argument] otherwise *)
  on_iteration : (iteration:int -> new_facts:int -> unit) option;
      (** progress callback *)
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
    trajectory, snapshots, counters, convergence and the factor phase —
    belongs to {!drive}.  [drive] counts the statements of the paper's
    Table 3 as the [<stage>.atom_queries] counter: one per Query 1-i it
    merges. *)
type executor = {
  stage : string;
      (** snapshot stage and counter prefix (["ground"], ["mpp"]) *)
  cat : string;  (** span category *)
  atoms :
    delta_from:int option ->
    Mln.Pattern.t list ->
    (Mln.Pattern.t * Relational.Table.t) list;
      (** one iteration's joins per pattern, all against the same [TΠ]:
          the derivation rows — head key, body ids I2/I3 and rule
          weight, columns {!Queries.atom_i_cols} — in the single-node
          scan join's order, every row kept.  Without a delta, every
          derivation the full query finds ({!Queries.derivations}).
          With [delta_from = Some id], the delta is the facts from [id]
          on — the rows of [TΠ] from that id ({!Kb.Storage.rows_from})
          — and the executor returns each derivation that uses a delta
          fact once, in the full query's order
          ({!Queries.derivations_delta}).  [drive] merges each
          pattern's heads at their first occurrence, so a delta
          iteration adds the facts a full one would, in the same order
          and with the same ids; it keeps the rows for the factor
          phase *)
  singletons : Factor_graph.Fgraph.t -> int;
      (** [groundFactors(TΠ)] (Algorithm 1, line 10) *)
  point_data : unit -> (string * Obs.value) list;
      (** extra snapshot data for each trajectory point *)
}

(** [drive options exec kb] runs Algorithm 1 on [kb], with [exec]
    running the joins.

    With [build_factors], the factor phase (lines 8-10) joins nothing
    it has joined before.  A closure that stopped at [max_iterations]
    while still adding facts first runs one more [exec.atoms] over its
    last iteration's facts, and merges nothing.  Then, for each pattern
    in order, it takes the rows kept from every iteration, drops those
    with a body fact Ω deleted, stably sorts them into the full scan's
    order ({!Queries.scan_order}) and resolves their heads
    ({!Queries.resolve_heads}); then it adds the singletons.

    @raise Invalid_argument if [options] sets both [delta_from] and
    [build_factors]. *)
val drive : options -> executor -> Kb.Gamma.t -> result

(** [run ?options kb] grounds the knowledge base in place: inferred facts
    are merged into [kb]'s fact store with null weights. *)
val run : ?options:options -> Kb.Gamma.t -> result

(** [closure ?options kb] is {!run} with [build_factors = false] — computes
    only the fact closure (the repeated Query 1 phase of Table 3), and
    keeps no derivation rows. *)
val closure : ?options:options -> Kb.Gamma.t -> result
