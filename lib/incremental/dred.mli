(** Change propagation over a grounded knowledge base: DRed retraction
    and incremental re-expansion.

    The paper's pipeline is batch: extract, ground to a fixpoint, build
    [TΦ], infer.  This module keeps a grounded store {e live} across
    epochs of updates without re-running the batch pipeline:

    - {!retract} removes facts with delete–rederive (DRed, Gupta,
      Mumick & Subrahmanian, SIGMOD 1993): first {e overdelete} the
      retracted facts' consequence cone — walked through the fact↔factor
      index ({!lineage}) from each fact to the heads of the live factors
      it supports, since [TΦ] holds Query 2 over [TΠ] — then
      {e rederive} the overdeleted facts that still have an alternative
      derivation (a walk of the same index; no queries either), and
      finally {e retire} what died: the dead facts' factors, found
      through the index, are masked in [TΦ] ([Fgraph.kill]), which the
      index skips from then on, and the dead facts are tombstoned in
      [TΠ] ([Storage.mark_deleted]).  Nothing moves and no index is
      edited, so a retract costs its cone, not the KB.  Dead rows persist across
      epochs; a table is compacted only once its dead rows pass a fixed
      fraction of its rows (amortised O(Δ)), and before the whole-KB
      passes of {!extend_rules}, {!retract_rules} and
      {!enforce_constraints}.  Surviving fact ids and the order of live
      factors never change, so marginals remain comparable across the
      retraction.
    - {!ingest} inserts a batch: semi-naive closure from the batch as the
      initial delta, then the closure's own delta query
      ([Queries.derivations_delta] from the batch's first id) extends
      [TΦ] with exactly the new ground-clause instances, in Query 2's
      order, plus singletons for new base facts.
    - {!retract_rules} / {!extend_rules} change the rule set [H] and
      repair facts and factors accordingly; {!extend_rules} and
      {!reexpand} run the batch grounding, so they leave the store as a
      rebuild would.

    Every operation keeps [TΦ] equal, as a multiset, to Query 2 over
    the live [TΠ] plus one singleton per base fact — the batch's rule —
    which is what lets the overdelete and rederive steps read the
    derivations off the index.
    - {!enforce_constraints} applies the semantic constraints Ω as a
      retraction (with banned keys), so a violation's already-derived
      consequences leave both [TΠ] and [TΦ] — the session-mode
      replacement for the in-closure constraint hook.

    All operations emit [incremental.*] counters (among them
    [incremental.compactions], one per table compacted) and a
    [retract > overdelete / rederive / retire / compact] (resp.
    [ingest > closure / factors > M1..M6], [reexpand > closure / factors
    / append]) span tree through the attached [Obs] context. *)

type t

(** [create ?obs kb graph] wraps an already-grounded knowledge base: [kb]
    closed under its rules and [graph] the matching factor graph (as
    produced by [Ground.run] / [Engine.expand]).  Prepares the partition
    query plans; the fact↔factor index is built on its first read. *)
val create : ?obs:Obs.t -> Kb.Gamma.t -> Factor_graph.Fgraph.t -> t

val kb : t -> Kb.Gamma.t
val graph : t -> Factor_graph.Fgraph.t

(** [lineage t] is the fact↔factor index of {!graph} as it stands
    ([Factor_graph.Lineage]).  It is built on first demand and kept
    until an operation appends to [TΦ] or compacts it: a retract's
    kills need no rebuild, since the index skips killed positions when
    read.  So after a retract, a refresh or nothing at all, every call
    returns the same index — the one a session's snapshots share — and
    the first call after an append or compaction builds a new one, one
    counting sort over [TΦ].  A returned index reads {!graph} correctly
    until the next append or compaction, and a copy of {!graph} taken
    now ([Lineage.through]) for good. *)
val lineage : t -> Factor_graph.Lineage.t

(** [compactions t] is the number of table compactions so far — the
    [incremental.compactions] counter, kept whether or not a trace is
    attached. *)
val compactions : t -> int

(** [take_dirty t] is the set of fact ids mentioned by every [TΦ] row
    appended or killed since the last [take_dirty] (or since {!create}),
    and empties it.  Every operation below that changes [TΦ] adds to it:
    ingest, retract, {!enforce_constraints}, {!extend_rules},
    {!retract_rules} and {!reexpand}.  Killed rows are noted as they die;
    appended rows are the ones past a sync watermark ([Fgraph.bound] when
    last noted), noted at the start and end of every operation, before a
    compaction, by {!lineage} and here — so rows left by an operation
    that raised halfway are dirty too.  Compaction moves rows but changes
    none, so it adds nothing.  A marginal solve that holds this set
    against the last one re-solves only the components it touches
    ([Inference.Hybrid.solve]). *)
val take_dirty : t -> (int, unit) Hashtbl.t

(** [dirty_count t] is the size of the set {!take_dirty} would return,
    without emptying it. *)
val dirty_count : t -> int

(** Outcome of one retraction epoch. *)
type retract_stats = {
  requested : int;  (** seed facts actually present and retracted *)
  cone : int;  (** size of the overdeleted candidate cone (seeds incl.) *)
  overdeleted : int;  (** facts physically removed from [TΠ] *)
  rederived : int;  (** cone facts rescued by an alternative derivation *)
  demoted : int;
      (** retracted {e base} facts that survived as inferred facts: an
          alternative derivation remains, so the fact keeps its id but
          loses its singleton factor and extraction weight *)
  factors_removed : int;  (** factor rows retired from [TΦ] *)
  empty_cone : bool;
      (** no retracted fact supported any derivation — there was no
          cone to walk *)
  deleted_ids : int list;  (** the removed fact ids, discovery order *)
}

val no_retract : retract_stats

(** Outcome of one insert / rule-change epoch. *)
type ingest_stats = {
  inserted : int;  (** genuinely new base facts *)
  promoted : int;
      (** extractions whose key already existed as an {e inferred} fact:
          the fact keeps its id and gains the extraction weight and a
          singleton factor *)
  derived : int;  (** facts added by the incremental closure *)
  new_factors : int;  (** factor rows appended to [TΦ] *)
  closure_iterations : int;
  converged : bool;
}

val no_ingest : ingest_stats

(** [retract ?ban t ids] removes the given facts and repairs [TΠ]/[TΦ]
    with delete–rederive.  Facts in the overdeleted cone that retain an
    alternative derivation survive; retracted base facts with an
    alternative derivation are demoted to inferred.  With [ban = true]
    (default [false]) the retracted facts' keys are banned — they can
    never be rederived now nor re-derived by a later epoch — while the
    rest of the cone stays legitimately re-derivable.  Unknown ids are
    ignored. *)
val retract : ?ban:bool -> t -> int list -> retract_stats

(** [retract_rules t ~remove] deletes every rule satisfying [remove] from
    [H], removes exactly their ground instances from [TΦ] (multiset
    subtraction, so instances shared with surviving identical rules are
    kept), and DReds the facts those instances derived under the
    remaining rule set. *)
val retract_rules : t -> remove:(Mln.Clause.t -> bool) -> retract_stats

(** [enforce_constraints t] applies Ω as a banned retraction: every fact
    whose constrained position holds a violating (entity, class) pair is
    retracted through DRed together with its no-longer-supported
    consequences.  Returns [(violations found, retraction stats)].  One
    pass reaches a fixpoint — deleting facts only shrinks the groups Ω
    counts. *)
val enforce_constraints : t -> int * retract_stats

(** [compact t] compacts the dead rows out of [TΠ] and [TΦ] now, whatever
    their share, dropping the {!lineage} when [TΦ] had dead rows — what
    the compaction policy does once dead rows pass its fraction.  Every answer, count
    and marginal is the same with or without it. *)
val compact : t -> unit

(** [ingest ?max_iterations t facts] inserts a batch of weighted
    extractions [(r, x, c1, y, c2, w)], runs the incremental closure with
    the batch as the initial delta, and extends [TΦ] with the new ground
    instances — Query 2's rows over the grown [TΠ] with a body fact from
    the batch's first id on, found by the delta query the closure runs
    and appended in Query 2's order — and singletons.  On a store whose
    closure was capped it grounds only the derivations that use a new
    fact; {!reexpand} grounds the rest.  Banned keys are silently skipped;
    extractions for existing inferred facts promote them (see
    {!ingest_stats.promoted}); duplicate extractions of base facts are
    no-ops, and so is every copy of a key after its first in the batch
    (the first copy's weight wins, whether it inserts or promotes). *)
val ingest :
  ?max_iterations:int -> t -> (int * int * int * int * int * float) list ->
  ingest_stats

(** [extend_rules ?max_iterations t rules] appends deductive rules to [H]
    and re-expands with the batch grounding ([Ground.run]): new rules
    fire on pairs of old facts, so its first iteration joins all of
    [TΠ], and its graph is Query 2 over the final [TΠ] plus the
    singletons.  The rows of that graph the live [TΦ] lacks (a multiset
    difference) are appended in its order: the new rules' instances,
    the derivations that use a new fact, and whatever a capped closure
    or a fact stored in the KB behind the session's back left out.  The
    store then holds what a from-scratch grounding would, fact ids and
    factor order apart. *)
val extend_rules : ?max_iterations:int -> t -> Mln.Clause.t list -> ingest_stats

(** [reexpand ?max_iterations t] is {!extend_rules} with no new rules: a
    consistency pass that derives and grounds anything the last epochs
    left out (a no-op returning [converged = true], [derived = 0] and
    [new_factors = 0] on a closed store). *)
val reexpand : ?max_iterations:int -> t -> ingest_stats
