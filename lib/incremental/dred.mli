(** Change propagation over a grounded knowledge base: DRed retraction
    and incremental re-expansion.

    The paper's pipeline is batch: extract, ground to a fixpoint, build
    [TΦ], infer.  This module keeps a grounded store {e live} across
    epochs of updates without re-running the batch pipeline:

    - {!retract} removes facts with delete–rederive (DRed, Gupta,
      Mumick & Subrahmanian, SIGMOD 1993): first {e overdelete} the
      retracted facts' consequence cone — computed semi-naively with the
      same M1..M6 partition queries that ground inserts, the
      frontier-of-deleted playing the role of the delta — then
      {e rederive} the overdeleted facts that still have an alternative
      derivation (a pure walk of the {!Provenance} index; no queries),
      and finally {e splice} the factor graph in place ([Fgraph.retain]),
      keeping surviving fact ids and factor order stable so marginals
      remain comparable across the retraction.
    - {!ingest} inserts a batch: semi-naive closure from the batch as the
      initial delta, then the delta factor queries
      ([Queries.ground_factors_delta]) extend [TΦ] with exactly the new
      ground-clause instances, plus singletons for new base facts.
    - {!retract_rules} / {!extend_rules} change the rule set [H] and
      repair facts and factors accordingly.
    - {!enforce_constraints} applies the semantic constraints Ω as a
      retraction (with banned keys), so a violation's already-derived
      consequences leave both [TΠ] and [TΦ] — the session-mode
      replacement for the in-closure constraint hook.

    All operations emit [incremental.*] counters and a
    [retract > overdelete > M1..M6 / rederive / splice] (resp.
    [ingest > closure / factors]) span tree through the attached [Obs]
    context. *)

type t

(** [create ?obs kb graph] wraps an already-grounded knowledge base: [kb]
    closed under its rules and [graph] the matching factor graph (as
    produced by [Ground.run] / [Engine.expand]).  Builds the provenance
    index and prepares the partition query plans. *)
val create : ?obs:Obs.t -> Kb.Gamma.t -> Factor_graph.Fgraph.t -> t

val kb : t -> Kb.Gamma.t
val graph : t -> Factor_graph.Fgraph.t
val provenance : t -> Provenance.t

(** [refresh_rules t] re-prepares the partition plans after the rule set
    changed behind this module's back (prefer {!extend_rules} /
    {!retract_rules}). *)
val refresh_rules : t -> unit

(** [local_adjacency t] exposes the maintained provenance index as a
    [Grounding.Local] adjacency (syncing it to the graph first), so live
    sessions answer point queries by walking the existing fact↔factor
    index instead of re-deriving the neighbourhood backward from the rule
    tables. *)
val local_adjacency : t -> Grounding.Local.adjacency

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
  factors_removed : int;  (** factor rows spliced out of [TΦ] *)
  empty_cone : bool;
      (** no retracted fact supported any derivation — the M-query
          machinery was skipped entirely *)
  deleted_ids : int list;  (** the removed fact ids, discovery order *)
  touched_ids : int list;
      (** every fact whose support changed (cone order): deleted,
          rederived and demoted — the set whose marginals a warm-started
          refresh must re-randomize *)
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
  new_ids : int list;
      (** ids of inserted, promoted and derived facts, ascending (the
          epoch's touched set) *)
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

(** [ingest ?max_iterations t facts] inserts a batch of weighted
    extractions [(r, x, c1, y, c2, w)], runs the incremental closure with
    the batch as the initial delta, and extends [TΦ] with the new ground
    instances and singletons.  Banned keys are silently skipped;
    extractions for existing inferred facts promote them (see
    {!ingest_stats.promoted}); duplicate extractions of base facts are
    no-ops. *)
val ingest :
  ?max_iterations:int -> t -> (int * int * int * int * int * float) list ->
  ingest_stats

(** [extend_rules ?max_iterations t rules] appends deductive rules to [H]
    and re-expands: a naive closure (new rules fire on pairs of old
    facts, so there is no delta to restrict to), then the factor
    extension — one batch pass with just the new rules over all of [TΠ],
    plus the delta factor queries with the {e previous} rule set over the
    facts the closure added.  Together these append exactly the
    instances a from-scratch grounding of the grown store would add. *)
val extend_rules : ?max_iterations:int -> t -> Mln.Clause.t list -> ingest_stats

(** [reexpand ?max_iterations t] is {!extend_rules} with no new rules: a
    consistency pass that derives anything the last epochs left out (a
    no-op returning [converged = true], [derived = 0] on a closed
    store). *)
val reexpand : ?max_iterations:int -> t -> ingest_stats
