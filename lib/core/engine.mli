(** The ProbKB engine — the pipeline of Figure 1.

    The pipeline is exposed as explicit, composable stages sharing one
    trace context: {!expand} (rule cleaning + batch grounding + quality
    control), {!infer} (marginal inference over the ground factor graph),
    and {!store_marginals} (write each inferred fact's probability back
    into the knowledge base, "thereby avoiding query-time computation" —
    paper, Section 2.2).  {!run} is their composition.

    Every stage records into the engine's {!trace} (a no-op unless
    [config.obs] enables it); {!expansion} and {!result} carry the
    aggregated {!Obs.Summary.t} snapshot taken when the stage finished. *)

type t

(** [create ?config kb] wraps a knowledge base.  The KB is mutated by
    expansion (inferred facts are added to [TΠ]).  The engine owns a
    trace context created from [config.obs]. *)
val create : ?config:Config.t -> Kb.Gamma.t -> t

val kb : t -> Kb.Gamma.t
val config : t -> Config.t

(** [trace t] is the engine's trace context — pass it to ad-hoc
    instrumentation, or export it with {!Obs.write_chrome_trace}. *)
val trace : t -> Obs.t

(** [summary t] aggregates everything recorded into the trace so far. *)
val summary : t -> Obs.Summary.t

type expansion = {
  graph : Factor_graph.Fgraph.t;
  iterations : int;
  converged : bool;
  trajectory : Grounding.Ground.trajectory_point list;
      (** per-iteration expansion curve (new facts, totals, violations) *)
  new_fact_count : int;
  removed_by_constraints : int;
  n_factors : int;
  rules_used : int;  (** after rule cleaning *)
  wall_seconds : float;
  sim_seconds : float option;
      (** simulated cluster time (MPP engines): derived from the cost
          model, not measured *)
  obs : Obs.Summary.t;  (** trace snapshot at the end of the stage *)
}

(** [expand t] grounds the knowledge base (Algorithm 1 + quality
    control). *)
val expand : t -> expansion

(** [infer t e] runs the configured marginal inference over [e]'s factor
    graph; returns fact id → probability (empty when inference is
    disabled). *)
val infer : t -> expansion -> (int, float) Hashtbl.t

(** [infer_full t e] is {!infer} plus the per-method solve report —
    sweeps and online diagnostics for samplers, component/width/solver
    breakdown for the hybrid dispatcher ([None] only when inference is
    disabled).  The config's [target_r_hat] / [min_ess] criteria and
    [checkpoint_sweeps] cadence are applied here. *)
val infer_full :
  t -> expansion -> (int, float) Hashtbl.t * Inference.Marginal.solve_info option

(** [store_marginals t marginals] writes each probability into the weight
    column of the corresponding (inferred) fact.  Returns how many facts
    were updated. *)
val store_marginals : t -> (int, float) Hashtbl.t -> int

type result = {
  expansion : expansion;
  marginals_stored : int;
  inference : Inference.Marginal.solve_info option;
      (** per-method solve report ([None] when inference is disabled) *)
  obs : Obs.Summary.t;  (** trace snapshot over the whole pipeline *)
}

(** [run t] is [expand] + [infer] + [store_marginals]. *)
val run : t -> result

(** {1 Point queries: local grounding}

    Answering "what is P(fact)?" does not require grounding the whole
    knowledge base: {!query_local} grounds only the query's neighbourhood
    backward from the queried fact ([Grounding.Local]), clamps the
    budget-pruned boundary to prior probabilities, and solves the
    resulting subgraph — exactly (enumeration) when every connected
    component is small, by chromatic Gibbs otherwise. *)

(** One answered point query (the {!Snapshot.answer} record re-exported;
    [epoch] is the epoch the answer was computed against — 0 outside
    sessions). *)
type local_answer = Snapshot.answer = {
  id : int;  (** the queried fact *)
  marginal : float;  (** P(fact) over the local neighbourhood *)
  epoch : int;  (** epoch the answer was computed against *)
  interior : int;  (** facts fully expanded by the walk *)
  boundary : int;  (** facts clamped at the truncation frontier *)
  hops : int;  (** backward hops explored *)
  factors : int;  (** factor rows in the local subgraph (clamps incl.) *)
  pruned_mass : float;  (** influence discarded at the boundary *)
  truncated : bool;  (** a budget limit cut the walk short *)
  enumerated : bool;  (** solved exactly (vs chromatic Gibbs) *)
  ground_seconds : float;
  infer_seconds : float;
}

(** [query_local ?budget t ~r ~x ~c1 ~y ~c2] answers a point query by
    backward local grounding against the KB's fact indexes (the fact
    closure must have run — e.g. after {!expand} — but no factor graph is
    needed).  Boundary facts are clamped to their extraction prior
    (sigmoid of the weight column; uninformative 0.5 for inferred
    facts).  [None] when the fact is unknown.  With the default unbounded
    budget and a neighbourhood that fits the exact enumerator, the
    marginal is bit-identical to full-closure exact inference.  Emits a
    ["query_local"] span carrying frontier size, hops, pruned mass and
    the grounding/inference latency split.

    @deprecated This is now a thin wrapper over
    [Snapshot.query_local (Snapshot.of_engine t)] — the engine's cached
    live read view.  New code (and anything that shares answers across
    domains) should hold an {!Snapshot.t} explicitly. *)
val query_local :
  ?budget:Grounding.Local.budget ->
  t -> r:int -> x:int -> c1:int -> y:int -> c2:int -> local_answer option

(** {1 Live sessions}

    A session keeps a knowledge base expanded {e continuously}: epochs of
    {!Session.ingest} / {!Session.retract} update [TΠ] and [TΦ]
    incrementally (semi-naive closure for inserts, DRed delete–rederive
    for deletes — see [Incremental.Dred]) instead of re-running the batch
    pipeline, and {!Session.refresh_marginals} re-estimates probabilities
    warm-starting the sampler from the previous epoch wherever the
    updates did not reach. *)

module Session : sig
  type engine := t

  type t

  (** One epoch's ledger entry. *)
  type epoch_stats = {
    epoch : int;
    op : string;
        (** ["ingest" | "retract" | "retract_rules" | "add_rules" |
            "reexpand" | "refresh_marginals"] *)
    inserted : int;
    promoted : int;
    derived : int;
    retracted : int;  (** facts physically removed *)
    cone : int;  (** overdelete cone size *)
    rederived : int;
    violations : int;  (** constraint violations enforced this epoch *)
    facts : int;  (** [TΠ] size after the epoch *)
    factors : int;  (** [TΦ] size after the epoch *)
    wall_seconds : float;
  }

  val dred : t -> Incremental.Dred.t
  val engine : t -> engine
  val kb : t -> Kb.Gamma.t
  val graph : t -> Factor_graph.Fgraph.t

  (** [epoch s] is the number of epochs run so far (0 right after
      {!val:session}; every operation, including a refresh, is one
      epoch). *)
  val epoch : t -> int

  (** [history s] is the per-epoch ledger, oldest first; each epoch is
      also emitted as a snapshot (stage ["session"], point ["epoch"])
      when the trace has a sink installed. *)
  val history : t -> epoch_stats list

  (** [last_run s] is the solve report of the most recent
      {!refresh_marginals}, whatever the configured method ([None] until
      the first refresh). *)
  val last_run : t -> Inference.Marginal.solve_info option

  (** [ingest s facts] inserts extractions [(r, x, c1, y, c2, w)] and
      derives their consequences incrementally.  When the config enables
      semantic constraints, Ω is enforced afterwards {e as a DRed
      retraction with banned keys} — session mode never uses the
      in-closure hook. *)
  val ingest : t -> (int * int * int * int * int * float) list -> epoch_stats

  (** [retract ?ban s ids] removes facts with delete–rederive; see
      [Incremental.Dred.retract]. *)
  val retract : ?ban:bool -> t -> int list -> epoch_stats

  val retract_keys :
    ?ban:bool -> t -> (int * int * int * int * int) list -> epoch_stats

  val retract_rules : t -> remove:(Mln.Clause.t -> bool) -> epoch_stats
  val add_rules : t -> Mln.Clause.t list -> epoch_stats

  (** [reexpand s] runs a full-closure consistency pass (a no-op on a
      closed store). *)
  val reexpand : t -> epoch_stats

  (** [refresh_marginals s] re-estimates marginals over the current
      graph with the configured method ([None] when inference is
      disabled).  With the Chromatic method and [config.warm_start], the
      chain resumes from the previous refresh's final state for every
      variable no epoch has touched since; touched and new variables are
      re-initialized from the seed stream.  The result is deterministic
      for a given (seed, epoch history) at any pool size. *)
  val refresh_marginals : t -> epoch_stats option

  (** A fact as seen through the session. *)
  type fact_view = {
    id : int;
    base : bool;  (** carries extraction (singleton) support *)
    weight : float;  (** extraction confidence; null for inferred facts *)
    marginal : float option;  (** estimate from the last refresh, if any *)
  }

  (** [query s ~r ~x ~c1 ~y ~c2] looks a fact up by key. *)
  val query :
    t -> r:int -> x:int -> c1:int -> y:int -> c2:int -> fact_view option

  (** [marginal s id] is the fact's estimate from the last refresh. *)
  val marginal : t -> int -> float option

  (** [snapshot s] is the frozen snapshot of the session's current
      epoch: every input of the read path — [TΠ] and its key index,
      [TΦ], the fact↔factor adjacency, cached marginals — copied out of
      the live state as flat arrays, sharing nothing mutable with later
      epochs.  Cached until
      the next epoch mutation, so repeated calls between epochs return
      the {e same} snapshot (what [Engine.Writer.publish] hands to
      concurrent readers). *)
  val snapshot : t -> Snapshot.t

  (** [query_local ?budget s ~r ~x ~c1 ~y ~c2] is {!val:query_local}
      over the session's maintained provenance index (graph-walk mode —
      no rule-table probes), clamping each boundary fact to its cached
      marginal from the last {!refresh_marginals} when available, else
      its extraction prior.

      @deprecated This is now a thin wrapper over [Snapshot.query_local]
      on the session's live read view.  Concurrent readers must use
      {!snapshot} (frozen, domain-shareable) instead — this entry point
      reads live session state. *)
  val query_local :
    ?budget:Grounding.Local.budget ->
    t -> r:int -> x:int -> c1:int -> y:int -> c2:int -> local_answer option
end

(** {1 The Snapshot/Writer split}

    The serving layer's MVCC-by-epoch pair: an immutable, domain-shareable
    read arm ({!Snapshot.t}) and the single mutable write arm
    ({!Writer.t}) that commits session epochs and atomically publishes
    each one.  See DESIGN.md §13. *)

(** The [Snapshot] compilation unit re-exported, plus the constructors
    that tie it to engines and sessions. *)
module Snapshot : sig
  type engine := t

  include module type of struct
    include Snapshot
  end

  (** [of_engine t] is the engine's cached live read view (graph-less
      backward walk over the KB indexes; single-threaded — it reads live
      storage).  Rebuilt on demand after any mutation. *)
  val of_engine : engine -> t

  (** [of_session s] is [Session.snapshot s]: the frozen,
      domain-shareable snapshot of the session's current epoch. *)
  val of_session : Session.t -> t
end

(** The write arm: wraps a {!Session.t} (which must no longer be mutated
    by anyone else) and publishes frozen snapshots for concurrent
    readers.  All mutations stay on the owning domain; readers only ever
    touch {!Writer.published}'s result. *)
module Writer : sig
  type t

  (** [of_session s] takes ownership of [s] and publishes its current
      epoch. *)
  val of_session : Session.t -> t

  (** [session w] is the underlying session — mutate it only from the
      writer's own domain, then {!publish}. *)
  val session : t -> Session.t

  (** [published w] is the most recently published snapshot (one atomic
      load; safe from any domain). *)
  val published : t -> Snapshot.t

  (** [publish w] freezes the session's current epoch and atomically
      replaces the published snapshot.  Superseded snapshots are
      reclaimed by the GC once the last reader drops them. *)
  val publish : t -> Snapshot.t

  (** [epoch_lag w] is how many epochs the published snapshot trails the
      session's current epoch (0 right after {!publish}). *)
  val epoch_lag : t -> int
end

(** [session t] expands the knowledge base (epoch 0, the batch pipeline
    of {!expand}) and opens a live session over the result. *)
val session : t -> Session.t

(** [incorporate t facts] adds newly extracted facts
    [(r, x, c1, y, c2, w)] to an already-expanded knowledge base and
    derives {e only their consequences} (delta-driven grounding seeded
    with the insertions) instead of re-running full expansion.  An
    extraction whose fact already exists as an inferred fact promotes it
    (the fact takes the extraction weight, as in
    [Incremental.Dred.ingest]).  Returns [(inserted, inferred)].  Re-run
    {!expand} when a fresh factor graph is needed. *)
val incorporate :
  t -> (int * int * int * int * int * float) list -> int * int
