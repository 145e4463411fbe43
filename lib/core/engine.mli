(** The ProbKB engine — the pipeline of Figure 1.

    The pipeline is exposed as explicit, composable stages sharing one
    trace context: {!expand} (rule cleaning + batch grounding + quality
    control), {!infer} (marginal inference over the ground factor graph),
    and {!store_marginals} (write each inferred fact's probability back
    into the knowledge base, "thereby avoiding query-time computation" —
    paper, Section 2.2).  {!run} is their composition.

    Point queries and key lookups have one read path, {!Snapshot}: a
    frozen copy of an expansion ([Snapshot.freeze] over [Kb.Gamma.pi]
    and the lineage of {!expansion.graph}), of a session's epoch
    ({!Session.snapshot}) or of the epoch a {!Writer} published.

    Every stage records into the engine's {!trace} (a no-op unless
    [config.obs] enables it); {!expansion} and {!result} carry the
    aggregated {!Obs.Summary.t} snapshot taken when the stage finished. *)

type t

(** [create ?config kb] wraps a knowledge base.  The KB is mutated by
    expansion (inferred facts are added to [TΠ]).  The engine owns a
    trace context created from [config.obs]. *)
val create : ?config:Config.t -> Kb.Gamma.t -> t

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

(** [infer_full t e] is {!infer} plus the solve report: the
    component/width/solver breakdown of the hybrid dispatcher, with the
    residual sampler's sweeps and online diagnostics ([None] only when
    inference is disabled).  The config's [target_r_hat] / [min_ess]
    criteria and [checkpoint_sweeps] cadence apply to the residual
    sampler. *)
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
      (** solve report ([None] when inference is disabled) *)
  obs : Obs.Summary.t;  (** trace snapshot over the whole pipeline *)
}

(** [run t] is [expand] + [infer] + [store_marginals]. *)
val run : t -> result

(** {1 Live sessions}

    A session keeps a knowledge base expanded {e continuously}: epochs of
    {!Session.ingest} / {!Session.retract} update [TΠ] and [TΦ]
    incrementally (semi-naive closure for inserts, DRed delete–rederive
    for deletes — see [Incremental.Dred]) instead of re-running the batch
    pipeline, and {!Session.refresh_marginals} re-solves the maintained
    factor graph. *)

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
      {!refresh_marginals} ([None] until the first refresh). *)
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

  (** [refresh_marginals s] re-solves the session's current graph: it is
      [Inference.Marginal.infer_compiled_full] on the compiled {!graph}
      with [config.inference] ([None] when inference is disabled), given
      the last refresh's results and the fact ids whose [TΦ] rows the
      epochs since appended or killed ([Incremental.Dred.take_dirty]).
      Only the components those ids touch, and the sampled ones, are
      solved again; the rest copy the last refresh's exact answers.  An
      epoch that leaves more dirty ids than the last refresh solved
      variables drops those results, and the next refresh solves
      everything.  The marginals equal a batch solve of the same graph,
      bit for bit, at any pool size.  After every refresh the gauges
      [inference.exact_fraction], [inference.max_width_solved] and
      [inference.sampled_vars] describe the whole graph. *)
  val refresh_marginals : t -> epoch_stats option

  (** [marginal s id] is the fact's estimate from the last refresh. *)
  val marginal : t -> int -> float option

  (** [snapshot s] is the frozen snapshot of the session's current
      epoch: every input of the read path — [TΠ] and its key index,
      [TΦ], cached marginals — copied out of the live state as flat
      arrays, sharing nothing mutable with later epochs, and the
      fact↔factor index ([Incremental.Dred.lineage]) shared, since it
      never changes once built.  Cached until the next epoch mutation,
      so repeated calls between epochs return the {e same} snapshot
      (what [Engine.Writer.publish] hands to concurrent readers).  A
      session's lookups and point queries answer from it: the first one
      after a write pays for the freeze, and for the index when the
      write appended to [TΦ] or compacted it. *)
  val snapshot : t -> Snapshot.t
end

(** {1 The Snapshot/Writer split}

    The serving layer's MVCC-by-epoch pair: an immutable, domain-shareable
    read arm ({!Snapshot.t}) and the single mutable write arm
    ({!Writer.t}) that commits session epochs and atomically publishes
    each one.  See DESIGN.md §13. *)

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
