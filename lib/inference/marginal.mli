(** Front-end for marginal inference over a ground factor graph.

    Completes the ProbKB pipeline of Figure 1: grounding produces [TΦ]; an
    inference engine turns it into per-fact marginal probabilities that are
    stored back into the knowledge base, avoiding query-time computation
    (paper, Section 2.2).

    There is one route: {!Hybrid}, which dispatches {e per connected
    component} — enumeration, junction-tree variable elimination, or
    chromatic Gibbs on the 2-core of the high-treewidth rest, whose
    dangling trees are eliminated exactly (see {!Hybrid}, {!Peel} and
    DESIGN.md §15). *)

(** The solve report of one run. *)
type solve_info = Hybrid_run of Hybrid.report

(** [infer_full ?obs ?checkpoint ?early_stop g options] compiles [g] and
    returns fact identifier → P(fact = true) plus the {!solve_info}.
    [obs] (default {!Obs.null}) receives the solver's telemetry;
    [checkpoint]/[early_stop] affect the residual sampler (see
    {!Chromatic.marginals_info}). *)
val infer_full :
  ?obs:Obs.t ->
  ?checkpoint:int ->
  ?early_stop:Diagnostics.Online.criteria ->
  Factor_graph.Fgraph.t ->
  Hybrid.options ->
  (int, float) Hashtbl.t * solve_info

(** {!infer_full} on an already compiled graph: marginals per dense
    variable.  [memo] carries a live session's last solve and the fact
    ids its writes touched since (see {!Hybrid.solve}). *)
val infer_compiled_full :
  ?obs:Obs.t ->
  ?checkpoint:int ->
  ?early_stop:Diagnostics.Online.criteria ->
  ?memo:Hybrid.memo * (int, unit) Hashtbl.t ->
  Factor_graph.Fgraph.compiled ->
  Hybrid.options ->
  float array * solve_info
