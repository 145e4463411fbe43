(** Inference over locally grounded query neighbourhoods.

    A [Grounding.Local] subgraph is small by construction, so marginal
    inference picks the strongest feasible method per query by handing
    the compiled neighbourhood to the same per-component dispatcher the
    batch path uses ({!Hybrid.solve}): components under the enumeration
    cap are enumerated {e exactly} (zero variance, and — thanks to the
    canonical component order of {!Decompose} — bit-identical to the
    full-closure exact marginals whenever the neighbourhood is the whole
    component); larger components whose induced width is under the bound
    are solved exactly by variable elimination ({!Jtree}); only
    high-treewidth cores fall back to chromatic Gibbs restricted to
    their subgraph.

    Boundary conditions: facts the budget pruned appear in interior
    factors but have unexplored adjacency.  {!clamp_boundary} pins each to
    a given probability (its cached marginal or extraction prior) by
    adding a pseudo-prior singleton factor with the log-odds weight
    [log (p / (1 - p))] — the single-variable factor whose marginal, in
    isolation, is exactly [p].  With an unbounded budget the boundary is
    empty and no clamp factor is added, so identity with the full closure
    is unaffected. *)

(** [Enumerated] means {e every} variable was settled by an exact solver
    (enumeration or variable elimination); [Sampled] means at least one
    component fell back to Gibbs. *)
type method_used = Enumerated | Sampled

(** [clamp_boundary g ~boundary ~prob] adds one pseudo-prior singleton per
    boundary fact, weighted to pin it at [prob id]: the log-odds
    [log (p / (1 - p))] of [p = prob id] clipped to [[ε, 1 - ε]]
    (ε = 1e-6), which keeps clamp weights finite.  Call before compiling
    [g]. *)
val clamp_boundary :
  Factor_graph.Fgraph.t -> boundary:int array -> prob:(int -> float) -> unit

(** [solve ?obs ?options c] is the marginal P(X = 1) per dense variable
    and the method used.  [options] (default {!Hybrid.default_options})
    are the dispatcher's settings, the record [Config] holds. *)
val solve :
  ?obs:Obs.t ->
  ?options:Hybrid.options ->
  Factor_graph.Fgraph.compiled ->
  float array * method_used
