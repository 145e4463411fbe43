(** Treewidth-aware hybrid inference: per-component solver dispatch.

    Ground graphs from sparse rule sets decompose into many small or
    low-treewidth components plus (sometimes) a few dense loopy cores.
    This dispatcher routes every connected component to the cheapest
    exact solver that fits, and samples only what is left:

    - [vars ≤ min exact_max_vars enum_cutoff] — the canonical enumerator
      ({!Exact}), {e bit-identical} to [Exact.marginals] by construction;
    - induced width ≤ [max_width] ({!Triangulate}) — junction-tree
      variable elimination ({!Jtree}), exact and deterministic;
    - [vars ≤ exact_max_vars] — enumeration again: small but too dense
      to eliminate under the width bound;
    - otherwise — sampled: the subgraph of the remaining components is
      peeled down to its 2-core by exact elimination ({!Peel}), one
      chromatic Gibbs run ({!Chromatic}) samples the core, and a
      downward pass answers the peeled variables from the core's
      marginals.  A component that peels away entirely is answered
      exactly, with no chain.

    A component too big to enumerate that meets the graph's
    [(max_width + 1)]-core ({!Triangulate.core}, O(slots)) is over the
    bound along every elimination order, so it is sampled with width
    [max_width + 1] and no canonical form, MCS order or fill-in.  Every
    other component is canonicalized and triangulated, so every route,
    order and bit is what the fill-in alone would give.

    Determinism: exact components are solved in parallel across the
    domain pool but each writes a disjoint slice of the result, and the
    residual is peeled in a fixed order, in the input graph's factor
    order and numbering, so the core's variable numbering, colouring and
    RNG streams are pure functions of the input graph — marginals are bit-identical at any
    [PROBKB_DOMAINS] value (see DESIGN.md §15). *)

type options = {
  exact_max_vars : int;
      (** enumeration cap per component (default {!Exact.max_vars}) *)
  max_width : int;
      (** induced-width bound for variable elimination (default
          {!Jtree.default_max_width}).  Widths at or past
          {!Jtree.max_clique_vars} never route to elimination regardless
          of this bound — the planner degrades to enumeration or
          sampling instead of letting {!Jtree.solve} raise on its
          clique-size guard *)
  gibbs : Gibbs.options;  (** sampler options for the residual cores *)
}

val default_options : options

(** Size up to which enumeration is the preferred exact solver.
    Enumeration costs O(2{^k} · (k + factors)) against the junction
    tree's O(k · 2{^width+2}), so past this point low-width components
    route to elimination even when they fit under [exact_max_vars]. *)
val enum_cutoff : int

(** How one component was solved. *)
type solver =
  | Enumerated  (** canonical enumeration, bit-identical to {!Exact} *)
  | Eliminated  (** junction-tree variable elimination *)
  | Sampled  (** part of the residual chromatic Gibbs run *)

type component_info = {
  vars : int;
  factors : int;
  width : int;
      (** induced width estimate; [max_width + 1] means "over the
          bound": the fill-in simulation bailed early, or the component
          met the graph's [(max_width + 1)]-core ({!Triangulate.core}),
          which proves the same *)
  solver : solver;
  seconds : float;  (** exact-solve wall clock; 0 for sampled *)
}

(** The per-run report surfaced through [Marginal.solve_info] into run
    reports and EXPLAIN-ANALYZE output. *)
type report = {
  components : component_info array;  (** canonical component order *)
  total_vars : int;
  exact_vars : int;  (** variables settled by an exact solver *)
  sampled_vars : int;
  peeled_vars : int;
      (** sampled variables the peel eliminated exactly; the chain ran
          on the other [sampled_vars - peeled_vars] *)
  enumerated_components : int;
  eliminated_components : int;
  sampled_components : int;
  max_width_solved : int;  (** largest width solved by elimination *)
  gibbs : Chromatic.run_info option;
      (** the residual sampler's run info; [None] when no chain ran:
          everything was solved exactly, or the peel emptied the
          residual *)
  exact_seconds : float;
  gibbs_seconds : float;
}

(** Fraction of variables settled exactly (1 on the empty graph). *)
val exact_fraction : report -> float

(** {1 Reuse across solves}

    A live session solves a graph that changed by a few rows since its
    last solve.  A {!memo} holds that last solve's per-component results,
    keyed by fact id; given it and the {e dirty set} — the fact ids of
    every factor row appended or killed since — {!solve} re-solves only
    the components that hold a dirty variable or have no cached answer,
    and copies the others.  The marginals are bit-identical to a solve
    without a memo (DESIGN.md §10). *)

(** A solve's results, kept for the next solve made with the same memo.
    Mutable: every solve made with it replaces its contents. *)
type memo

(** An empty memo: the next solve made with it solves everything. *)
val memo : unit -> memo

(** [memo_vars m] is the number of variables [m] holds answers for (0
    when empty). *)
val memo_vars : memo -> int

(** [solve ?options ?obs ?pool ?checkpoint ?early_stop ?memo c] is the
    marginal P(X = 1) per dense variable plus the dispatch report.
    [pool] (default {!Pool.get_default}) solves the exact components;
    the chain over the residual's core runs on the calling domain
    ({!Chromatic.marginals_joints}), and [checkpoint]/[early_stop]
    thread through to it.

    With [memo = (m, dirty)], [dirty] holds the fact ids of every factor
    row appended to or killed from the graph since the solve that filled
    [m].  A component none of whose variables is in [dirty] copies its
    cached answer when that answer is exact; a sampled one keeps its
    cached plan, and the residual sampler runs whenever any component is
    sampled.  The cached results stand only for the same options and
    sampler arguments; an empty memo, or one filled with other
    arguments, reuses nothing.  [m] then holds this solve's results.

    The report describes the whole graph, reused components included
    (with the report of the solve that produced their answer).
    [exact_seconds] and [gibbs_seconds] time this call.  Telemetry:
    [hybrid.*] counters and phase spans always; the counters and the
    per-component spans (when the graph has at most 256 components)
    cover the components this call solved, sampled ones included;
    [hybrid.components_reused] and [hybrid.vars_reused] count the
    components and variables whose answer was copied,
    [hybrid.vars_peeled] the sampled variables the peel eliminated, and
    [hybrid.sampler_runs] the calls that ran a chain.  Timers:
    [hybrid.exact_seconds] and [hybrid.gibbs_seconds] are the two
    phases' wall clock; [hybrid.enumerate_seconds] and
    [hybrid.jtree_seconds] sum the [seconds] of the components this call
    enumerated and eliminated. *)
val solve :
  ?options:options ->
  ?obs:Obs.t ->
  ?pool:Pool.t ->
  ?checkpoint:int ->
  ?early_stop:Diagnostics.Online.criteria ->
  ?memo:memo * (int, unit) Hashtbl.t ->
  Factor_graph.Fgraph.compiled ->
  float array * report
