(** Exact elimination of a factor graph's dangling trees.

    Most of the variables the hybrid dispatcher hands to its sampler
    hang in trees off a small 2-core.  Summing such a variable out is
    exact: it is the marginalization step of variable elimination, a
    projection of its one factor onto that factor's other variables.
    {!run} repeats it while some variable is in at most one live
    multi-variable factor, and leaves the rest — the 2-core — as a
    graph of its own whose distribution is the model's marginal on the
    core variables.  Sampling only the core is collapsed Gibbs sampling;
    {!expand} turns the core's marginals back into every variable's
    marginal by a downward pass (DESIGN.md §15).

    {b Elimination.}  Factors are the clauses over two or three distinct
    variables plus the pair tables that earlier eliminations create;
    priors and folded unary terms are one log-odds [u] per variable, and
    a clause over one variable is constant and dropped.  Variables are
    taken from a FIFO queue seeded with every variable of at most one
    live multi-variable factor, in ascending order.  For [v] with factor
    F over [v ∪ S] and each assignment [s] of [S], with
    [lₓ(s) = F(x, s) + x·u_v], it records [cond_v(s) = σ(l₁ − l₀)] and
    folds [φ(s) = logsumexp(l₀, l₁)]: into the log-odds of [S]'s one
    variable, or into the live pair table on [S]'s two (created on first
    use, absorbing every clause over exactly those two variables, so
    parallel pair factors are one), or nowhere when [S] is empty.

    {b The core graph} holds, in this order: the surviving clauses in
    factor order; each live pair table [t] on [a < b] as the clause
    [b ← a] with weight [γ = t₁₁ − t₁₀ − t₀₁ + t₀₀]; one prior per core
    variable, in ascending order, carrying its log-odds plus [α + γ]
    ([α = t₁₀ − t₀₀]) for each table in which it is [a] and
    [β = t₀₁ − t₀₀] for each in which it is [b].  Its numbering is
    therefore a pure function of the input graph. *)

type t

(** [run ?keep c] peels the subgraph of [c] made of the factors [f] with
    [keep.(f)] (default: every factor) down to its 2-core.  The
    subgraph's variables are those its factors mention, in [c]'s
    numbering; a variable's factors outside the subgraph are ignored. *)
val run : ?keep:bool array -> Factor_graph.Fgraph.compiled -> t

(** [core t] is the core's graph.  Its fact identifiers are [c]'s, so
    [(core t).var_of_id] maps a variable's identifier to its core
    variable; it has no variables when everything was peeled. *)
val core : t -> Factor_graph.Fgraph.compiled

(** [peeled t] is the number of variables eliminated. *)
val peeled : t -> int

(** [pairs t] lists the pairs of core variables (core numbering) whose
    joint P(a = 1, b = 1) the downward pass reads: the scopes of
    eliminations onto two variables that both stayed in the core. *)
val pairs : t -> (int * int) array

(** [expand t ~core ~joints marg] writes every subgraph variable's
    marginal into [marg] (indexed by [c]'s variables; the others are
    left alone), given the core's marginals [core] (core numbering) and
    [joints.(k)], an estimate of P(a = 1, b = 1) for
    [(a, b) = (pairs t).(k)].  In reverse elimination order,
    [P(v) = Σₛ cond_v(s)·P(S = s)]; a joint over two variables is
    clamped into its Fréchet bounds [[max(0, pa + pb − 1), min(pa, pb)]],
    so estimated joints that disagree with estimated marginals still give
    probabilities.  A pair holding a peeled variable needs no estimate:
    the one eliminated first had the other as its whole scope, so their
    joint is its [cond] times the other's marginal.  With exact [core]
    and [joints] the result is exact. *)
val expand :
  t -> core:float array -> joints:float array -> float array -> unit
