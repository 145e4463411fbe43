(** Exact marginals by junction-tree variable elimination.

    Generalizes the ≤{!Exact.max_vars}-variable enumerator to any
    component whose {e induced width} is small: bucket elimination along
    a {!Triangulate} order defines a clique tree, and one upward plus
    one downward message pass yields every single-variable marginal —
    cost O(n · 2^(width+1)) instead of 2^nvars, so thousand-variable
    trees and chains solve exactly in microseconds.

    Deterministic and RNG-free: results are a pure function of the
    canonical component and the elimination order.  Unlike {!Exact}'s
    enumerator the accumulation order differs from enumeration's, so
    marginals agree with {!Exact.marginals} to float tolerance, not bit
    for bit — which is why the {!Hybrid} dispatcher routes components
    under the enumeration cap through {!Exact} and reserves this module
    for larger low-width components.

    Potentials are max-normalized at every combine, keeping tables in
    (0, 1] with an exact 1.0 present — no overflow or all-zero
    underflow; the normalization constants cancel in the final
    per-variable ratio.  When an entry still falls below the smallest
    normal float (weights in the hundreds, long conflicting products),
    the component is solved again on log-weights, so every marginal is
    a probability for any finite weights; components that never lose
    precision keep the probability pass and its bits. *)

(** Default induced-width bound for dispatching to this module (12 —
    tables of at most 2^13 entries). *)
val default_max_width : int

(** Hard allocation guard on clique size; {!solve} raises
    [Invalid_argument] beyond it. *)
val max_clique_vars : int

(** [solve ?order comp] is the exact marginal P(X = 1) per {e local}
    variable of one canonical component (indexed like
    [comp.Decompose.vars]).  [order] is an elimination order from
    {!Triangulate.analyze} (recomputed when absent).
    @raise Invalid_argument when a clique exceeds {!max_clique_vars}. *)
val solve : ?order:int array -> Decompose.component -> float array

(** [marginals ?max_width c] solves every component by variable
    elimination — the whole-graph convenience used by tests and benches.
    @raise Invalid_argument when some component's induced width exceeds
    [max_width] (default {!default_max_width}). *)
val marginals :
  ?max_width:int -> Factor_graph.Fgraph.compiled -> float array
