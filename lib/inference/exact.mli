(** Exact marginal inference by exhaustive enumeration.

    Computes the marginal distribution P(Xᵢ = 1) of equation (4) of the
    paper exactly.  The measure factorizes over connected components of
    the ground factor graph, so enumeration runs per component — 2^c
    worlds for a component of c variables — with each component
    {e canonicalized} first by {!Decompose} (factors ordered by their
    [(I1, I2, I3, w)] row, variables by first mention in that order).
    Canonicalization makes the floating-point accumulation order a
    function of the factor multiset alone, so a locally grounded
    neighbourhood ([Grounding.Local]) reproduces the full-closure
    marginals bit for bit.  Feasible for small components; it exists to
    validate the samplers, to solve local query neighbourhoods exactly,
    and as the enumeration arm of the {!Hybrid} dispatcher. *)

(** Default maximum number of variables accepted per connected component
    (25).  Call sites thread the [Config.exact_max_vars] knob through the
    [?max_vars] arguments below; this constant is its default. *)
val max_vars : int

(** [marginals ?max_vars c] is the exact marginal P(X = 1) per dense
    variable.
    @raise Invalid_argument if some connected component has more than
    [max_vars] (default {!max_vars}) variables. *)
val marginals : ?max_vars:int -> Factor_graph.Fgraph.compiled -> float array

(** [enumerate ?max_vars comp] is the exact marginal per {e local}
    variable of one canonical component (indexed like
    [comp.Decompose.vars]).  Worlds are bitmasks over the local
    variables and each factor a head mask and a body mask, so a world's
    log-weight is one pass over the factors in canonical order.  Up to
    16 variables the 2{^k} log-weights are kept (at most 512 KiB); past
    that each world is evaluated twice instead, so a dense component at
    the 25-variable cap allocates no 2{^25}-entry buffer.
    @raise Invalid_argument if the component exceeds [max_vars]. *)
val enumerate : ?max_vars:int -> Decompose.component -> float array

(** [solve_component ?max_vars comp marg] scatters {!enumerate}'s result
    into the global per-dense-variable array [marg]. *)
val solve_component :
  ?max_vars:int -> Decompose.component -> float array -> unit
