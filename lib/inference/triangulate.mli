(** Elimination orders and induced-width estimates per component.

    The dispatcher needs to know, per connected component, whether
    variable elimination is feasible: it is when the component's {e
    induced width} along a good elimination order stays under a bound
    (tables of 2^(width+1) entries).  This module computes a Maximum
    Cardinality Search order (Tarjan & Yannakakis — exact on chordal
    graphs, a standard heuristic otherwise) over the component's
    variable-interaction graph and the width its fill-in induces.

    Everything here is deterministic: the order is a pure function of
    the canonical component ({!Decompose}), so repeated analyses — and
    analyses of the same component reached through a locally grounded
    subgraph — agree.

    {!core} answers "over the bound?" without an order: a k-core peel
    over the compiled graph, which the dispatcher runs before it builds
    any canonical form. *)

type t = {
  order : int array;
      (** elimination order over local variables: [order.(0)] is
          eliminated first (the reverse of the MCS visit order) *)
  width : int;
      (** induced width along [order]: the largest uneliminated
          neighbourhood met while eliminating with fill-in (0 for a
          single variable, 1 for trees and chains, 2 for simple
          cycles).  When a [cap] was given and exceeded, reported as
          [cap + 1] (a lower bound) *)
}

(** [analyze ?cap comp] is the MCS elimination order and its induced
    width.  [cap] bounds the fill-in simulation: computation stops as
    soon as the width provably exceeds it (reported as [cap + 1]),
    keeping the cost on huge high-treewidth cores at O(m + n·cap²). *)
val analyze : ?cap:int -> Decompose.component -> t

(** [width_of ?cap comp] is [(analyze ?cap comp).width]. *)
val width_of : ?cap:int -> Decompose.component -> int

(** {1 A width bound without an order}

    [core c ~k ~keep] peels the variable-interaction graph of [c],
    restricted to the variables [v] with [keep.(v)], down to its
    [k]-core: the largest subgraph in which every variable has at least
    [k] distinct neighbours.  The result holds [true] for the variables
    of the core ([false] wherever [keep] does).  O(slots) over [c]'s CSR
    adjacency, with no canonical form and no fill-in.

    A non-empty [k]-core is a certificate: the first of its variables
    that any elimination order eliminates still has its [k] core
    neighbours, so every order's induced width — the treewidth included
    — is at least [k].  On a component that meets the
    [(cap + 1)]-core, {!analyze}[ ~cap] therefore reports [cap + 1].
    @raise Invalid_argument if [keep] is not one flag per variable. *)
val core :
  Factor_graph.Fgraph.compiled -> k:int -> keep:bool array -> bool array
