(** Connected-component decomposition of a compiled factor graph.

    The Markov-network measure over [TΦ] factorizes over connected
    components of the factor graph, so every downstream solver — exact
    enumeration ({!Exact}), variable elimination ({!Jtree}), and the
    hybrid dispatcher ({!Hybrid}) — works per component.  This module
    owns the decomposition and the {e canonical} per-component form that
    previously lived inside {!Exact}:

    - components are returned in ascending order of their union-find
      root (the smallest dense variable in the component);
    - within a component, factors are sorted by their fact-id row
      [(I1, I2, I3, w)];
    - variables are renumbered by first mention (head before body) in
      that canonical factor order.

    The canonical form makes floating-point accumulation visit the same
    values in the same order regardless of how the graph was assembled,
    which is what lets a locally grounded neighbourhood
    ([Grounding.Local]) reproduce full-closure marginals bit for bit. *)

(** One connected component in canonical form.  [factors] are graph
    factor indexes in canonical order; [vars.(l)] is the global dense
    variable of local variable [l]; [head]/[body1]/[body2] hold local
    variable indexes ([-1] for null bodies), aligned with [weight] and
    [singleton]. *)
type component = {
  root : int;  (** smallest global dense variable of the component *)
  factors : int array;
  vars : int array;
  head : int array;
  body1 : int array;
  body2 : int array;
  weight : float array;
  singleton : bool array;
}

(** Variable count of the component. *)
val nvars : component -> int

(** Factor count of the component. *)
val nfactors : component -> int

(** The components of a compiled graph as union-find leaves them, before
    the canonical sort: component [i] has root [roots.(i)] (ascending),
    factor indexes [members.(i)] in graph order, and [comp_of_var.(v)] is
    the component of dense variable [v]. *)
type partition = {
  roots : int array;
  members : int array array;
  comp_of_var : int array;
}

(** [partition c] is union-find over [c]'s factors, O(factors + vars),
    with no per-component sort. *)
val partition : Factor_graph.Fgraph.compiled -> partition

(** [sizes p] is the variable count of each component of [p], the
    [nvars] of its canonical form, without canonicalizing. *)
val sizes : partition -> int array

(** [canonical c p i] is component [i] of [p] in canonical form. *)
val canonical : Factor_graph.Fgraph.compiled -> partition -> int -> component

(** [components c] is every connected component of [c] in canonical
    form, ascending by root. *)
val components : Factor_graph.Fgraph.compiled -> component array

(** [max_size c] is the variable count of the largest component ([0] on
    the empty graph) — computed without canonicalizing, for cheap
    dispatch checks. *)
val max_size : Factor_graph.Fgraph.compiled -> int
