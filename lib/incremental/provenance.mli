(** The provenance index: fact → factor positions, kept incrementally.

    [Factor_graph.Lineage] answers the same questions from a from-scratch
    batch build over factor {e tuples}; change propagation needs the
    factor {e positions} too (so the graph can be spliced in place), and
    needs the index to survive epochs of appends and retractions without
    rebuilding.  This index maps each fact id to

    - the clause factors deriving it ({!iter_derivations} — factors
      with the fact as head),
    - the clause factors it supports ({!iter_supports} — factors with
      the fact in the body), and
    - its singleton (prior) factor, when the fact is an extracted base
      fact ({!singleton_of}).

    Presence of a singleton is the authoritative base-vs-inferred marker:
    the weight column of [TΠ] is unreliable for this once
    [Engine.store_marginals] has written probabilities into it.

    Only live factors are indexed.  Keep the index current with {!sync}
    after appending factors, {!retire} after [Fgraph.kill] retired some,
    and {!remap} after [Fgraph.compact] moved them. *)

type t

(** [of_graph g] indexes the live factors of [g]. *)
val of_graph : Factor_graph.Fgraph.t -> t

(** [sync t g] indexes the live factors appended to [g] since the last
    sync (all of them on a fresh index).  [g] must only have grown by
    appends since then, apart from factors passed to {!retire}. *)
val sync : t -> Factor_graph.Fgraph.t -> unit

(** [synced_factors t] is the number of factor positions synced so far:
    [Fgraph.bound] of the graph at the last {!sync} or {!remap}. *)
val synced_factors : t -> int

(** [iter_derivations t id f] applies [f] to every clause-factor position
    with head [id], most recently appended first, allocation-free for hot
    walk loops. *)
val iter_derivations : t -> int -> (int -> unit) -> unit

(** [iter_supports t id f] applies [f] to every clause-factor position with
    [id] in the body; allocation-free like {!iter_derivations}. *)
val iter_supports : t -> int -> (int -> unit) -> unit

(** [has_supports t id] is [true] iff [id] appears in some clause body,
    without walking its supports. *)
val has_supports : t -> int -> bool

(** [singleton_of t id] is the position of [id]'s singleton factor. *)
val singleton_of : t -> int -> int option

(** [is_base t id] is [true] iff the fact has a singleton factor — i.e. it
    carries extraction (prior) support. *)
val is_base : t -> int -> bool

(** [retire t g fs] drops the factor positions [fs] of [g] — factors just
    retired with [Fgraph.kill] — from the lists of the facts they
    mention, in place; facts left with no entries disappear from the
    index.  Lists keep their order.  Costs the length of those facts'
    lists, never a pass over the index. *)
val retire : t -> Factor_graph.Fgraph.t -> int list -> unit

(** [remap t mapping] rewrites every stored factor position through
    [mapping] (as returned by [Fgraph.compact]): positions mapped to [-1]
    are dropped, facts left with no entries disappear from the index.
    @raise Invalid_argument when the index is not synced to exactly
    [Array.length mapping] factors. *)
val remap : t -> int array -> unit
