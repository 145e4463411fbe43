(** Query-driven local grounding (ProPPR-style).

    A point query grounds only the proof neighbourhood of the queried
    fact: a breadth-first walk over the fact↔factor index of a
    materialized factor graph ([TΦ]; {!Factor_graph.Lineage}, read
    through a {!adjacency} record), bounded by a PageRank-style budget,
    emitting a small self-contained {!Factor_graph.Fgraph} subgraph plus
    the interior/boundary variable mapping.

    The walk needs [TΦ] — the whole fact closure and the factor phase —
    but not inference over all of it: the answer costs a solve of the
    neighbourhood alone.  The subgraph's rows are sorted into canonical
    [(I1, I2, I3, w)] order, so with an unbounded budget it is exactly
    the query's connected component of the full ground graph, factor
    for factor, whatever order the adjacency lists factors in.

    Budget semantics: the fact at hop [h] carries influence [decay^h]
    (query = hop 0, influence 1).  A reached fact is {e expanded} (made
    interior — all factors touching it enter the subgraph) only while its
    influence is at least [min_influence], its hop at most [max_hops] and
    the interior count below [max_facts]; next-hop candidates are admitted
    lowest-id first, so truncation is deterministic.  Reached-but-pruned
    facts become {e boundary} variables: they appear in interior facts'
    factors but their own adjacency is left unexplored, so inference must
    clamp them (see [Inference.Neighborhood]); their forgone influence is
    summed into {!result.pruned_mass}. *)

type budget = {
  max_facts : int option;
      (** cap on interior (expanded) facts, query included; the query
          itself is always expanded *)
  max_hops : int option;  (** expand facts at most this many hops out *)
  decay : float;  (** per-hop influence decay, in (0, 1] *)
  min_influence : float;  (** stop expanding below this influence *)
}

(** Smart constructor (defaults: no caps, [decay = 1.0],
    [min_influence = 0.0]).
    @raise Invalid_argument on out-of-range parameters. *)
val budget :
  ?max_facts:int ->
  ?max_hops:int ->
  ?decay:float ->
  ?min_influence:float ->
  unit ->
  budget

(** Fact↔factor adjacency of a materialized graph.  The walk reads
    nothing else, so any index over [TΦ] can back it:
    {!adjacency_of_lineage} reads the one the library keeps. *)
type adjacency = {
  iter_derivations : int -> (int -> unit) -> unit;
      (** clause factors with the fact as head *)
  iter_supports : int -> (int -> unit) -> unit;
      (** clause factors with the fact in the body (each once) *)
  singleton_of : int -> int option;  (** the fact's prior factor, if any *)
  factor_of : int -> int * int * int * float;  (** factor row by position *)
}

(** [adjacency_of_lineage l] is the adjacency [l] lists, with rows read
    through [l]'s graph ({!Factor_graph.Lineage.graph}): the live
    factors, each fact's in descending position.  It only reads, so it
    may be shared across domains while nothing mutates that graph. *)
val adjacency_of_lineage : Factor_graph.Lineage.t -> adjacency

type result = {
  graph : Factor_graph.Fgraph.t;
      (** the neighbourhood subgraph, rows in canonical [(I1, I2, I3, w)]
          order; variables are fact ids (compile to get dense indexes) *)
  interior : int array;  (** expanded facts, ascending; contains [query] *)
  boundary : int array;
      (** reached but pruned facts, ascending — clamp these *)
  hops : int;  (** deepest hop actually expanded *)
  pruned_mass : float;  (** summed influence of the boundary facts *)
  truncated : bool;  (** [boundary <> [||]] *)
}

(** [run ?budget adj ~query] grounds the neighbourhood of fact [query],
    taking each factor once (by its position in the graph).  The default
    budget has no cap and no decay: the walk covers the query's
    connected component.  Unknown facts yield an empty graph with
    [interior = [| query |]]. *)
val run : ?budget:budget -> adjacency -> query:int -> result
