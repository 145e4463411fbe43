(** MAP (maximum a posteriori) inference.

    The paper's Section 2.2 notes the two MLN inference tasks: marginal
    inference (what ProbKB stores in the KB) and MAP inference — finding
    the most likely possible world.  ProbKB "currently uses marginal
    inference"; this module supplies the other task as an extension, via
    simulated annealing over the same compiled factor graph with a greedy
    ICM (iterated conditional modes) refinement pass. *)

type options = {
  sweeps : int;  (** annealing sweeps *)
  initial_temperature : float;
  cooling : float;  (** per-sweep multiplicative decay in (0, 1) *)
  seed : int;
}

val default_options : options

(** [score c assignment] is [Σᵢ Wᵢ·satisfied(φᵢ)] — the unnormalized
    log-probability of the world. *)
val score : Factor_graph.Fgraph.compiled -> bool array -> float

(** [flip_delta c assignment v] is the change of {!score} when [v] is
    flipped: {!Gibbs.log_odds}, negated when [v] is true. *)
val flip_delta : Factor_graph.Fgraph.compiled -> bool array -> int -> float

(** [icm ?max_sweeps ~seed c] is greedy coordinate ascent from a random
    start: flip any variable that increases the score, until a local
    optimum.  Returns the assignment and its score. *)
val icm :
  ?max_sweeps:int -> seed:int -> Factor_graph.Fgraph.compiled ->
  bool array * float

(** [solve ?options c] runs simulated annealing followed by ICM
    refinement; returns the best assignment found and its score. *)
val solve :
  ?options:options -> Factor_graph.Fgraph.compiled -> bool array * float

(** [exact_map c] is the true MAP assignment by enumeration (small graphs
    only; same limit as {!Exact}). *)
val exact_map : Factor_graph.Fgraph.compiled -> bool array * float
