(** Gibbs sampling for marginal inference.

    ProbKB delegates marginal inference over the ground factor graph to a
    Gibbs sampler (the paper uses the parallel sampler of GraphLab; see
    also {!Chromatic}).  This module is the sequential sweep sampler with
    Rao-Blackwellized marginal estimates: instead of averaging 0/1 samples
    it averages the exact conditional P(Xᵥ = 1 | rest) used at each update,
    which has strictly lower variance. *)

type options = {
  burn_in : int;  (** sweeps discarded before estimation *)
  samples : int;  (** estimation sweeps *)
  seed : int;  (** RNG seed (runs are deterministic given the seed) *)
}

val default_options : options

(** {2 The conditional kernel}

    Every sampler in this library ({!marginals}, the chromatic sweeps,
    {!Diagnostics.r_hat}'s chains) and the MAP flip delta read the
    conditional through these two functions.  They sum the role-coded
    adjacency of {!Factor_graph.Fgraph.compiled}, and they are [@inline]:
    an optimizing (non-[-opaque]) build inlines them into each loop. *)

(** [log_odds c assignment v] is
    log P(Xᵥ = 1 | X₋ᵥ) − log P(Xᵥ = 0 | X₋ᵥ) under the current
    assignment: the sum of [v]'s role terms in slot order.  It reads
    [assignment] and never writes it, so it is safe while other domains
    update variables that share no factor with [v]. *)
val log_odds : Factor_graph.Fgraph.compiled -> bool array -> int -> float

(** A float the kernel writes its result into.  Its only field is a
    float, so OCaml stores it flat: a caller in another module gets the
    probability without a boxed float result, whether or not the call is
    inlined. *)
type cell = { mutable value : float }

(** [conditional c assignment v out] stores P(Xᵥ = 1 | X₋ᵥ) =
    1 / (1 + exp (−{!log_odds})) in [out.value]. *)
val conditional :
  Factor_graph.Fgraph.compiled -> bool array -> int -> cell -> unit

(** Estimation sweeps actually executed — measured by the loop, not
    echoed from [options], so reports stay honest if a run is ever cut
    short (mirrors {!Chromatic.run_info}). *)
type run_info = { sweeps_run : int }

(** [marginals ?options c] estimates the marginal P(X = 1) per dense
    variable. *)
val marginals : ?options:options -> Factor_graph.Fgraph.compiled -> float array

(** {!marginals} plus the measured {!run_info}. *)
val marginals_info :
  ?options:options -> Factor_graph.Fgraph.compiled -> float array * run_info
