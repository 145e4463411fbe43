(** The Gibbs sampler's options and conditional kernel.

    ProbKB delegates marginal inference over the ground factor graph to a
    Gibbs sampler (the paper uses the parallel sampler of GraphLab); the
    one sampler here is {!Chromatic}'s.  Its estimates are
    Rao-Blackwellized: instead of averaging 0/1 samples it averages the
    exact conditional P(Xᵥ = 1 | rest) used at each update, which has
    strictly lower variance. *)

type options = {
  burn_in : int;  (** sweeps discarded before estimation *)
  samples : int;  (** estimation sweeps *)
  seed : int;  (** RNG seed (runs are deterministic given the seed) *)
}

val default_options : options

(** {2 The conditional kernel}

    The kernel sums, for each slot of a variable's adjacency
    ({!Factor_graph.Fgraph.compiled}[.adj]), the signed weight times a
    0/1 mask read from an [int] state, with no branch on the state.  A
    state of a graph of [n] variables has [n + 2] cells: one per
    variable, then two constant cells, [n] always 1 and [n + 1] always
    0, which stand in for an absent body atom, a prior and an inert
    slot.  {!log_odds} and {!conditional} are [@inline]: an optimizing
    (non-[-opaque]) build inlines them into each loop. *)

(** A graph's slots in mask form: slot [s] of variable [v], [off.(v) <=
    s < off.(v + 1)] as in the graph's adjacency, holds state indexes
    [a] and [b], an inversion bit [inv] and the signed weight [w], and
    adds [w *. float (st.(a) land (st.(b) lxor inv))] to [v]'s log-odds.
    Abstract: a kernel is valid by construction, so {!log_odds} reads
    its slots without bounds checks. *)
type kernel

(** [kernel c] is [c]'s slots in mask form, aligned with [c.adj].  Only
    a chain reads them, so a sampler builds them once per run, over the
    graph it sweeps.
    @raise Invalid_argument if [c]'s adjacency or variable references
    fall outside its arrays. *)
val kernel : Factor_graph.Fgraph.compiled -> kernel

(** [state n bit] is a state of [n] variables: [st.(v)] is 1 iff
    [bit v], for [v < n], then the constant cells 1 and 0. *)
val state : int -> (int -> bool) -> int array

(** [log_odds k st v] is
    log P(Xᵥ = 1 | X₋ᵥ) − log P(Xᵥ = 0 | X₋ᵥ) under the state [st]: the
    sum of [v]'s slot terms in slot order, from [+0.].  Compiled weights
    are finite, so a term whose mask is 0 is [±0.], which leaves the sum
    as it is: the result is the float that adding only the terms of
    the factors a flip of [v] changes gives.  It reads [st] and never
    writes it, so it is safe while other domains update variables that
    share no factor with [v].
    @raise Invalid_argument if [st] is not a state of [k]'s graph
    ([nvars + 2] cells). *)
val log_odds : kernel -> int array -> int -> float

(** A float the kernel writes its result into.  Its only field is a
    float, so OCaml stores it flat: a caller in another module gets the
    probability without a boxed float result, whether or not the call is
    inlined. *)
type cell = { mutable value : float }

(** [conditional k st v out] stores P(Xᵥ = 1 | X₋ᵥ) =
    1 / (1 + exp (−{!log_odds})) in [out.value]. *)
val conditional : kernel -> int array -> int -> cell -> unit
