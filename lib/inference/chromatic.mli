(** Chromatic Gibbs sampling.

    The parallel Gibbs sampler of Gonzalez et al. (AISTATS 2011) — the
    algorithm behind the GraphLab engine the paper hands its factor graphs
    to — colours the Markov blanket graph and updates each colour class
    jointly: variables of one colour share no factor, so their
    conditionals are mutually independent and a class could be swept in
    any order, or in parallel.  Each colour class is split into fixed
    256-variable chunks, and every chunk draws from its own RNG stream
    derived from [(seed, sweep, chunk id)], with a chunking that depends
    only on the class sizes: the Markov chain — and hence the marginals —
    is a function of the graph and the seed alone.

    The chunks are swept on the calling domain, one after another.  On
    the graphs this sampler runs on — the residual's 2-core, a few
    thousand variables — a pool region per class per sweep cost more CPU
    than it saved wall time (DESIGN.md §6b), and the streams need no pool
    to stay bit-identical.

    The sweep runs over a class-major renumbering of the graph
    ({!Factor_graph.Fgraph.permute}), so each colour class is one
    contiguous range of variables, slots and accumulators.  Chunks keep
    their variables, order and RNG streams, the starting state is drawn
    in the original numbering, and every result is mapped back: the
    layout changes no bit of the chain.  Each run builds the mask slots
    of its conditional kernel ({!Gibbs.kernel}) once, over that
    renumbering, and keeps the chain's state as the kernel's 0/1 [int]
    array. *)

(** [color c] greedily colours the variable-interaction graph; two
    variables are adjacent when some factor mentions both.  Returns the
    colour per dense variable. *)
val color : Factor_graph.Fgraph.compiled -> int array

(** [verify_coloring c colors] is [true] iff no factor of [c] mentions two
    distinct variables of the same colour — i.e. the parallel schedule is
    race-free.  {!marginals_info} asserts this when [PROBKB_DEBUG] is set;
    the test suite calls it directly. *)
val verify_coloring : Factor_graph.Fgraph.compiled -> int array -> bool

(** Outcome of one sampling run beyond the marginals themselves. *)
type run_info = {
  sweeps_run : int;  (** estimation sweeps actually executed *)
  stopped_at_sweep : int option;
      (** [Some s] when the early-stop criteria fired at sweep [s] *)
  diag : Diagnostics.Online.report option;
      (** final online diagnostics, when they were tracked *)
}

(** Default checkpoint cadence (sweeps between diagnostic checkpoints /
    snapshot records). *)
val default_checkpoint : int

(** [marginals_info ?options ?obs ?checkpoint ?early_stop c] estimates
    marginals with the chromatic schedule, sweeping every colour class on
    the calling domain.  Options are shared with {!Gibbs.options}.  When
    [obs] (default {!Obs.null}) is enabled, sweeps emit an
    aggregated [burn_in/sampling > sweep > class k] span tree plus
    [gibbs.*] counters and a samples-per-second gauge.  Beyond that:

    - every [checkpoint] sweeps (default {!default_checkpoint}) a
      snapshot is emitted through [obs]'s sink (see {!Obs.snapshot}) with
      the current phase, sweep number, and — when diagnostics are on —
      the running max-R̂/min-ESS;
    - [~early_stop:criteria] tracks {!Diagnostics.Online} state on the
      run and ends sampling at the first checkpoint whose diagnostics
      satisfy [criteria], normalizing the marginals by the sweeps
      actually run.  Criteria that never hold give the diagnostics of a
      full-length run.

    The starting state is drawn from the seed in ascending variable
    order.  The chain, the diagnostic values in the returned {!run_info}
    and in snapshot [data] are functions of the graph, the options and
    [early_stop] alone: the same bits in every process, whatever its
    [PROBKB_DOMAINS]. *)
val marginals_info :
  ?options:Gibbs.options ->
  ?obs:Obs.t ->
  ?checkpoint:int ->
  ?early_stop:Diagnostics.Online.criteria ->
  Factor_graph.Fgraph.compiled ->
  float array * run_info

(** [marginals_joints ?options ?obs ?checkpoint ?early_stop ~pairs c]
    is {!marginals_info} plus, for each pair [(a, b)] of [pairs], the
    share of estimation sweeps after which both [a] and [b] were true:
    an estimate of P(a = 1, b = 1) from the chain's states, counted
    once per sweep.  The chain, and so the marginals and run info, are
    those of {!marginals_info}. *)
val marginals_joints :
  ?options:Gibbs.options ->
  ?obs:Obs.t ->
  ?checkpoint:int ->
  ?early_stop:Diagnostics.Online.criteria ->
  pairs:(int * int) array ->
  Factor_graph.Fgraph.compiled ->
  float array * float array * run_info
