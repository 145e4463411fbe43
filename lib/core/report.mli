(** Reports for pipeline results: each result type has a [pp_*] printer
    for humans and a [*_to_json] encoder for machines, so the CLI and the
    benchmarks render the same data without private formatting code. *)

module Json = Obs.Json

(** [pp_expansion ppf e] prints a one-paragraph expansion summary
    (iterations, new facts, constraint removals, factor counts, wall and
    simulated time). *)
val pp_expansion : Format.formatter -> Engine.expansion -> unit

val expansion_to_json : Engine.expansion -> Json.t

(** [pp_trajectory ppf traj] plots the expansion curve as text: one bar
    per closure iteration, scaled to the peak new-fact count, annotated
    with constraint violations and removals. *)
val pp_trajectory :
  Format.formatter -> Grounding.Ground.trajectory_point list -> unit

(** [pp_inference ppf i] prints the solve report: the per-solver
    breakdown (fraction settled exactly, junction-tree width), how many
    sampled variables the peel eliminated and how many the chain ran on
    and, when a chain ran, the residual sampler's sweeps / early-stop
    sweep / final R̂ and ESS. *)
val pp_inference : Format.formatter -> Inference.Marginal.solve_info -> unit

(** [pp_result ppf r] is {!pp_expansion} plus the inference stage. *)
val pp_result : Format.formatter -> Engine.result -> unit

val result_to_json : Engine.result -> Json.t

(** [pp_kb ppf kb] prints the Table 2-style statistics block followed by
    the per-relation fact counts (largest first, capped at 10). *)
val pp_kb : Format.formatter -> Kb.Gamma.t -> unit

(** Trace summaries, re-exported. *)
val pp_summary : Format.formatter -> Obs.Summary.t -> unit

val epoch_to_json : Engine.Session.epoch_stats -> Json.t
