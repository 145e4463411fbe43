(** ProbKB — knowledge expansion over probabilistic knowledge bases.

    The public face of the library.  A typical session:

    {[
      let kb = Kb.Gamma.create () in
      ignore (Kb.Loader.load_facts_file kb "facts.tsv");
      ignore (Kb.Loader.load_rules_file kb "rules.mln");
      ignore (Kb.Loader.load_constraints_file kb "constraints.tsv");
      let engine = Probkb.Engine.create kb in
      let result = Probkb.Engine.run engine in
      ...
    ]}

    See {!Engine} for the pipeline, {!Config} for the engine / quality /
    inference knobs, and the underlying libraries ([Kb], [Mln],
    [Grounding], [Quality], [Inference], [Mpp], [Tuffy], [Workload]) for
    the components. *)

module Config = Config
module Engine = Engine

module Snapshot = Snapshot
(** The one read path: frozen epoch snapshots shareable across domains
    ({!Snapshot.freeze} is their only constructor). *)

module Report = Report
module Obs = Obs
