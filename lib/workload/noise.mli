(** Noise injection with a ground-truth oracle.

    The real ReVerb–Sherlock KB is noisy: extraction errors (E1), unsound
    learned rules (E2), ambiguous entity names (E3), and the errors those
    propagate through inference (E4) — the taxonomy of Section 5.  This
    module takes a *clean* generated KB and produces the noisy "extracted"
    KB the experiments run on, while retaining exact ground truth:

    - the {b truth} is the closure of the clean base facts under the clean
      rules (computed with the grounding engine itself);
    - {b extraction errors} are random fact draws outside the truth;
    - {b ambiguous entities} merge two same-class referents under one new
      surface form; every occurrence in the noisy KB uses the merged
      entity, and the oracle accepts a fact iff *some* referent assignment
      makes it true;
    - {b synonyms} duplicate facts under an alias of the object entity
      (true facts that still trip functional constraints);
    - {b general types} add a second, coarser-granularity object for
      functional facts (also true, also constraint-tripping);
    - {b wrong rules} are fresh random rules; rule scores are drawn from
      overlapping distributions for clean and wrong rules, reproducing the
      paper's observation that learned scores only partially reflect rule
      quality.

    Where the paper estimates precision from 25-fact human-judged samples,
    the oracle here evaluates every inferred fact exactly. *)

type config = {
  seed : int;
  extraction_error_rate : float;
      (** garbage facts added, as a fraction of clean facts *)
  ambiguity_rate : float;  (** fraction of fact-bearing entities merged *)
  synonym_rate : float;
  general_type_rate : float;
  wrong_rule_fraction : float;  (** share of the final rule set that is wrong *)
  score_good : float * float;  (** (μ, σ) of clean-rule scores *)
  score_bad : float * float;  (** (μ, σ) of wrong-rule scores *)
  truth_max_iterations : int;  (** closure budget for the oracle *)
}

val default_config : config

type t

(** [make base config] builds the noisy KB and its oracle. *)
val make : Reverb_sherlock.t -> config -> t

(** [noisy n] is the noisy knowledge base (facts, clean+wrong rules, Ω). *)
val noisy : t -> Kb.Gamma.t

(** [scored_rules n] is every rule of the noisy KB with its learned-score
    surrogate, for {!Quality.Rule_cleaning}. *)
val scored_rules : t -> Quality.Rule_cleaning.scored list

(** [is_wrong_rule n c] tells whether [c] was injected as a wrong rule. *)
val is_wrong_rule : t -> Mln.Clause.t -> bool

(** [clean_rules n] is the sound rule subset (the generator's original
    rules). *)
val clean_rules : t -> Mln.Clause.t list

(** [truth_size n] is the size of the truth closure. *)
val truth_size : t -> int

(** [n_ambiguous n] is the number of merged (ambiguous) entities. *)
val n_ambiguous : t -> int

(** [is_correct n ~r ~x ~c1 ~y ~c2] is the oracle: true iff some referent
    assignment of the key is in the truth closure. *)
val is_correct : t -> r:int -> x:int -> c1:int -> y:int -> c2:int -> bool

(** [classify_violation n (v, group)] attributes a functional-constraint
    violation to its error source, for the Figure 7(b) analysis.  [group]
    is the violating fact group captured with
    [Quality.Semantic.violation_group] *before* the constraints deleted
    it. *)
val classify_violation :
  t ->
  Quality.Semantic.violation * ((int * int * int * int * int) * bool) list ->
  Quality.Error_analysis.source
