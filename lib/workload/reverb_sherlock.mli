(** Synthetic knowledge bases shaped like the ReVerb–Sherlock KB.

    The paper's primary dataset (Table 2: 82,768 relations, 30,912 Horn
    rules, 277,216 entities, 407,247 facts) is built from ReVerb Wikipedia
    extractions, Sherlock rules and Leibniz functional constraints — none
    of which are redistributable here.  This generator synthesizes a KB
    with the same shape at a configurable scale: Zipf-skewed relation and
    entity usage, typed relation signatures, rules drawn over the six Horn
    patterns whose bodies are signature-compatible with the facts (so they
    actually fire), and a Leibniz-like share of functional relations that
    the generated facts respect.

    Everything is deterministic in the seed, and the fact stream is drawn
    from sub-streams independent of the rule stream so that S1/S2 sweeps
    vary one axis without perturbing the other. *)

type config = {
  scale : float;  (** 1.0 reproduces the Table 2 sizes *)
  seed : int;
  n_entities : int option;  (** overrides (defaults derive from [scale]) *)
  n_classes : int option;
  n_relations : int option;
  n_facts : int option;
  n_rules : int option;
  relation_alpha : float;  (** Zipf exponent of relation usage in facts *)
  rule_body_alpha : float;
      (** Zipf exponent used when drawing rule-body relations; kept far
          below [relation_alpha] so that most rules bind tail relations —
          Sherlock's rules are selective (the paper notes only 13K of 407K
          facts initially have applicable rules) *)
  entity_alpha : float;  (** Zipf exponent of entity usage within a class *)
  class_alpha : float;  (** Zipf exponent of class sizes *)
  functional_fraction : float;
      (** share of relations carrying a functional constraint (Leibniz
          found 10,374 of 82,768 ≈ 0.125) *)
  head_reuse_prob : float;
      (** probability a rule head is drawn among signature-compatible
          relations (vs. any relation) — controls inference chaining *)
  pattern_mix : float array;  (** sampling weights of the six patterns *)
}

val default_config : config

(** [sizes config] is the resolved [(entities, classes, relations, facts,
    rules)] quintuple after applying scale and overrides. *)
val sizes : config -> int * int * int * int * int

type t

(** [generate config] builds the knowledge base (facts, rules, functional
    constraints registered in Ω). *)
val generate : config -> t

(** [kb g] is the generated knowledge base. *)
val kb : t -> Kb.Gamma.t

(** [config g] is the generating configuration. *)
val config : t -> config

(** [domain_of g rel] is the domain class of a generated relation's
    signature. *)
val domain_of : t -> int -> int

(** [entities_of_class g cls] is the entity population of a class. *)
val entities_of_class : t -> int -> int array

(** [random_fact g rng] draws one fact key from the same distribution the
    generator used — the "add random edges" primitive of the S2 sweep and
    of the extraction-noise injector. *)
val random_fact : t -> Rng.t -> int * int * int * int * int

(** [random_rules ?body_alpha g rng n] draws [n] additional distinct rules
    from the rule distribution — the S1 sweep primitive.  [body_alpha]
    overrides the Zipf exponent of the body-relation draw (0 = uniform,
    i.e. rules binding mostly tail relations). *)
val random_rules : ?body_alpha:float -> t -> Rng.t -> int -> Mln.Clause.t list

(** [perturbed_rules g rng seeds n] clones rules from [seeds] with a
    substituted head (the paper's "substituting random heads for existing
    rules") — plausible-looking rules whose conclusions are unsound, used
    both by the S1 sweep and as the wrong-rule injector. *)
val perturbed_rules : t -> Rng.t -> Mln.Clause.t list -> int -> Mln.Clause.t list
