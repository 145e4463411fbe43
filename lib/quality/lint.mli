(** Rule-set linting.

    Machine-learned rule sets contain structural defects beyond bad
    scores: exact duplicates (which double factor weights), tautologies
    (a head identical to a body atom — always satisfiable, never
    informative), rules that can never fire because no fact carries the
    body's relation signature, and non-positive weights (legal in MLNs
    but usually a learner artifact in Horn-rule sets).  The paper's
    pipeline assumes these were cleaned upstream; this linter checks. *)

type issue =
  | Duplicate of Mln.Clause.t  (** appears more than once *)
  | Tautology of Mln.Clause.t  (** head equals a body atom *)
  | Never_fires of Mln.Clause.t
      (** some body relation never occurs with the required signature in
          the KB's [TR] *)
  | Non_positive_weight of Mln.Clause.t

(** [describe i] is a one-line human-readable description. *)
val describe :
  rel_name:(int -> string) -> cls_name:(int -> string) -> issue -> string

(** [check ?kb rules] lints the rule set; [Never_fires] requires [kb] (it
    consults the relation-signature catalog [TR]). *)
val check : ?kb:Kb.Gamma.t -> Mln.Clause.t list -> issue list
