(** Lineage queries over [TΦ].

    Because each clause factor records the facts that derived its head, the
    factor graph contains the entire derivation lineage of every inferred
    fact (paper, Section 4.2.3: "it contains the entire lineage and can be
    queried").  These queries power the error-propagation analysis of
    Section 5 — e.g. finding every fact transitively supported by an
    ambiguous entity. *)

type t

(** [build g] indexes the factor graph for lineage queries. *)
val build : Fgraph.t -> t

(** [derivations l id] is the list of clause factors (as
    [(i2, i3, w)] with [i3 = Fgraph.null] for one-atom bodies) whose head
    is fact [id]. *)
val derivations : t -> int -> (int * int * float) list

(** [ancestors l id] is the set of facts reachable from [id] through
    derivation bodies (transitively), excluding [id] itself. *)
val ancestors : t -> int -> int list

(** [descendants l id] is the set of facts transitively derived (in part)
    from fact [id], excluding [id] itself — the propagation cone of an
    error (paper, Figure 5(a)). *)
val descendants : t -> int -> int list

(** [depth l id] is the minimum derivation depth of [id]: 0 for facts with
    a singleton factor (extracted facts), otherwise 1 + min over
    derivations of the max body depth.  [None] if [id] has no derivation
    and no singleton (unknown fact). *)
val depth : t -> int -> int option
