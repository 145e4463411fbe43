(** Semantic (functional) constraint checking — the paper's Query 3.

    A Type-I functional relation [R(Ci, Cj)] with degree δ tolerates at
    most δ facts [R(x, ·)] per entity [x ∈ Ci] (δ = 1 for strictly
    functional relations; larger for pseudo-functional ones).  Entities
    exceeding the degree *violate* the constraint; following the paper's
    greedy policy, every fact in which a violating entity appears in the
    constrained position is deleted (Section 5.4, Query 3).

    Violations are detected with one grouped aggregate per constraint
    type — applying all constraints in batches, exactly like the rules. *)

type violation = {
  entity : int;  (** the violating entity *)
  cls : int;  (** the class it was used under *)
  rel : int;  (** the functional relation it violates *)
  ftype : Kb.Funcon.ftype;
  count : int;  (** facts observed in the constrained position *)
  degree : int;  (** allowed degree δ *)
}

(** [violations pi omega] finds all constraint violations in the current
    fact table, without modifying it. *)
val violations : Kb.Storage.t -> Kb.Funcon.t list -> violation list

(** [apply ?ban pi omega] is [applyConstraints(TΠ)]: deletes every fact
    whose constrained-position entity violates some constraint.  With
    [ban = true] (default) the removed keys can never be re-derived by a
    later grounding iteration; pass [ban:false] for the one-shot cleaning
    of the paper's Section 6.1.1 protocol, where inference afterwards runs
    without quality control.  Returns the number of facts deleted. *)
val apply : ?ban:bool -> Kb.Storage.t -> Kb.Funcon.t list -> int

(** [violation_group pi v] lists the facts of the violating group as
    [(key, inferred)] pairs, where [key = (r, x, c1, y, c2)] and
    [inferred] marks null-weight facts.  Capture this *before* applying
    the constraints — the group is deleted by {!apply}. *)
val violation_group :
  Kb.Storage.t -> violation -> ((int * int * int * int * int) * bool) list

(** [hook omega] packages {!apply} as the grounding loop's
    [apply_constraints] option: each pass returns
    [(violations found, facts deleted)]. *)
val hook : Kb.Funcon.t list -> Kb.Storage.t -> int * int

(** [pp_violation ~entity_name ~rel_name ppf v] prints a violation. *)
val pp_violation :
  entity_name:(int -> string) ->
  rel_name:(int -> string) ->
  Format.formatter ->
  violation ->
  unit
