(** Probabilistic knowledge bases Γ = (E, C, R, Π, H, Ω).

    The paper's Definition 1: entities [E], classes [C], typed binary
    relations [R], weighted facts Π, and a weighted-clause set
    [L = (H, Ω)] split into deductive rules [H] and semantic constraints
    [Ω].  Symbols are dictionary-encoded; facts live in the single
    relational table [TΠ] ({!Storage}); class membership and relation
    signatures live in [TC] and [TR] (Definitions 2-3). *)

type t

(** [create ()] is an empty knowledge base. *)
val create : unit -> t

(** [create_like kb] is an empty knowledge base that *shares* [kb]'s
    dictionaries (they are append-only, so sharing is safe) but has fresh
    fact/class/relation tables, rules and constraints.  Two KBs built this
    way use the same identifier space, which lets fact keys be compared
    across them — the workload generator's ground-truth oracle relies on
    this. *)
val create_like : t -> t

(** {1 Components} *)

val entities : t -> Relational.Dict.t
(** D_E *)

val classes : t -> Relational.Dict.t
(** D_C *)

val relations : t -> Relational.Dict.t
(** D_R *)

val tc : t -> Relational.Table.t
(** TC: rows (C, e) *)

val tr : t -> Relational.Table.t
(** TR: rows (R, C1, C2) *)

val pi : t -> Storage.t
(** TΠ *)

val rules : t -> Mln.Clause.t list
(** H *)

val omega : t -> Funcon.t list
(** Ω *)

(** {1 Symbols} *)

(** [entity kb name] interns an entity name. *)
val entity : t -> string -> int

(** [cls kb name] interns a class name. *)
val cls : t -> string -> int

(** [relation kb name] interns a relation name (without signature). *)
val relation : t -> string -> int

(** [declare_member kb ~cls ~entity] records [entity ∈ cls] in [TC]
    (idempotent). *)
val declare_member : t -> cls:int -> entity:int -> unit

(** [member kb ~cls ~entity] is [true] iff the membership was declared. *)
val member : t -> cls:int -> entity:int -> bool

(** [subclass kb ~sub ~super] is [true] iff every declared member of [sub]
    is a declared member of [super] — the subset-based class hierarchy of
    the paper's Remark 1. *)
val subclass : t -> sub:int -> super:int -> bool

(** {1 Facts} *)

(** [add_fact kb ~r ~x ~c1 ~y ~c2 ~w] inserts a weighted fact, declaring
    class memberships and the relation signature as a side effect.  Returns
    the fact identifier (existing one on duplicate keys). *)
val add_fact : t -> r:int -> x:int -> c1:int -> y:int -> c2:int -> w:float -> int

(** [add_fact_by_name kb ~r ~x ~c1 ~y ~c2 ~w] is {!add_fact} after
    interning the five names. *)
val add_fact_by_name :
  t -> r:string -> x:string -> c1:string -> y:string -> c2:string -> w:float -> int

(** {1 Rules and constraints} *)

(** [add_rule kb c] appends a deductive rule to [H].
    @raise Invalid_argument if [c] is hard (those belong in Ω). *)
val add_rule : t -> Mln.Clause.t -> unit

(** [set_rules kb rules] replaces [H] wholesale — used by rule cleaning to
    ground with the top-θ subset. *)
val set_rules : t -> Mln.Clause.t list -> unit

(** [add_funcon kb fc] appends a functional constraint to Ω. *)
val add_funcon : t -> Funcon.t -> unit

(** [partitions kb] is [H] materialized as the six [Mi] tables. *)
val partitions : t -> Mln.Partition.t

(** {1 Statistics} *)

type stats = {
  n_entities : int;
  n_classes : int;
  n_relations : int;
  n_rules : int;
  n_facts : int;
  n_constraints : int;
}

(** [stats kb] is the Table 2 row for this knowledge base. *)
val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit

(** [pp_fact kb ppf id] prints fact [id] with symbol names, e.g.
    ["born_in(Ruth Gruber, New York City) 0.96"]. *)
val pp_fact : t -> Format.formatter -> int -> unit
