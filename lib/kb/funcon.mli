(** Functional constraints — the semantic constraint set Ω.

    A relation [R(Ci, Cj)] is functional when each [x] relates to at most
    one [y] (Type I) or each [y] to at most one [x] (Type II); paper,
    Definitions 9-11.  Pseudo-functional relations relax "one" to a degree
    [δ] (1-δ mappings).  All constraints share one structural shape, so
    ProbKB stores them in a single table [TΩ] with rows [(R, α, δ)]. *)

(** Functionality type (paper: α ∈ {1, 2}). *)
type ftype =
  | Type_I  (** [x] functionally determines [y] *)
  | Type_II  (** [y] functionally determines [x] *)

type t = {
  rel : int;  (** the constrained relation *)
  ftype : ftype;
  degree : int;  (** δ ≥ 1; 1 for strictly functional relations *)
}

(** [make ~rel ~ftype ~degree] builds a constraint.
    @raise Invalid_argument if [degree < 1]. *)
val make : rel:int -> ftype:ftype -> degree:int -> t

(** [to_table cs] materializes the constraint list as the relational table
    [TΩ] with integer columns [R, alpha, deg] (α encoded as 1 or 2). *)
val to_table : t list -> Relational.Table.t

(** [of_table tbl] is the inverse of {!to_table}. *)
val of_table : Relational.Table.t -> t list
