(** First-order Horn clauses over typed binary relations.

    ProbKB confines the deductive rules [H] of an MLN to Horn clauses of at
    most two body atoms whose head is always [p(x, y)] with [x ∈ C1] and
    [y ∈ C2]; two-atom bodies share a third variable [z ∈ C3] (paper,
    Section 4.1 and the six rule shapes of Section 4.2.2).  Relations and
    classes are dictionary-encoded integers. *)

(** A clause variable.  [X] and [Y] are the head variables; [Z] is the
    join variable of two-atom bodies. *)
type var = X | Y | Z

(** A body atom [rel(a, b)]. *)
type atom = { rel : int; a : var; b : var }

(** A weighted, typed Horn clause
    [∀x ∈ C1, y ∈ C2 (, z ∈ C3): head_rel(x, y) ← body].  The weight may be
    [infinity], in which case the clause is a hard rule (a semantic
    constraint in the paper's terminology). *)
type t = {
  head_rel : int;
  body : atom list;  (** one or two atoms *)
  c1 : int;  (** class of [x] *)
  c2 : int;  (** class of [y] *)
  c3 : int option;  (** class of [z]; [None] iff the body has one atom *)
  weight : float;
}

(** [make ~head_rel ~body ~c1 ~c2 ?c3 ~weight ()] builds a clause.
    @raise Invalid_argument if the clause is not {!valid}. *)
val make :
  head_rel:int ->
  body:atom list ->
  c1:int ->
  c2:int ->
  ?c3:int ->
  weight:float ->
  unit ->
  t

(** [valid c] checks the structural invariants: the body has one atom over
    variables {X, Y} (and [c3 = None]), or two atoms — the first over
    {X, Z}, the second over {Y, Z} — with [c3] present; no atom repeats a
    variable. *)
val valid : t -> bool

(** [is_hard c] is [true] iff the clause weight is infinite. *)
val is_hard : t -> bool

(** [body_length c] is the number of body atoms (1 or 2). *)
val body_length : t -> int

(** [equal a b] is structural equality. *)
val equal : t -> t -> bool

(** [var_name v] is ["x"], ["y"] or ["z"]. *)
val var_name : var -> string
