(** Ground factor graphs — the relational table [TΦ].

    Grounding produces factors identified by their variables and weight
    (paper, Section 4.2.3, Definition 7): rows [(I1, I2, I3, w)] where the
    [I]s are fact identifiers, [I2]/[I3] may be null, and each row encodes
    the weighted ground Horn clause [I1 ← I2, I3].  Rows with null [I2] and
    [I3] are singleton factors carrying the prior weight of an extracted
    fact.

    The graph is also the lineage store: a clause factor records which
    facts derived which (see {!Lineage}). *)

type t

(** Null variable marker used in the [I2]/[I3] columns. *)
val null : int

(** [create ()] is an empty factor graph. *)
val create : unit -> t

(** [table g] is the backing [TΦ] table with integer columns
    [I1, I2, I3] and a weight column. *)
val table : g:t -> Relational.Table.t

(** [add_singleton g ~i ~w] records the singleton factor of fact [i] with
    prior weight [w]. *)
val add_singleton : t -> i:int -> w:float -> unit

(** [add_clause g ~i1 ?i2 ?i3 ~w ()] records the ground clause factor
    [i1 ← i2, i3]. *)
val add_clause : t -> i1:int -> ?i2:int -> ?i3:int -> w:float -> unit -> unit

(** [append_rows g tbl] bag-unions ([∪B], Algorithm 1 lines 9-10) a table
    of factor rows with columns [I1, I2, I3] and weights into [g]. *)
val append_rows : t -> Relational.Table.t -> unit

(** [size g] is the number of factors. *)
val size : t -> int

(** [factor g f] is [(i1, i2, i3, w)] for factor index [f]
    ([i2]/[i3] = {!null} when absent). *)
val factor : t -> int -> int * int * int * float

(** [iter f g] applies [f idx (i1, i2, i3, w)] to all factors. *)
val iter : (int -> int * int * int * float -> unit) -> t -> unit

(** [retain g ~keep] splices the graph in place, dropping every factor [f]
    with [keep.(f) = false].  Surviving factors keep their relative order
    (so {!compile}'s variable numbering over the untouched part of the
    graph is stable — marginals stay comparable across a retraction).
    Returns [(removed, remap)] where [remap.(old) = new] for survivors and
    [-1] for removed factors — apply it to any external index holding
    factor positions (see [Incremental.Provenance]). *)
val retain : t -> keep:bool array -> int * int array

(** {1 Compiled form}

    Inference works over a compiled view with dense variable indexes and a
    CSR variable→factor adjacency. *)

type compiled = {
  var_ids : int array;  (** dense var index → fact identifier *)
  var_of_id : (int, int) Hashtbl.t;  (** fact identifier → dense index *)
  head : int array;  (** per factor: dense var of [I1] *)
  body1 : int array;  (** dense var of [I2], or -1 *)
  body2 : int array;  (** dense var of [I3], or -1 *)
  fweight : float array;
  singleton : bool array;  (** true for prior factors *)
  adj_off : int array;  (** CSR offsets, length [nvars + 1] *)
  adj : int array;  (** factor indexes, grouped by variable *)
  slot_roles : int array;
      (** the role-coded copy of [adj], three ints per slot [k]: at [3k]
          the factor's role for the slot's variable, at [3k+1] and [3k+2]
          its other variables (see the role constants below) *)
  slot_weights : float array;
      (** per slot: the factor's weight, negated for {!role_body} *)
}

(** {2 Roles}

    What flipping variable [v] from false to true does to the log-weight
    of one factor [f] it appears in; [x] and [y] are the slot's other
    variables.  The Gibbs conditional sums these terms over [v]'s slots
    in slot order (Inference.Gibbs.log_odds). *)

(** [v] is the head and also a body atom of [f]: the factor is satisfied
    either way, so no term. *)
val role_inert : int

(** [f] is [v]'s singleton prior: always [+w]. *)
val role_prior : int

(** [v] is the head: [+w] iff [x] and [y] are true.  [x] and [y] are the
    body atoms; a clause with one body atom stores it in both. *)
val role_head : int

(** [v] is a body atom: [-w] iff [x] is true or [-1] (no other body
    atom), and the head [y] is false. *)
val role_body : int

(** [compile g] builds the dense view, the role-coded adjacency
    included.  Factors with non-finite weights are excluded (hard rules
    are handled by quality control, not inference). *)
val compile : t -> compiled

(** [nvars c] is the number of distinct variables. *)
val nvars : compiled -> int

(** [satisfied c f assignment] is [true] iff factor [f] is satisfied under
    the boolean [assignment] (indexed by dense variable): a singleton is
    satisfied when its variable is true; a clause is satisfied unless its
    body is true and its head false. *)
val satisfied : compiled -> int -> bool array -> bool
