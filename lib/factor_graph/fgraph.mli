(** Ground factor graphs — the relational table [TΦ].

    Grounding produces factors identified by their variables and weight
    (paper, Section 4.2.3, Definition 7): rows [(I1, I2, I3, w)] where the
    [I]s are fact identifiers, [I2]/[I3] may be null, and each row encodes
    the weighted ground Horn clause [I1 ← I2, I3].  Rows with null [I2] and
    [I3] are singleton factors carrying the prior weight of an extracted
    fact.

    The graph is also the lineage store: a clause factor records which
    facts derived which (see {!Lineage}).

    A factor is identified by its position, its row in {!table}.  A
    live session retires factors in place: {!kill} sets a per-position
    dead flag and leaves the row where it is, so no position moves.
    {!size}, {!iter}, {!compile} and {!copy} honour the mask — they see
    exactly the live factors, in position order, which is what a
    compacted table holds — while {!bound}, {!factor} and {!table} are
    physical and see dead rows too.  {!compact} drops the dead rows and
    moves positions. *)

type t

(** Null variable marker used in the [I2]/[I3] columns. *)
val null : int

(** [create ()] is an empty factor graph. *)
val create : unit -> t

(** [table g] is the backing [TΦ] table with integer columns
    [I1, I2, I3] and a weight column, dead rows included: skip positions
    that are not {!live}. *)
val table : g:t -> Relational.Table.t

(** [copy g] is an independent copy of [g]'s table and dead-row mask
    (one {!Relational.Table.copy} and one [Bytes.copy]). *)
val copy : t -> t

(** [add_singleton g ~i ~w] records the singleton factor of fact [i] with
    prior weight [w]. *)
val add_singleton : t -> i:int -> w:float -> unit

(** [add_clause g ~i1 ?i2 ?i3 ~w ()] records the ground clause factor
    [i1 ← i2, i3]. *)
val add_clause : t -> i1:int -> ?i2:int -> ?i3:int -> w:float -> unit -> unit

(** [size g] is the number of live factors. *)
val size : t -> int

(** [bound g] is the number of positions, dead ones included: factor
    positions run from 0 to [bound g - 1]. *)
val bound : t -> int

(** [dead_rows g] is the number of retired factors not yet compacted
    away ([bound g - size g]). *)
val dead_rows : t -> int

(** [live g f] is [true] iff position [f] has not been retired.  O(1);
    one comparison while nothing is dead. *)
val live : t -> int -> bool

(** [kill g f] retires the factor at position [f]; [false] if it was
    dead already.  O(1) amortised.
    @raise Invalid_argument if [f] is not a position of [g]. *)
val kill : t -> int -> bool

(** [factor g f] is [(i1, i2, i3, w)] for the factor at position [f],
    live or dead ([i2]/[i3] = {!null} when absent). *)
val factor : t -> int -> int * int * int * float

(** [iter f g] applies [f idx (i1, i2, i3, w)] to every live factor, in
    position order. *)
val iter : (int -> int * int * int * float -> unit) -> t -> unit

(** [compact g] drops the dead rows in place.  Live factors keep their
    relative order, so {!compile} numbers variables exactly as before,
    but their positions move: an index of positions built before
    ({!Lineage}) must be built again. *)
val compact : t -> unit

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
  adj : int array;
      (** factor indexes, grouped by variable: variable [v]'s slots,
          [adj_off.(v)] to [adj_off.(v + 1) - 1], list each factor that
          mentions [v] once, in factor order *)
}

(** [compile g] builds the dense view of the live factors.  Factors
    with non-finite weights are excluded: NaN is the null weight (no
    weight at all), and ±inf is a hard rule, which quality control
    enforces, not inference.  A fact mentioned only by excluded factors
    is not a variable. *)
val compile : t -> compiled

(** [nvars c] is the number of distinct variables. *)
val nvars : compiled -> int

(** [permute c perm] is [c] with its variables renumbered: new variable
    [i] is old variable [perm.(i)].  Every variable-indexed field and
    every variable reference is rebuilt; factors keep their indexes, and
    each variable keeps its slots in their original order, so a
    conditional summed over them (Inference.Gibbs.log_odds) adds the
    same terms in the same order and returns the same float.
    @raise Invalid_argument if [perm] is not a permutation of
    [0 .. nvars c - 1]. *)
val permute : compiled -> int array -> compiled

(** [satisfied c f assignment] is [true] iff factor [f] is satisfied under
    the boolean [assignment] (indexed by dense variable): a singleton is
    satisfied when its variable is true; a clause is satisfied unless its
    body is true and its head false. *)
val satisfied : compiled -> int -> bool array -> bool
