(** Fixed-capacity row chunks for batch-at-a-time execution.

    A batch is the unit of data flow in the pipelined executor
    ({!Pipeline}): a row-major slab of integer cells over the same flat
    layout as {!Table}, plus an optional float weight lane (mirroring the
    nullable [w] attribute) and a row-id lane carrying each row's
    provenance in the pipeline's source table (used by residual join
    predicates).

    Operator kernels reuse their batches — a projection or a probe fills
    a private output batch and clears it after each push — so
    steady-state execution allocates nothing per row.  The concrete
    record is exposed for the kernels' inner loops; everything outside
    [lib/relational] should treat values as abstract. *)

type t = {
  width : int;
  weighted : bool;
  capacity : int;
  mutable n : int;  (** number of live rows, [0 <= n <= capacity] *)
  cells : int array;  (** [capacity * width] row-major cells *)
  wts : float array;  (** [capacity] weights when [weighted], else [[||]] *)
  rids : int array;  (** [capacity] source row ids *)
}

(** Rows per batch unless overridden: large enough to amortize per-batch
    dispatch, small enough to stay cache-resident (1024 rows × 7 columns
    × 8 bytes ≈ 56 KiB for the fact table's widest schema). *)
val default_capacity : int

(** [create ~weighted width] is an empty batch of [width] integer
    columns.  @raise Invalid_argument if [capacity < 1]. *)
val create : ?capacity:int -> weighted:bool -> int -> t

val capacity : t -> int

(** [length b] is the number of live rows. *)
val length : t -> int

val is_empty : t -> bool
val is_full : t -> bool

(** [clear b] drops all rows, keeping storage. *)
val clear : t -> unit

(** [get b r c] is the value at row [r], column [c]. *)
val get : t -> int -> int -> int

val set : t -> int -> int -> int -> unit

(** [weight b r] is the weight of row [r]; {!Table.null_weight} when the
    batch is unweighted. *)
val weight : t -> int -> float

val set_weight : t -> int -> float -> unit

(** [rid b r] is the source-table row id carried by row [r]. *)
val rid : t -> int -> int

(** [push_from_table b tbl r] appends row [r] of [tbl] — cells, weight
    (null when [tbl] is unweighted), and row id [r].  The caller must
    check {!is_full} first. *)
val push_from_table : t -> Table.t -> int -> unit

(** [alloc_row b ~rid] opens a fresh row with the given row id (weight
    initialized to null) and returns its index; the caller fills the
    cells via {!set}.  The caller must check {!is_full} first. *)
val alloc_row : t -> rid:int -> int

(** [append_row_to_table tbl b r] appends batch row [r] to [tbl],
    carrying the weight when both sides are weighted. *)
val append_row_to_table : Table.t -> t -> int -> unit
