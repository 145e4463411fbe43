(** In-memory relational tables.

    A table holds fixed-width rows of dictionary-encoded integers plus an
    optional [weight] column of floats.  The weight column models the
    nullable [w] attribute of the paper's fact table [TΠ] and rule tables
    [Mi]; a null weight is represented as [nan] (see {!null_weight}).

    Storage is row-major in a single flat [int array], which keeps appends,
    scans and hash probes allocation-free. *)

type t

(** Weight value representing SQL [NULL] ([nan]). *)
val null_weight : float

(** [is_null_weight w] is [true] iff [w] is the null weight. *)
val is_null_weight : float -> bool

(** [create ~name cols] is an empty table whose columns are named [cols].
    If [weighted] is [true] (default [false]) the table carries a float
    weight column in addition to the integer columns. *)
val create : ?weighted:bool -> name:string -> string array -> t

(** [name t] is the table's name (used in plan printouts). *)
val name : t -> string

(** [cols t] is the array of column names. *)
val cols : t -> string array

(** [width t] is the number of integer columns. *)
val width : t -> int

(** [weighted t] is [true] iff the table has a weight column. *)
val weighted : t -> bool

(** [nrows t] is the current number of rows. *)
val nrows : t -> int

(** [col_index t c] is the position of column [c].
    @raise Not_found if there is no such column. *)
val col_index : t -> string -> int

(** [reserve t n] grows the backing storage so that [n] further rows can
    be appended without reallocation.  A no-op when capacity already
    suffices (or [n <= 0]); never shrinks. *)
val reserve : t -> int -> unit

(** [append t row] appends [row] (weight set to null when weighted).
    @raise Invalid_argument if [Array.length row <> width t]. *)
val append : t -> int array -> unit

(** [append_w t row w] appends [row] with weight [w].
    @raise Invalid_argument on width mismatch or if [t] is not weighted. *)
val append_w : t -> int array -> float -> unit

(** [append_from dst src r] appends row [r] of [src] (and its weight when
    both tables are weighted) to [dst].  Tables must have equal width. *)
val append_from : t -> t -> int -> unit

(** [get t r c] is the value in row [r], column [c]. *)
val get : t -> int -> int -> int

(** [set t r c v] overwrites the value in row [r], column [c]. *)
val set : t -> int -> int -> int -> unit

(** [weight t r] is the weight of row [r] ([null_weight] if unset).
    @raise Invalid_argument if [t] is not weighted. *)
val weight : t -> int -> float

(** [set_weight t r w] sets the weight of row [r]. *)
val set_weight : t -> int -> float -> unit

(** [read_row t r buf] copies row [r] into [buf] (length ≥ width). *)
val read_row : t -> int -> int array -> unit

(** [blit_row t r buf off] copies row [r] into [buf] starting at offset
    [off] (allocation-free row export for batch builders). *)
val blit_row : t -> int -> int array -> int -> unit

(** [append_slice t src off] appends the [width t] cells found in [src]
    at offset [off] as a new row (weight set to null when weighted). *)
val append_slice : t -> int array -> int -> unit

(** [append_slice_w t src off w] is {!append_slice} with weight [w].
    @raise Invalid_argument if [t] is not weighted. *)
val append_slice_w : t -> int array -> int -> float -> unit

(** [row t r] is a fresh array holding row [r]. *)
val row : t -> int -> int array

(** [iter f t] applies [f r] to every row index [r] in order. *)
val iter : (int -> unit) -> t -> unit

(** [clear t] removes all rows, keeping capacity. *)
val clear : t -> unit

(** [copy t] is a deep copy of [t]. *)
val copy : t -> t

(** [filter t p] is a new table with the rows satisfying [p]. *)
val filter : t -> (int -> bool) -> t

(** [sub t rows] is a new table containing exactly the given row indices. *)
val sub : t -> int array -> t

(** [append_all dst src] appends every row of [src] to [dst]. *)
val append_all : t -> t -> unit

(** [byte_size t] is the approximate in-memory (and on-wire, for MPP motion
    cost accounting) size of the table in bytes. *)
val byte_size : t -> int

(** [row_bytes t] is the approximate per-row byte size. *)
val row_bytes : t -> int

(** [equal_rows a ra b rb] is [true] iff row [ra] of [a] and row [rb] of [b]
    have identical integer cells (weights are ignored). *)
val equal_rows : t -> int -> t -> int -> bool
