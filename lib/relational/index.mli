(** Hash indexes over table key columns.

    An index maps a tuple of key-column values to the set of rows carrying
    those values.  It is the build side of {!Join.hash_join}, the dedup
    structure behind fact merging during grounding, and the lookup path for
    head atoms when constructing ground factors.

    Indexes support incremental maintenance: rows appended to the table
    after the index was built can be registered with {!add}. *)

type t

(** [build tbl key] indexes the current rows of [tbl] on the columns [key]
    (given as column positions). *)
val build : Table.t -> int array -> t

(** [copy idx tbl] is an index over [tbl] that answers exactly as [idx]
    does: a blit of [idx]'s bucket and chain arrays, no rehashing.  [tbl]
    must hold the rows [idx] indexes, in the same positions (a
    {!Table.copy} of [table idx]).  Later {!add}s to either index leave
    the other untouched. *)
val copy : t -> Table.t -> t

(** [table idx] is the indexed table. *)
val table : t -> Table.t

(** [key idx] is the key column positions. *)
val key : t -> int array

(** [add idx r] registers row [r] of the indexed table (the row must
    already exist in the table). *)
val add : t -> int -> unit

(** [iter_matches idx kv f] applies [f r] to every indexed row [r] whose
    key columns equal [kv] (length must equal the key arity), most
    recently registered first — descending row order, since {!build} and
    appends register rows in ascending order.  This holds whatever the
    key's column order. *)
val iter_matches : t -> int array -> (int -> unit) -> unit

(** [first_match idx kv] is the first indexed row matching [kv], if any. *)
val first_match : t -> int array -> int option

(** [mem idx kv] is [true] iff some indexed row matches [kv]. *)
val mem : t -> int array -> bool

(** [mem_row idx other r] is [true] iff some indexed row's key equals the
    key columns of row [r] in table [other] read at positions
    [okey].  Used for anti-joins without materializing key buffers. *)
val mem_row : t -> Table.t -> int array -> int -> bool

(** [find_row idx other okey r] is the first such row in {!iter_matches}
    order — the most recently registered one — or [-1] when there is
    none: {!mem_row} that names the row, without allocating. *)
val find_row : t -> Table.t -> int array -> int -> int

(** [count_matches idx kv] is the number of indexed rows matching [kv]. *)
val count_matches : t -> int array -> int

(** [size idx] is the number of indexed rows. *)
val size : t -> int

(** [hash_row tbl key r] hashes the key columns of row [r] of [tbl] with
    the hash the index uses for its buckets, so the MPP layer
    hash-distributes rows consistently with join probes. *)
val hash_row : Table.t -> int array -> int -> int
