(** Distributed tables.

    A distributed table is one logical table whose rows are spread over
    the cluster's segments under a distribution policy.  Hash distribution
    places a row by hashing its distribution-key columns — matching rows
    of two tables hash-distributed on corresponding keys land on the same
    segment, which is the collocation property the paper's materialized
    views engineer (Section 4.4). *)

type dist =
  | Hash of int array  (** hash of the given columns *)
  | Replicated  (** full copy on every segment *)
  | Unknown  (** e.g. an intermediate join result: rows live where they
                 were produced *)

type t

(** [partition ?from cluster tbl dist] splits rows [from, nrows tbl)]
    of [tbl] (default: all) into per-segment pieces, each in [tbl]'s row
    order.  [Replicated] gives every segment [tbl] itself, held once and
    read-only: the caller must not write [tbl] afterwards.
    Produced-where-they-are is not a constructible policy — [Unknown]
    inputs are rejected.
    @raise Invalid_argument on [Unknown], or [from > 0] with
    [Replicated]. *)
val partition : ?from:int -> Cluster.t -> Relational.Table.t -> dist -> t

(** [partition_spilled policy ~prefix cluster tbl dist] is {!partition}
    followed by flushing every shard to its own on-disk segment store
    under [policy]'s spill root; the resident copies are dropped, so the
    distributed table holds only shard metadata and its shards' opened
    segments.  Joins probe a shard in place from its mmap'd segments
    ({!source}), so local joins pay the shard's read I/O inside the
    measured time — honest out-of-core MPP rather than an in-memory
    simulation.  Results are bit-identical to the resident partition.
    @raise Invalid_argument on [Unknown]. *)
val partition_spilled :
  Storage.Spill.t ->
  prefix:string ->
  Cluster.t ->
  Relational.Table.t ->
  dist ->
  t

(** [append t tbl ~from] places rows [from, nrows tbl)] of [tbl] on
    [t]'s segments by its hash key, after the rows each already holds, in
    place: a spilled shard writes its new rows as one more segment of its
    store ({!Storage.Store.append}), so none stays resident.  When [t]
    was built from rows [0, from)] of the same table, the result equals
    partitioning all of [tbl].
    @raise Invalid_argument unless [t] is hash-distributed. *)
val append : t -> Relational.Table.t -> from:int -> unit

(** [remove_spilled t] deletes the on-disk store of every spilled shard
    of [t] (see {!Storage.Store.remove}); [t] must not be read after. *)
val remove_spilled : t -> unit

(** [of_segments segs dist] wraps already-materialized per-segment pieces
    (used by operators for their outputs). *)
val of_segments : Relational.Table.t array -> dist -> t

val dist : t -> dist
val nseg : t -> int

(** [seg t i] is the i-th segment's local table.  A spilled shard is
    materialized from disk on every call, which only motions and join
    build sides need: a join probes a shard through {!source}, and
    {!seg_rows} counts it. *)
val seg : t -> int -> Relational.Table.t

(** [source t i] is the i-th segment as a probe source, read in place:
    a resident shard's rows, or a spilled shard's segments, streamed
    from the mmap and never materialized. *)
val source : t -> int -> Relational.Pipeline.source

(** [seg_rows t i] is the i-th shard's row count, without materializing
    spilled shards. *)
val seg_rows : t -> int -> int

(** [seg_meta t i] is the i-th shard's name, columns and weighting, read
    from its metadata: a spilled shard is not materialized. *)
val seg_meta : t -> int -> string * string array * bool

(** [spilled t i] is true iff the i-th shard is disk-backed. *)
val spilled : t -> int -> bool

(** [nrows t] is the logical row count ([Replicated] counts one copy). *)
val nrows : t -> int

(** [byte_size t] is the logical byte size (one copy). *)
val byte_size : t -> int

(** [gather t] concatenates the segments back into one table
    ([Replicated] returns segment 0). *)
val gather : t -> Relational.Table.t

(** [name t] is the logical table name. *)
val name : t -> string
