(** Push-based, batch-at-a-time operator pipelines.

    This is the execution engine under {!Join}, {!Ops} and {!Plan}: a
    {!source} — rows of a resident table or the segments of a spilled
    one — is scanned in {!Batch.t} chunks, a chain of kernels
    transforms each batch in flight (projections copy, probes stream
    against prebuilt hash indexes), and a {!Sink.t} materializes the
    survivors.  The only pipeline breakers are hash-table build sides
    and DISTINCT (a dedup sink) — Scan→Project→probe chains never
    materialize an intermediate table.

    A pipeline runs on the calling domain, one sequential scan into one
    kernel chain.  Parallelism lives a level up, in the pool's top-level
    regions (grounding's patterns, the MPP segments and views, the exact
    components of inference), each of which runs whole pipelines; no
    pipeline submits to the pool itself. *)

(** Which input of a join an output column or weight is drawn from.
    These types are re-exported by {!Join} under the same constructors;
    the probe side of a pipeline join streams as batches while the build
    side is a materialized, indexed table. *)
type side = Build | Probe

type out_col = Col of side * int | Const of int
type out_weight = No_weight | Weight_of of side

(** An operator kernel: [push] consumes one batch (the producer may
    reuse the batch after [push] returns), [flush] drains buffered
    output at end of stream and propagates downstream. *)
type kernel = { push : Batch.t -> unit; flush : unit -> unit }

(** [into_sink s] is the terminal kernel appending into [s]. *)
val into_sink : Sink.t -> kernel

(** [project ~cols ~weighted ~next ()] maps each row to the given child
    columns (weights carried over when [weighted]). *)
val project : cols:int array -> weighted:bool -> next:kernel -> unit -> kernel

(** [probe idx ~pkey ~out ~oweight ?residual ~next ()] hash-probes each
    batch row (key columns [pkey]) against [idx], emitting one output
    row per match as specified by [out]/[oweight] — in probe-row order,
    with matches in the index's chain order, exactly like the
    materializing join.  [residual] sees (build row, probe source row
    id) and filters matches before emission. *)
val probe :
  Index.t ->
  pkey:int array ->
  out:out_col array ->
  oweight:out_weight ->
  ?residual:(int -> int -> bool) ->
  next:kernel ->
  unit ->
  kernel

(** What {!run} scans. *)
type source =
  | Rows of { table : Table.t; lo : int; hi : int }
      (** rows [lo, hi)] of a resident table; the row ids the kernels
          see are the table's own row indices *)
  | Segments of Segsrc.t
      (** a segmented (spilled) table, read segment by segment; row ids
          equal the row indices of the unspilled table *)

(** [of_table t] is every row of [t]. *)
val of_table : Table.t -> source

(** [rows s] is the number of rows [s] covers. *)
val rows : source -> int

(** [run ~source kernel] scans [source] in order through [kernel] and
    flushes it once at the end, on the calling domain.  Returns the
    number of batches scanned; records [pipeline.*] counters on the
    ambient trace when enabled, plus [storage.segments_scanned] for a
    segmented source. *)
val run : source:source -> kernel -> int
