(** Push-based, batch-at-a-time operator pipelines.

    This is the execution engine under {!Join}, {!Ops} and {!Plan}: a
    {!source} — rows of a resident table or the segments of a spilled
    one — is scanned in {!Batch.t} chunks, a chain of kernels
    transforms each batch in flight (filters compact in place, probes
    stream against prebuilt hash indexes), and a {!Sink.t} materializes
    the survivors.  The only pipeline breakers are hash-table build
    sides, DISTINCT (a dedup sink) and sorts — Scan→Select→Project→probe
    chains never materialize an intermediate table.

    Parallelism is morsel-driven: one driver ({!run}) splits either kind
    of source into contiguous morsels, dynamically scheduled over the
    domain pool; each worker runs the whole kernel chain over its morsel
    into a private sink, and the private sinks are absorbed into the
    global sink in morsel order.  Output is therefore bit-identical to the sequential
    engine for any pool size — including first-occurrence semantics of
    dedup sinks, which re-check their dedup set while absorbing. *)

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

(** [select pred ~next] keeps the rows satisfying [pred b r], compacting
    the batch in place. *)
val select : (Batch.t -> int -> bool) -> next:kernel -> kernel

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
  | Segments of { src : Segsrc.t; keep : Segsrc.seg -> bool }
      (** a segmented (spilled) table.  Segments [keep] rejects are
          never read: [keep] may only reject segments none of whose rows
          could survive the chain, so pruning changes counters, never
          results.  Row ids equal the row indices of the unspilled
          table, skipped segments included. *)

(** [of_table t] is every row of [t]. *)
val of_table : Table.t -> source

(** [rows s] is the number of rows [s] covers, rejected segments
    included. *)
val rows : source -> int

(** [run ~source ~make_sink ~chain ~sink ()] drives a full pipeline over
    [source] in morsels.  Resident rows are one morsel, or — when the
    pool has workers and the rows clear [threshold] (default 2,048;
    below it the per-morsel sinks and the ordered absorb cost more than
    they save) — contiguous runs of at least 1,024 rows; each kept
    segment is one morsel.  Sequentially
    one [chain sink] consumes every morsel in order and is flushed once;
    in parallel each morsel runs through [chain (make_sink ())] and the
    private sinks are absorbed into [sink] in morsel order.  [chain]
    must build a fresh kernel chain ending at the given sink each time
    it is called.  Output is bit-identical to a sequential scan of the
    resident table at any pool size.  Returns the number of source
    batches scanned; records [pipeline.*] counters and the morsel-skew
    gauge on the ambient trace when enabled, plus
    [storage.segments_scanned] / [storage.segments_skipped] for a
    segmented source. *)
val run :
  ?pool:Pool.t ->
  ?threshold:int ->
  source:source ->
  make_sink:(unit -> Sink.t) ->
  chain:(Sink.t -> kernel) ->
  sink:Sink.t ->
  unit ->
  int
