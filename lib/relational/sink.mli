(** Materializing sinks: where pipelines end.

    A sink owns the output table of a pipeline and, optionally, the
    dedup index that makes it a streaming DISTINCT: rows pushed into a
    dedup sink are appended only on their first occurrence.  Inline join
    deduplication ({!Join.hash_join} [~dedup:true]) and the standalone
    {!Ops.distinct} operator both terminate in this one abstraction, so
    their [Obs] dedup counters are computed identically
    ({!record_distinct_obs}).  A pipeline pushes its rows in source
    order, so a dedup sink keeps each key's first occurrence in that
    order. *)

type t

(** [create ~name cols] is a sink over an empty table.  [dedup_key]
    (positions in [cols]) makes it a dedup sink; [reserve] pre-sizes the
    table from a cardinality estimate (capped internally, so estimates
    may be wild); [weighted] as in {!Table.create}. *)
val create :
  ?dedup_key:int array ->
  ?reserve:int ->
  ?weighted:bool ->
  name:string ->
  string array ->
  t

(** [table s] is the sink's output table. *)
val table : t -> Table.t

(** [rows_out s] is the number of rows kept so far. *)
val rows_out : t -> int

(** [push_batch s b] offers every row of [b] to the sink. *)
val push_batch : t -> Batch.t -> unit

(** [record_distinct_obs obs s] emits the uniform dedup counters
    ([distinct.rows_in], [distinct.rows_out], [distinct.duplicates]) for
    a dedup sink; a no-op for plain sinks or a disabled trace. *)
val record_distinct_obs : Obs.t -> t -> unit
