(** Hash joins.

    The grounding queries of the paper (Queries 1-i, 2-i, 3) are equi-joins
    between the rule partition tables [Mi] and the fact table [TΠ].  This
    module provides the physical operator they compile to: a build/probe
    hash join with projection, optional residual predicate and weight
    propagation — plus, for semi-naive delta terms, the walk of the
    small side against a maintained index of the large one
    ({!index_matches}) and the projection of one match ({!emit_match}),
    from which a caller assembles the scan join's output in its order.

    The output specification names, for each output column, which side and
    column it is read from; this is the SELECT clause of the SQL queries in
    Figure 3 of the paper.

    A join runs on the calling domain, one scan of its probe side; the
    pool's parallelism runs whole joins, as the tasks of grounding's
    per-pattern and the MPP executor's per-segment regions. *)

(** Which input a projected column or weight comes from (re-exported
    from {!Pipeline}, whose probe kernel executes the join). *)
type side = Pipeline.side =
  | Build  (** the (usually smaller) side the hash table is built on *)
  | Probe  (** the side streamed through the hash table *)

(** One output column of the join. *)
type out_col = Pipeline.out_col =
  | Col of side * int  (** column [i] of the given side *)
  | Const of int  (** a constant *)

(** Where the output weight column comes from. *)
type out_weight = Pipeline.out_weight =
  | No_weight  (** output is not weighted *)
  | Weight_of of side  (** copy the weight of the given side's row *)

(** [hash_join ~name ~out ~oweight ?residual (b, bkey) (p, pkey)] joins
    tables [b] and [p] on the equality of their key columns ([bkey] against
    [pkey], positionally).  For every matching pair of rows the optional
    [residual b_row p_row] predicate is evaluated; surviving pairs are
    projected through [out] into a fresh table named [name] whose columns
    are named [cols].  With [dedup = true] (default [false]) the join
    performs an inline DISTINCT over the integer output columns — the
    first matching row wins — so duplicate-heavy queries never
    materialize their raw output.  The join runs on the calling domain:
    the probe rows stream in order through the read-only build index, so
    the output — row order, weights, dedup winners — is the same on
    whichever domain runs it.

    @raise Invalid_argument if the key arities differ. *)
val hash_join :
  name:string ->
  cols:string array ->
  out:out_col array ->
  oweight:out_weight ->
  ?dedup:bool ->
  ?residual:(int -> int -> bool) ->
  Table.t * int array ->
  Table.t * int array ->
  Table.t

(** [hash_join_pre ~name ~cols ~out ~oweight ?dedup ?residual idx
    (src, pkey)] is {!hash_join} with an already built build-side index
    (its table and key are taken from the index) — reusing a persistent
    index across the queries of one grounding iteration — and the probe
    side given as a {!Pipeline.source}: rows of a resident table, or a
    spilled table's segments, which stream one after another and are
    never materialized.  The output, telemetry and bit-identical-output
    contract are {!hash_join}'s whichever the source: a segmented source
    yields exactly the rows of the same join over the resident table,
    and the row ids [residual] sees are the resident table's row
    indices.  [join.probe_rows] counts every row of the source. *)
val hash_join_pre :
  name:string ->
  cols:string array ->
  out:out_col array ->
  oweight:out_weight ->
  ?dedup:bool ->
  ?residual:(int -> int -> bool) ->
  Index.t ->
  Pipeline.source * int array ->
  Table.t

(** [build tbl key] is the hash index of a join's build side, its
    seconds recorded as [join.build_seconds] on the ambient trace (as
    {!hash_join} records them). *)
val build : Table.t -> int array -> Index.t

(** [index_matches ?residual (b, bkey) idx f] is the index-probe access
    path of {!hash_join}: it walks the rows of [b] and probes [idx] — a
    maintained index over the large table [Index.table idx], e.g. a
    partial-key index of the fact table — with each row's [bkey]
    columns, applying [f b_row indexed_row] to every match that survives
    [residual], in walk order: [b] row ascending, then indexed row
    descending (the index's chain order).  That costs O(|b| + matches),
    not a pass over the indexed table.  The scan join would meet the
    same matches indexed row ascending, then [b] row descending; callers
    collect the matches, sort them into the order they need and project
    them with {!emit_match}.  Runs on the calling domain; records no
    counters.

    @raise Invalid_argument if the key arities differ. *)
val index_matches :
  ?residual:(int -> int -> bool) ->
  Table.t * int array ->
  Index.t ->
  (int -> int -> unit) ->
  unit

(** [emit_match ~sink ob ~out ~oweight b b_row p p_row] projects one
    match — row [b_row] of the build side [b] with row [p_row] of the
    probe side [p] — through [out] and [oweight] into a fresh row of the
    batch [ob], first pushing [ob] into [sink] and clearing it when it is
    full.  The caller pushes the last, partial batch. *)
val emit_match :
  sink:Sink.t ->
  Batch.t ->
  out:out_col array ->
  oweight:out_weight ->
  Table.t ->
  int ->
  Table.t ->
  int ->
  unit

(** [semi_join_absent tbl key idx] is the anti-semi-join: the rows of [tbl]
    whose [key] columns match no row of the index.  Used to keep only facts
    not already present in [TΠ] when merging grounding results. *)
val semi_join_absent : Table.t -> int array -> Index.t -> Table.t
