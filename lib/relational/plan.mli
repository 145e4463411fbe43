(** Logical query plans.

    The grounding engine calls the physical operators directly (its six
    query shapes are fixed), but a knowledge base is also a database, and
    ad-hoc queries deserve a planner: this module provides composable
    logical plans, statistics-based cardinality estimates, automatic
    build-side selection for joins, an EXPLAIN printer — and two
    executors that produce bit-identical output:

    - {!run} (the default) compiles the plan into push-based pipelines:
      Scan→Select→Project→probe chains stream batch-at-a-time into a
      sink and never materialize intermediates; the only pipeline
      breakers are hash-table build sides, [Distinct] (a dedup sink) and
      [Order_by].  Large sources are split into contiguous morsels
      executed by pool workers and merged in morsel order.
    - {!run_materializing} materializes every node bottom-up — the
      pre-pipeline reference engine, kept for differential testing and
      the bench comparison.

    Column addressing is positional: each node exposes an output schema
    ({!columns}); joins concatenate the left and the right schemas. *)

(** Row predicates over a node's output columns. *)
type pred =
  | Eq_const of int * int  (** column = constant *)
  | Eq_cols of int * int  (** column = column *)
  | Lt_const of int * int  (** column < constant *)
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type t =
  | Scan of Table.t
  | Scan_segments of Segsrc.t
      (** segmented (spilled) source; the pipelined engine streams each
          resident segment as one morsel and skips segments whose zone
          maps exclude the [Eq_const]/[Lt_const] conjuncts of the
          Selects directly above the scan — pruning changes only the
          [storage.segments_skipped] counter, never results *)
  | Select of pred * t
  | Project of int array * t  (** keep the given child columns, in order *)
  | Equi_join of { left : t; right : t; lkey : int array; rkey : int array }
      (** output = left columns ++ right columns *)
  | Distinct of int array option * t  (** [None] = over all columns *)
  | Order_by of int array * t

(** [columns p] is the output schema (column names).
    @raise Invalid_argument on out-of-range column references. *)
val columns : t -> string array

(** [estimate_rows p] is the planner's cardinality estimate.  Columns are
    traced through filters, projections and joins back to base tables so
    {!Colstats} can be consulted: [Eq_const] selectivity is 1/NDV of the
    column (0 when the constant falls outside the column's min/max),
    equi-joins use |L|·|R| / max(ndv keys), [Distinct] is capped by the
    NDV product of its key.  Textbook constants are the fallback when a
    column cannot be resolved to a base table. *)
val estimate_rows : t -> int

(** [run ?pool p] executes the plan on the pipelined engine and
    materializes only the final sink (plus pipeline breakers: hash build
    sides, dedup sinks, sorts).  Hash joins build on the side with the
    smaller {e estimated} cardinality.  Sources above a size threshold
    are morsel-parallel on [pool] (default {!Pool.get_default});
    per-worker sinks are merged in morsel order, so output — rows,
    order, weights — is bit-identical to {!run_materializing} and to
    sequential execution, for every pool size. *)
val run : ?pool:Pool.t -> t -> Table.t

(** [run_materializing ?pool p] materializes the plan bottom-up, one
    table per node — the reference engine.  Same build-side rule, same
    operators, same output as {!run}. *)
val run_materializing : ?pool:Pool.t -> t -> Table.t

(** [explain ppf p] prints the plan tree with schemas, row estimates and
    pipeline annotations: each streaming node is tagged with the
    pipeline that consumes its batches ([pipeline N], with the join
    build side noted), and each breaker with the pipeline it
    terminates. *)
val explain : Format.formatter -> t -> unit

(** One plan node's EXPLAIN ANALYZE record: the estimated cardinality
    side by side with what execution actually produced.  Streaming nodes
    share their pipeline's [batches] count and wall time; breaker nodes
    ([Distinct], [Order_by]) time their own materialization.  [batches]
    is 0 for nodes that did not stream (scans, sorts). *)
type analysis = {
  op : string;
  schema : string array;
  est_rows : int;
  rows : int;
  batches : int;
  seconds : float;
  children : analysis list;
}

(** [analyze ?pool p] executes the plan on the pipelined engine while
    metering, per node, observed cardinality, batch count and pipeline
    wall time alongside the optimizer estimate. *)
val analyze : ?pool:Pool.t -> t -> Table.t * analysis

(** [pp_analysis ppf a] prints the analyzed tree, one node per line as
    [op  (est=… rows=… time=…ms batches=…)]. *)
val pp_analysis : Format.formatter -> analysis -> unit

(** [analysis_to_json a] is the analyzed tree as JSON (for [--metrics
    json] and bench artifacts). *)
val analysis_to_json : analysis -> Obs.Json.t

(** [explain_analyze ?pool ppf p] runs {!analyze}, prints the tree, and
    returns the result table. *)
val explain_analyze : ?pool:Pool.t -> Format.formatter -> t -> Table.t
