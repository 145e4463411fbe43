(** Logical query plans: the grounding queries as EXPLAIN ANALYZE sees
    them.

    The grounding engine calls the physical operators directly (its six
    query shapes are fixed); this module expresses the same joins as
    logical plans ({!Grounding.Queries.atoms_plan} builds them for
    [probkb expand --explain]), estimates their cardinalities from
    column statistics, picks each join's build side, and runs them on
    push-based pipelines: Scan→Project→probe chains stream
    batch-at-a-time into a sink and never materialize intermediates; the
    only pipeline breakers are hash-table build sides and [Distinct] (a
    dedup sink).  The test suite checks the executor against a
    materializing oracle built from the public operators.

    Column addressing is positional: each node exposes an output schema
    ({!columns}); joins concatenate the left and the right schemas. *)

type t =
  | Scan of Table.t
  | Project of int array * t  (** keep the given child columns, in order *)
  | Equi_join of { left : t; right : t; lkey : int array; rkey : int array }
      (** output = left columns ++ right columns *)
  | Distinct of int array option * t  (** [None] = over all columns *)

(** [columns p] is the output schema (column names).
    @raise Invalid_argument on out-of-range column references. *)
val columns : t -> string array

(** [estimate_rows p] is the planner's cardinality estimate.  Columns are
    traced through projections, joins and DISTINCT back to base tables
    so {!Colstats} can be consulted: equi-joins use
    |L|·|R| / max(ndv keys), [Distinct] is capped by the NDV product of
    its key.  Textbook constants are the fallback when a column cannot
    be resolved to a base table. *)
val estimate_rows : t -> int

(** [run p] executes the plan on the pipelined engine, on the calling
    domain, and materializes only the final sink (plus pipeline
    breakers: hash build sides and dedup sinks).  Hash joins build on
    the side with the smaller {e estimated} cardinality.  The output —
    rows, order, weights — is bit-identical to materializing every node
    bottom-up with the same operators and build-side rule. *)
val run : t -> Table.t

(** One plan node's EXPLAIN ANALYZE record: the estimated cardinality
    side by side with what execution actually produced.  Streaming nodes
    share their pipeline's [batches] count and wall time; a [Distinct]
    times its own pipeline.  [batches] is 0 for nodes that did not
    stream (scans). *)
type analysis = {
  op : string;
  schema : string array;
  est_rows : int;
  rows : int;
  batches : int;
  seconds : float;
  children : analysis list;
}

(** [analyze p] executes the plan as {!run} does while metering, per
    node, observed cardinality, batch count and pipeline wall time
    alongside the optimizer estimate. *)
val analyze : t -> Table.t * analysis

(** [pp_analysis ppf a] prints the analyzed tree, one node per line as
    [op  (est=… rows=… time=…ms batches=…)]. *)
val pp_analysis : Format.formatter -> analysis -> unit

(** [analysis_to_json a] is the analyzed tree as JSON (for [--metrics
    json] and bench artifacts). *)
val analysis_to_json : analysis -> Obs.Json.t
