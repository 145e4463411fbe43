(** Per-column table statistics.

    The number of distinct values (NDV) per column of a resident table —
    the input to {!Plan}'s cardinality estimates, playing the role of
    PostgreSQL's [pg_statistic] for this engine.  NDV is computed exactly
    (the engine is in-memory; a scan is cheap relative to the joins the
    estimates guard). *)

type t

(** [analyze tbl] scans the table once and collects statistics. *)
val analyze : Table.t -> t

(** [stats_for tbl] is {!analyze} behind a small process-wide cache
    keyed by physical table identity and current row count, so repeated
    plan estimates against unchanged base tables do not rescan them.
    Thread-safe. *)
val stats_for : Table.t -> t

(** [ndv st c] is the number of distinct values in column [c]. *)
val ndv : t -> int -> int
