(** Set-oriented auxiliary operators: distinct, grouped counting, union.

    These back the DISTINCT / GROUP BY ... HAVING clauses of the paper's
    Query 3 (constraint application) and the bag/set unions of Algorithm 1
    (lines 5 and 9-10).  Each runs on the calling domain. *)

(** [distinct t key] is a new table keeping the first row of [t] for each
    distinct valuation of the [key] columns (all columns are copied), in
    one pass on the calling domain. *)
val distinct : Table.t -> int array -> Table.t

(** [group_count t key] groups the rows of [t] by the [key] columns and
    returns a table with columns [key-cols @ ["count"]]: one row per group
    with the group's cardinality in the last column. *)
val group_count : Table.t -> int array -> Table.t

(** Aggregate functions over one integer column. *)
type agg =
  | Count  (** group cardinality (the column argument is ignored) *)
  | Sum of int
  | Min of int
  | Max of int

(** [group t key aggs] groups the rows of [t] by the [key] columns and
    returns a table with columns [key-cols @ agg-cols]: one row per group
    carrying each aggregate in order.  [Min]/[Max] of an empty group
    cannot occur (groups are non-empty by construction). *)
val group : Table.t -> int array -> agg list -> Table.t

(** [union_all ts] is the bag union (concatenation) of the tables, which
    must share width; the result takes its schema from the first table.
    @raise Invalid_argument on an empty list. *)
val union_all : Table.t list -> Table.t

(** [count_where t p] is the number of rows satisfying [p]. *)
val count_where : Table.t -> (int -> bool) -> int
