(** Per-row dead flags for a table that retires rows in place.

    A store that deletes by tombstoning ([Kb.Storage] for [TΠ],
    [Factor_graph.Fgraph] for [TΦ]) keeps one of these beside its table:
    killing a row sets its flag and moves nothing, and compaction clears
    the flags once the table has dropped the dead rows.  A row past the
    last flag ever set is live, so appends need no bookkeeping. *)

type t

(** [create ()] has every row live. *)
val create : unit -> t

(** [copy t] is an independent copy. *)
val copy : t -> t

(** [count t] is the number of rows marked dead. *)
val count : t -> int

(** [live t row] is [true] unless [row] was killed.  O(1), and one
    comparison while nothing is dead. *)
val live : t -> int -> bool

(** [kill t row] marks [row] dead; [false] if it was dead already.
    O(1) amortised. *)
val kill : t -> int -> bool

(** [clear t] makes every row live again (after compaction). *)
val clear : t -> unit
