(** Query execution statistics.

    A [Stats.t] accumulates per-query measurements — elapsed time read
    with {!Obs.now}, rows produced, number of queries issued — so that
    the benchmark harness can report the Table 3 / Figure 6 quantities
    (time per grounding iteration, number of SQL queries per iteration,
    result sizes) for both ProbKB and the Tuffy-T baseline. *)

type t

(** One recorded query. *)
type entry = { label : string; seconds : float; rows_out : int }

val create : unit -> t

(** [time st ~label ~rows f] runs [f ()], records its duration under
    [label] with [rows result] output rows, and returns the result. *)
val time : t -> label:string -> rows:('a -> int) -> (unit -> 'a) -> 'a

(** [record st ~label ~seconds ~rows_out] records an externally timed query. *)
val record : t -> label:string -> seconds:float -> rows_out:int -> unit

(** [queries st] is the number of recorded queries. *)
val queries : t -> int

(** [total_seconds st] is the summed duration of all recorded queries. *)
val total_seconds : t -> float

(** [total_rows st] is the summed output cardinality. *)
val total_rows : t -> int

(** [entries st] is the recorded entries, oldest first. *)
val entries : t -> entry list

(** [reset st] forgets all recorded entries. *)
val reset : t -> unit

(** [merge dst src] appends [src]'s entries to [dst]. *)
val merge : t -> t -> unit

(** [pp ppf st] prints a per-label summary (count, total time, rows). *)
val pp : Format.formatter -> t -> unit
