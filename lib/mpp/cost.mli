(** Simulated-time accounting and plan traces.

    Every distributed operator reports what it did (an {!op}) and how long
    it would have taken on the cluster; the accumulated trace doubles as
    the annotated query plan of the paper's Figure 4. *)

type op =
  | Seq_scan of { table : string; rows : int }
  | Hash_join of { name : string; rows_out : int; max_seg_rows : int }
  | Redistribute of { table : string; rows : int; bytes : int }
  | Broadcast of { table : string; rows : int; bytes : int }
  | Gather of { table : string; rows : int; bytes : int }
  | Coordinator of { label : string; rows : int }

type entry = { op : op; sim_seconds : float; measured_seconds : float }
type t

val create : unit -> t

(** [charge ?measured_seconds t op seconds] records an operation: its
    simulated cluster duration and, optionally, the time the operator
    actually took on the domain pool, read with {!Obs.now} (default 0). *)
val charge : ?measured_seconds:float -> t -> op -> float -> unit

(** [elapsed t] is the total simulated time so far — derived from the
    cost model, never read from a clock. *)
val elapsed : t -> float

(** [measured_seconds t] is the total measured time recorded so far —
    the real execution time of the materially executed operators, summed
    per charge, as opposed to the simulated cluster clock of
    {!elapsed}. *)
val measured_seconds : t -> float

(** [entries t] is the trace, oldest first. *)
val entries : t -> entry list

(** [motion_bytes t] is the total bytes shipped by motions. *)
val motion_bytes : t -> int

(** [pp_plan ppf t] prints the trace as an annotated plan in the style of
    Figure 4 (operator, per-operator simulated duration). *)
val pp_plan : Format.formatter -> t -> unit
