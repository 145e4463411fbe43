(** Data motions: the inter-segment communication operators.

    A shared-nothing join whose inputs are not collocated must move data:
    either {e redistribute} (re-hash every row to its new home segment) or
    {e broadcast} (copy one side to all segments).  Motions are the cost
    the paper's redistributed materialized views avoid — compare the two
    plans of Figure 4.  Both operators here move rows for real and charge
    simulated network time = bytes / bandwidth + latency. *)

(** [redistribute cluster cost dt key] re-partitions [dt] by hash of
    [key].  Rows already on the right segment are not charged. *)
val redistribute : Cluster.t -> Cost.t -> Dtable.t -> int array -> Dtable.t

(** [broadcast cluster cost dt] replicates [dt] to all segments: every
    segment reads one shared, read-only copy, and the motion is charged
    on the bytes shipped to the other [nseg - 1]. *)
val broadcast : Cluster.t -> Cost.t -> Dtable.t -> Dtable.t

(** [gather cluster cost dt] ships all rows to the coordinator and charges
    the motion; returns the gathered table. *)
val gather : Cluster.t -> Cost.t -> Dtable.t -> Relational.Table.t

(** [redistribute_cost cluster dt] / [broadcast_cost cluster dt] are the
    simulated seconds the corresponding motion would charge — used by the
    join planner to choose the cheaper plan. *)
val redistribute_cost : Cluster.t -> Dtable.t -> float

val broadcast_cost : Cluster.t -> Dtable.t -> float
