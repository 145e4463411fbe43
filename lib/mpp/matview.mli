(** Redistributed materialized views of the fact table [TΠ].

    The paper's key MPP optimization (Section 4.4): because rules (1)-(6)
    share join syntax, four hash-distributed replicas of [TΠ] cover every
    grounding query —

    {v (R, C1, C2)   (R, C1, x, C2)   (R, C1, C2, y)   (R, C1, x, C2, y) v}

    — so the fact side of each join is always collocated and only the
    (small) intermediate result moves.  [pick] chooses, for a given join
    key, the view whose distribution key is the largest subset of it. *)

type t

(** The four distribution keys, as column positions in [TΠ]
    ([I=0, R=1, x=2, C1=3, y=4, C2=5]). *)
val distribution_keys : int array list

(** [create cluster cost facts] materializes the four views — concurrently
    on [pool] (default {!Pool.get_default}) — charging the initial
    redistribution (with the measured build time split evenly across the
    four view charges). *)
val create : ?pool:Pool.t -> Cluster.t -> Cost.t -> Relational.Table.t -> t

(** [append v facts ~from] inserts rows [from, nrows facts)] of [facts]
    into each of the four views ({!Dtable.append}), concurrently on
    [pool] — the [redistribute(TΠ)] step of Algorithm 1, line 7, when
    [v] holds rows [0, from)] of the same table.  It charges nothing: the
    caller charges the motion of the inserted rows. *)
val append : ?pool:Pool.t -> t -> Relational.Table.t -> from:int -> unit

(** [pick v key] is the best-aligned view for a join on [key] columns of
    [TΠ]: the view with the largest distribution key contained in [key].
    Every grounding query key contains [(R, C1, C2)], so a view always
    qualifies. *)
val pick : t -> int array -> Dtable.t

(** [finest v] is the [(R, C1, x, C2, y)] view — the most finely hashed
    replica, hence the best load-balanced.  It is the right probe side for
    joins whose build side is replicated (the [Mi] tables): those joins
    are collocated under any distribution, so the planner picks the one
    that minimizes skew. *)
val finest : t -> Dtable.t
