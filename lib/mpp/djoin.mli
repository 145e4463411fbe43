(** Collocation-aware distributed hash join.

    The planner mirrors Greenplum's choices in Figure 4 of the paper:

    - if both inputs are hash-distributed on corresponding subsets of the
      join key (or one is replicated), the join runs locally on every
      segment with {e no motion};
    - if one input is aligned, only the other is redistributed by the
      corresponding key columns;
    - otherwise it picks the cheapest of: redistributing both inputs by
      the full join key, or broadcasting the smaller input.

    All data movement is real; the simulated clock charges max-per-segment
    CPU plus motion network time.  The per-segment local joins execute
    concurrently on the domain pool ([pool], default
    {!Pool.get_default}); their measured time ({!Obs.now}) is recorded
    on the cost trace next to the simulated charge. *)

(** [hash_join cluster cost ~name ~cols ~out ~oweight ?residual (b, bkey)
    (p, pkey)] is the distributed analogue of
    [Relational.Join.hash_join]; the result's distribution is derived from
    the executed plan when the distribution columns survive projection,
    [Unknown] otherwise. *)
val hash_join :
  ?pool:Pool.t ->
  Cluster.t ->
  Cost.t ->
  name:string ->
  cols:string array ->
  out:Relational.Join.out_col array ->
  oweight:Relational.Join.out_weight ->
  ?dedup:bool ->
  ?residual:(int -> int -> bool) ->
  Dtable.t * int array ->
  Dtable.t * int array ->
  Dtable.t
