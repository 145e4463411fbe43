(** The batch grounding queries (paper, Figure 3 and Section 4.3).

    Each structural partition [Mi] has one [groundAtoms] query (Query 1-i)
    and one [groundFactors] query (Query 2-i).  A query joins the [Mi]
    table with the fact table [TΠ] on the relation and class columns —
    thereby applying *every* rule of the partition in one batch — instead
    of issuing one query per rule as Tuffy does.

    One-atom patterns compile to a single hash join; two-atom patterns to
    two (Mi ⋈ TΠ, then the intermediate ⋈ TΠ with the shared-variable
    equality folded into the join key, e.g. [T2.x = T3.x] for pattern 3). *)

(** Physical description of one pattern's queries: the join keys (as
    column positions of [Mi], [TΠ] and the intermediate [J]) and the
    [TΠ] columns that supply the head's variables.  Exposed so the MPP
    driver executes exactly the same plans distributed. *)
module Shape : sig
  type t =
    | One_atom of {
        m_key : int array;
        t_key : int array;
        x_src : int;
        y_src : int;
      }
    | Two_atom of {
        m_key1 : int array;
        t_key1 : int array;
        z_src : int;
        x_src : int;
        j_key2 : int array;
        t_key2 : int array;
        y_src : int;
      }
end

(** [shape_of pat] is the query shape of a partition. *)
val shape_of : Mln.Pattern.t -> Shape.t

(** Column names of the intermediate [J] and of the derivation rows. *)
val j_cols : string array

val atom_i_cols : string array

(** Projection (SELECT) lists of step 1 and of Query 2-i. *)
val step1_out : Shape.t -> Relational.Join.out_col array

val factors_out : Shape.t -> Relational.Join.out_col array

(** [factors_out_swapped s] is [factors_out s] for the shape [s] of a
    mirrored pattern ({!mirror_pattern}) run with Δ on the original
    pattern's r atom: the head's x and y columns and the body ids I2/I3
    are swapped back, so its rows read as the original pattern's. *)
val factors_out_swapped : Shape.t -> Relational.Join.out_col array

(** [mirror_pattern pat] is the pattern that runs [pat]'s r atom as its
    q atom: P3↔P3, P4↔P5, P6↔P6 (one-atom patterns map to themselves). *)
val mirror_pattern : Mln.Pattern.t -> Mln.Pattern.t

(** [mirror_rule_table pat tbl] is [pat]'s rule table [tbl] rewritten
    for {!mirror_pattern}: rows [(R1, R2, R3, C1, C2, C3)] become
    [(R1, R3, R2, C2, C1, C3)], weights and row order kept. *)
val mirror_rule_table : Mln.Pattern.t -> Relational.Table.t -> Relational.Table.t

(** [resolve_heads ?order rows pi g] finalizes a factor query: probe
    each derivation row's head key [(R, x, C1, y, C2)] (columns
    {!atom_i_cols}) against [TΠ] and emit [(I1, I2, I3, w)] into [g],
    taking the rows in [order] (row indices of [rows]; default: table
    order); rows whose head has no live fact (deleted by quality
    control, or retracted) are skipped.  Returns the factor count. *)
val resolve_heads :
  ?order:int array ->
  Relational.Table.t ->
  Kb.Storage.t ->
  Factor_graph.Fgraph.t ->
  int

(** [scan_order pat rows] is the stable permutation of the derivation
    rows [rows] (columns {!atom_i_cols}) of partition [pat] into the
    order the full scan join over [TΠ] emits them: I2 ascending for a
    one-atom pattern; I3 ascending, then I2 descending, for a two-atom
    one.  Rows with equal body ids keep their relative order — the
    rules of one body, which every query here emits in the scan's
    order. *)
val scan_order : Mln.Pattern.t -> Relational.Table.t -> int array

type prepared
(** Hash indexes over the six [Mi] tables, built once and reused across
    iterations. *)

(** [prepare parts] indexes the partition tables. *)
val prepare : Mln.Partition.t -> prepared

(** [partitions p] is the underlying partition set. *)
val partitions : prepared -> Mln.Partition.t

(** [atoms_plan p pat pi] is Query 1-i expressed as a logical plan over
    the *current* [Mi] and [TΠ] tables — the same joins and projections
    the physical path runs, with the join-folded dedup made an explicit
    [Distinct].  Feed it to [Relational.Plan.analyze] (estimates vs.
    observed rows) for [probkb expand --explain]'s EXPLAIN ANALYZE. *)
val atoms_plan : prepared -> Mln.Pattern.t -> Kb.Storage.t -> Relational.Plan.t

(** [ground_atoms p pat pi] is Query 1-i: the head atoms derivable by
    the rules of partition [pat] from the current facts.  The result has
    columns [R, x, C1, y, C2] and may contain duplicates (the caller
    deduplicates when merging into [TΠ]).  Scans all of [TΠ], so [pi]
    must have no tombstoned rows ({!Kb.Storage.flush_deletes} first);
    the same holds for {!ground_factors}. *)
val ground_atoms :
  prepared ->
  Mln.Pattern.t ->
  Kb.Storage.t ->
  Relational.Table.t

(** [derivations p pat pi] is Query 2-i's join before head resolution:
    one row per ground rule of partition [pat] whose body facts exist in
    [TΠ] — head key, body ids and rule weight, columns {!atom_i_cols} —
    in the scan join's order, every row kept (a rule stated twice
    derives twice).  Its first occurrences over columns 0–4 are
    {!ground_atoms}'s rows. *)
val derivations :
  prepared ->
  Mln.Pattern.t ->
  Kb.Storage.t ->
  Relational.Table.t

(** [derivations_delta p pat pi ~from] is the semi-naive variant of
    {!derivations} for the delta of the facts from id [from] on — the
    rows of [TΠ] from that id ({!Kb.Storage.rows_from}), read in place:
    the rows {!derivations} over the live rows of [TΠ] would return for
    the derivations with at least one body fact in Δ, each once and in
    that query's order.  A two-atom pattern runs two union terms: Δ on
    the q atom, and Δ on the r atom as the q atom of the mirrored
    pattern (P3↔P3, P4↔P5, P6↔P6, rule rows transformed, head columns
    and body ids swapped back inside the projection), keeping only q
    facts older than [from], so a derivation with both body facts in Δ
    comes from the q term alone.  Step 2 of each term walks its Δ-sized
    intermediate and probes [TΠ]'s maintained partial-key index
    ({!Kb.Storage.partial_index}, built on first use), skipping
    tombstoned rows; the two terms' matches are merged in the full
    query's order. *)
val derivations_delta :
  prepared -> Mln.Pattern.t -> Kb.Storage.t -> from:int -> Relational.Table.t

(** [ground_factors p pat pi g] is Query 2-i: for every ground rule of
    partition [pat] whose body facts and head fact all exist in [TΠ],
    append the factor [(I1, I2, I3, w)] to [g]; [w] is the rule weight.
    It is {!resolve_heads} over {!derivations}.  Returns the number of
    factors produced.  Per Proposition 1 of the paper, a deduplicated
    [Mi] produces no duplicate [(I1, I2, I3)] within the partition. *)
val ground_factors :
  prepared ->
  Mln.Pattern.t ->
  Kb.Storage.t ->
  Factor_graph.Fgraph.t ->
  int

(** [singleton_factors pi g] is [groundFactors(TΠ)] (Algorithm 1,
    line 10): one singleton factor per fact with a non-null weight.
    Returns the count. *)
val singleton_factors : Kb.Storage.t -> Factor_graph.Fgraph.t -> int
