(** The fact table [TΠ].

    All facts — extracted and inferred — live in one table with schema
    [(I, R, x, C1, y, C2, w)] (paper, Definition 4): a single table rather
    than one table per relation, which is what lets grounding apply rule
    batches with one join per partition.  [C1]/[C2] replicate the class
    information into the fact rows so grounding joins never touch
    [TC]/[TR].

    A fact is identified by its key [(R, x, C1, y, C2)]; the weight [w] is
    the extraction confidence for base facts and null for inferred facts
    (their probability is produced later by marginal inference). *)

type t

(** The fact-key columns within {!table}: positions of [R, x, C1, y, C2]. *)
val key_cols : int array

(** [create ()] is an empty fact store. *)
val create : unit -> t

(** [table s] is the underlying [TΠ] table with columns
    [I, R, x, C1, y, C2] and a weight column.  Treat as read-only; mutate
    through this module so the key index stays consistent.  It holds
    tombstoned rows until compaction (see Deletion below): a reader that
    walks it must skip rows that are not {!live_row}, or run on a store
    with no {!pending_deletes}. *)
val table : t -> Relational.Table.t

(** [key_index s] is the maintained index on the fact key, usable as the
    build side of joins against [TΠ]. *)
val key_index : t -> Relational.Index.t

(** {1 Partial-key indexes}

    Two more indexes on [TΠ], each with one argument free: the x key
    [(R, C1, C2, x)] and the y key [(R, C1, C2, y)], as column positions
    of {!table} [[| 1; 3; 5; 2 |]] and [[| 1; 3; 5; 4 |]].  They are the
    [TΠ] side of step 2 of every two-atom grounding query (the [r] atom,
    bound on z).  Both are built together, on first demand;
    from then on {!add} and {!merge_new} extend them and compaction
    ({!flush_deletes}) rebuilds them, so they always index exactly the
    rows of {!table} — tombstoned rows included until compaction, so a
    probe must skip rows that are not {!live_row}.  A bucket chain lists
    one key's rows in descending row order. *)

(** [build_partial_indexes s] builds both partial-key indexes unless they
    are built already.  The first build mutates [s]: call it (or
    {!partial_index}) before sharing [s] with a pool region. *)
val build_partial_indexes : t -> unit

(** [partial_index s key] is the maintained index on [key], which must
    equal the x key or the y key (building both on first use, as
    {!build_partial_indexes}).
    @raise Invalid_argument on any other key. *)
val partial_index : t -> int array -> Relational.Index.t

(** [size s] is the number of live facts: the rows of {!table} minus the
    {!pending_deletes}. *)
val size : t -> int

(** [live_row s row] is [true] iff row [row] of {!table} is not
    tombstoned.  O(1); one comparison while nothing is tombstoned. *)
val live_row : t -> int -> bool

(** [next_id s] is the identifier the next inserted fact will receive.
    Identifiers are assigned in insertion order and never reused, so
    [next_id] taken before a batch of insertions is a watermark: exactly
    the facts with [id >= next_id] are newer than the batch boundary. *)
val next_id : t -> int

(** [add s ~r ~x ~c1 ~y ~c2 ~w] inserts a fact if its key is new and
    returns [`Added id]; otherwise returns [`Dup id] of the existing
    fact. *)
val add :
  t -> r:int -> x:int -> c1:int -> y:int -> c2:int -> w:float ->
  [ `Added of int | `Dup of int ]

(** [find s ~r ~x ~c1 ~y ~c2] is the identifier of the matching live
    fact. *)
val find : t -> r:int -> x:int -> c1:int -> y:int -> c2:int -> int option

(** [merge_new s tbl] inserts every row of [tbl] — whose columns 0–4
    are [R, x, C1, y, C2]; later columns, such as a derivation row's body
    ids, are ignored — as a new inferred fact (null weight) unless the
    key has a live row already or is banned.  A key repeated in [tbl] is
    so inserted at its first occurrence.  This is the
    [TΠ ← TΠ ∪ (∪ Tj)] step of Algorithm 1, line 5.  Returns the number
    of facts actually added. *)
val merge_new : t -> Relational.Table.t -> int

(** {1 Deletion}

    A deleted fact is first tombstoned ({!mark_deleted}): a per-row dead
    flag, O(1) to set and to test.  Tombstones persist across epochs —
    a live session retires dead facts this way and compacts only once
    they pass a fraction of the rows — until {!flush_deletes} compacts
    the table and rebuilds the key index and partial indexes {e once}
    for every tombstone pending.  A dead row stays physically in
    {!table} and in every index; {!find}, {!row_of_id}, {!iter},
    {!size} and {!merge_new} ignore it, and a reader of the raw table
    or indexes checks {!live_row}.  A key's newest row is its only live
    candidate: a tombstoned key can be inserted again (a new row with a
    fresh id), and a key never has two live rows.  {!delete_ids} and
    {!delete_where} tombstone and compact in one call — the batch
    pipeline's path, which never leaves dead rows behind. *)

(** [mark_deleted s id] tombstones fact [id] (a no-op unless it is
    live).  The physical row remains until {!flush_deletes}. *)
val mark_deleted : t -> int -> unit

(** [pending_deletes s] is the number of tombstoned, not-yet-compacted
    rows. *)
val pending_deletes : t -> int

(** [flush_deletes s] compacts all tombstoned rows out of the table and
    rebuilds the key index and the partial indexes — one rebuild for
    every pending tombstone (a no-op returning 0 when nothing is
    tombstoned).  Live rows keep their order and ids.  The compacted
    rows form a new {!table}: a table value taken before the compaction
    is left as it was, so a copy of it can tell it is stale by physical
    inequality.  Returns the number of rows removed. *)
val flush_deletes : t -> int

(** [delete_ids ?ban s ids] is {!mark_deleted} on every id followed by one
    {!flush_deletes}.  With [ban = true] (default [false]) the deleted
    keys are banned first, as {!ban_id} does. *)
val delete_ids : ?ban:bool -> t -> int list -> int

(** [delete_where ?ban s p] removes the facts whose row satisfies [p]
    (given the backing table and a row index) — implemented as one
    tombstone-and-flush batch, so it costs a single compaction + index
    rebuild regardless of how many rows match.  Fact identifiers are
    stable across deletions.  With [ban = true] (default [false]) the
    removed keys are remembered and {!merge_new} will never re-insert
    them: facts removed as constraint violations must not be re-derived by
    the next grounding iteration (paper, Section 5.1 — errors are removed
    "to avoid further propagation").  Returns the number of facts
    removed. *)
val delete_where : ?ban:bool -> t -> (Relational.Table.t -> int -> bool) -> int

(** [ban_id s id] bans the key of a {e live} fact without deleting it —
    used when a retraction must also block future re-derivation of
    specific facts (the DRed analogue of [delete_where ~ban], which bans
    every key it deletes; DRed bans only the explicitly retracted facts,
    not their overdeleted cone). *)
val ban_id : t -> int -> unit

(** [index_rebuilds s] counts key-index rebuilds caused by deletions —
    observable proof that a batch costs one rebuild. *)
val index_rebuilds : t -> int

(** [is_banned s ~r ~x ~c1 ~y ~c2] is [true] iff the key was banned. *)
val is_banned : t -> r:int -> x:int -> c1:int -> y:int -> c2:int -> bool

(** [iter f s] applies
    [f ~id ~r ~x ~c1 ~y ~c2 ~w] to every live fact, in row order. *)
val iter :
  (id:int -> r:int -> x:int -> c1:int -> y:int -> c2:int -> w:float -> unit) ->
  t -> unit

(** [row_of_id s id] is the current row index of fact [id], if it is
    live: a binary search over the id column, whose ids ascend along the
    rows (appends take them from {!next_id}; compaction keeps row order —
    checked after every compaction under [PROBKB_DEBUG]).  [None] for a
    tombstoned id. *)
val row_of_id : t -> int -> int option

(** [rows_from s id] is the rows of {!table} holding the facts with
    identifiers [>= id] — a suffix, since ids ascend along the rows —
    as a scan source over the table itself: nothing is copied.  Taken
    with [id] = {!next_id} before a batch of insertions, it holds exactly
    the batch's facts, less any deleted since once compaction has run
    (compaction keeps row order; a tombstoned row stays in it until
    then).  The source keeps the rows it covered when called: later
    appends, or a compaction's new {!table}, are not in it. *)
val rows_from : t -> int -> Relational.Pipeline.source

(** [copy s] is an independent deep copy.  The table is copied and the
    key index blitted onto the copy ({!Relational.Index.copy}), not
    rebuilt, and the dead-row flags copied, so {!find} on the copy
    answers exactly as on [s]; pending tombstones and banned keys carry
    over.  The partial-key indexes are
    rebuilt on the copy's first demand. *)
val copy : t -> t
