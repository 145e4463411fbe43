(** Segmented scan sources: spilled tables as the executor sees them.

    A source is an ordered array of immutable segments, each knowing its
    row count and how to stream its rows out as {!Batch.t} chunks.  The
    storage layer ([lib/storage]) builds these over mmap'd column-segment
    files and {!Pipeline.run} streams them in order.  Row ids handed out
    by a segmented scan equal the row indices of the unspilled table, so
    downstream residual predicates behave identically. *)

type seg = {
  rows : int;
  scan : capacity:int -> base_rid:int -> (Batch.t -> unit) -> int;
      (** [scan ~capacity ~base_rid push] streams the segment's rows in
          order as batches of at most [capacity] rows, with row ids
          [base_rid + local index]; returns the number of batches
          pushed.  Must be re-entrant. *)
}

type t = {
  name : string;
  cols : string array;
  weighted : bool;
  segs : seg array;
}

(** [rows t] is the total row count over all segments. *)
val rows : t -> int

(** [to_table t] materializes the source back into an in-memory table
    (identity checks; the materializing executor). *)
val to_table : t -> Table.t
