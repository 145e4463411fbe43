(** One immutable on-disk column segment.

    A segment file holds a contiguous slice of a table's rows in
    columnar form: per integer column a compressed lane (sorted
    dictionary or frame-of-reference, whichever is smaller for that
    column) plus an optional raw weight lane storing IEEE bits (the NaN
    null weight survives).  The versioned header is checksummed
    (FNV-1a) and records the expected file length, the segment's first
    row within its store and each column's encoding, so readers can
    validate a file and check its place in a store without faulting in
    any data page.  Reads go through a {!Bigarray} mmap; writes are
    atomic (tmp + rename). *)

(** Raised by {!openf} on any validation failure: bad magic, checksum
    mismatch (torn header), length mismatch (truncation), out-of-bounds
    lanes. *)
exception Corrupt of string

val magic : string

(** [write ?first_row ~path tbl ~lo ~hi] writes rows [lo, hi)] of [tbl]
    (cells and, when weighted, weights) as a segment file at [path],
    atomically.  [first_row] (default 0) is the row the segment starts at
    within its store, recorded in the header.
    @raise Invalid_argument if the range is empty or [first_row < 0]. *)
val write :
  ?first_row:int -> path:string -> Relational.Table.t -> lo:int -> hi:int -> unit

(** An open (mmap'd, validated) segment. *)
type t

(** [openf path] maps and validates a segment file.
    @raise Corrupt on any structural or checksum failure. *)
val openf : string -> t

val rows : t -> int

(** [first_row t] is the row the segment starts at within its store. *)
val first_row : t -> int

val width : t -> int
val weighted : t -> bool

(** [get t r c] decodes one cell; [weight t r] one weight
    ({!Relational.Table.null_weight} when the segment is unweighted). *)
val get : t -> int -> int -> int

val weight : t -> int -> float

(** [to_seg t] is the segment as a {!Relational.Segsrc.seg}: scanned rows carry row
    ids [base_rid + local index]. *)
val to_seg : t -> Relational.Segsrc.seg
