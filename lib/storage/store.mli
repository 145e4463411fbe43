(** A spilled table: a directory of column {!Segment}s plus a manifest.

    The manifest (text, written last, atomic tmp+rename) records the
    schema and the ordered segment list with each segment's row count.
    Each segment records its first row within the store, so segments
    listed out of order end in {!Corrupt}.  Stores are append-only at
    segment granularity: {!spill} writes every row of a table, the final
    partial segment included, and {!append} writes more rows as the
    segments after the stored ones, so nothing stays resident — the
    pn MPP executor's shards ([Mpp.Dtable.partition_spilled]). *)

type t

(** Alias of {!Segment.Corrupt}; also raised by {!open_dir} on a missing
    or malformed manifest. *)
exception Corrupt of string

val default_segment_rows : int

(** [spill ?segment_rows ~dir tbl] writes [tbl] as segments of
    [segment_rows] rows under [dir] (created if needed) and returns the
    open store. *)
val spill : ?segment_rows:int -> dir:string -> Relational.Table.t -> t

(** [append st tbl] writes every row of [tbl] (same width and weight
    lane as [st]) as the store's next rows — one more segment, or
    [segment_rows]-row slices of them, the last one partial — and returns
    the updated store.  Nothing stays resident.
    @raise Invalid_argument on a schema mismatch. *)
val append : t -> Relational.Table.t -> t

(** [open_dir dir] loads a store from its manifest and checks every
    listed segment's header against it — rows, width, weight lane and
    first row, which must be the rows listed before it; no data pages
    are touched.
    @raise Corrupt on malformed or version-mismatched manifests, and on
    segments that disagree with them. *)
val open_dir : string -> t

(** [source st] is the store as a segmented scan source.  Segments are
    opened afresh and checked as by {!open_dir}.
    @raise Corrupt when a segment disagrees with the manifest. *)
val source : t -> Relational.Segsrc.t

(** [remove st] deletes the store's segment files and MANIFEST, then its
    directory if nothing else is left in it; files already gone are
    skipped.  [st] must not be scanned afterwards. *)
val remove : t -> unit

(** [to_table st] materializes the stored rows back into memory. *)
val to_table : t -> Relational.Table.t

val name : t -> string
val cols : t -> string array
val weighted : t -> bool
val nsegments : t -> int

(** [rows st] counts the stored rows. *)
val rows : t -> int

(** Total on-disk bytes across segment files. *)
val byte_size : t -> int
