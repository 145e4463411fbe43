(** A spilled table: a directory of column {!Segment}s plus a manifest.

    The manifest (text, written last, atomic tmp+rename) records the
    schema, the ordered segment list and the table-level {!Colstats}
    merged from the per-segment zone maps, so {!open_dir} never rescans
    data.  Each segment records its first row within the store, so
    segments listed out of order end in {!Corrupt}.  Stores are
    append-only at segment granularity: a full {!spill} also writes the
    final partial segment, and so does {!append}, while
    {!spill}[ ~tail:false], used by the grounding loop, writes whole
    segments only and leaves the tail resident — {!source}[ ~tail]
    stitches the stored prefix and the in-memory tail into one scan
    source whose row ids equal the backing table's row indices. *)

type t

(** Alias of {!Segment.Corrupt}; also raised by {!open_dir} on a missing
    or malformed manifest. *)
exception Corrupt of string

val default_segment_rows : int

(** [spill ?segment_rows ?tail ~dir tbl] writes [tbl] as segments of
    [segment_rows] rows under [dir] (created if needed) and returns the
    open store.  With [tail:false] the trailing partial segment is kept
    out (the caller keeps those rows resident and passes them to
    {!source}). *)
val spill :
  ?segment_rows:int -> ?tail:bool -> dir:string -> Relational.Table.t -> t

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

(** [source ?tail st] is the store as a segmented scan source.  [tail]
    supplies the resident rows beyond the stored prefix (its row indices
    [>= rows st] become one extra segment).  Segments are opened afresh
    and checked as by {!open_dir}.
    @raise Corrupt when a segment disagrees with the manifest. *)
val source : ?tail:Relational.Table.t -> t -> Relational.Segsrc.t

(** [remove st] deletes the store's segment files and MANIFEST, then its
    directory if nothing else is left in it; files already gone are
    skipped.  [st] must not be scanned afterwards. *)
val remove : t -> unit

(** [to_table st] materializes the stored rows back into memory. *)
val to_table : t -> Relational.Table.t

val dir : t -> string
val name : t -> string
val cols : t -> string array
val weighted : t -> bool

(** Table-level statistics over the stored rows (persisted; merged from
    segment headers). *)
val stats : t -> Relational.Colstats.t

val nsegments : t -> int

(** [rows st] counts the stored rows (excludes any resident tail). *)
val rows : t -> int

(** Total on-disk bytes across segment files. *)
val byte_size : t -> int
