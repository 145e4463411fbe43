(** Spill policy: where the pn MPP executor's shard stores live and when
    a fact table's shards go there.

    One value is shared by an engine run; {!fresh_dir} allocates
    distinct store directories atomically, so concurrent spills from
    worker domains cannot collide. *)

type t

val default_segment_rows : int

(** 64 MiB. *)
val default_threshold_bytes : int

val create :
  ?segment_rows:int -> ?threshold_bytes:int -> root:string -> unit -> t

val root : t -> string
val segment_rows : t -> int
val threshold_bytes : t -> int

(** [should_spill t tbl] is [true] when [tbl]'s in-memory footprint has
    reached the threshold. *)
val should_spill : t -> Relational.Table.t -> bool

(** [fresh_dir t ~prefix] is a new unique directory path under the root
    (not yet created — {!Store.spill} creates it). *)
val fresh_dir : t -> prefix:string -> string
