module Table = Relational.Table
module Index = Relational.Index
module Pipeline = Relational.Pipeline
module Segsrc = Relational.Segsrc
module Store = Storage.Store
module Spill = Storage.Spill

type dist = Hash of int array | Replicated | Unknown

(* A shard is either resident or an on-disk segment store, kept with its
   opened scan source.  Joins probe a spilled shard through that source
   ([source]), streaming its mmap'd segments; only motions and build
   sides materialize it ([seg]).  Metadata questions (row counts,
   logical sizes, names) never touch data pages. *)
type backing =
  | Resident of Table.t
  | Spilled of { store : Store.t; src : Segsrc.t }

type t = { segs : backing array; dist : dist }

let spilled_backing store = Spilled { store; src = Store.source store }

(* Rows [from, nrows tbl) of [tbl] split into [nseg] resident pieces by
   hash of [key], each in [tbl]'s row order. *)
let split nseg tbl key ~from =
  let segs =
    Array.init nseg (fun i ->
        let s =
          Table.create ~weighted:(Table.weighted tbl)
            ~name:(Printf.sprintf "%s@%d" (Table.name tbl) i)
            (Table.cols tbl)
        in
        (* Pre-size for a uniform spread; skewed segments still grow. *)
        Table.reserve s ((Table.nrows tbl - from) / nseg);
        s)
  in
  for r = from to Table.nrows tbl - 1 do
    Table.append_from segs.(Index.hash_row tbl key r mod nseg) tbl r
  done;
  segs

let partition ?(from = 0) cluster tbl dist =
  let nseg = cluster.Cluster.nseg in
  match dist with
  | Unknown -> invalid_arg "Dtable.partition: cannot partition to Unknown"
  | Replicated ->
    (* Every segment reads the one table: it is never written after
       partitioning. *)
    if from <> 0 then invalid_arg "Dtable.partition: ~from on Replicated";
    { segs = Array.make nseg (Resident tbl); dist }
  | Hash key ->
    { segs = Array.map (fun s -> Resident s) (split nseg tbl key ~from); dist }

(* Hash-partition and immediately flush every shard to its own segment
   store under the spill policy's root — the resident copies are dropped
   as each shard is written, so the distributed table holds only
   metadata afterwards. *)
let partition_spilled policy ~prefix cluster tbl dist =
  let dt = partition cluster tbl dist in
  {
    dt with
    segs =
      Array.map
        (function
          | Resident s ->
            spilled_backing
              (Store.spill
                 ~segment_rows:(Spill.segment_rows policy)
                 ~dir:(Spill.fresh_dir policy ~prefix) s)
          | Spilled _ as b -> b)
        dt.segs;
  }

let append t tbl ~from =
  match t.dist with
  | Replicated | Unknown -> invalid_arg "Dtable.append: not hash-distributed"
  | Hash key ->
    Array.iteri
      (fun i piece ->
        if Table.nrows piece > 0 then
          match t.segs.(i) with
          | Resident s -> Table.append_all s piece
          | Spilled { store; _ } ->
            t.segs.(i) <- spilled_backing (Store.append store piece))
      (split (Array.length t.segs) tbl key ~from)

let remove_spilled t =
  Array.iter
    (function Spilled { store; _ } -> Store.remove store | Resident _ -> ())
    t.segs

let of_segments segs dist = { segs = Array.map (fun s -> Resident s) segs; dist }
let dist t = t.dist
let nseg t = Array.length t.segs

let seg t i =
  match t.segs.(i) with
  | Resident tbl -> tbl
  | Spilled { src; _ } -> Segsrc.to_table src

let source t i =
  match t.segs.(i) with
  | Resident tbl -> Pipeline.of_table tbl
  | Spilled { src; _ } -> Pipeline.Segments src

(* Row count without materializing spilled shards. *)
let seg_rows t i =
  match t.segs.(i) with
  | Resident tbl -> Table.nrows tbl
  | Spilled { store; _ } -> Store.rows store

let spilled t i = match t.segs.(i) with Resident _ -> false | Spilled _ -> true

(* Logical (resident/on-wire) byte size of one shard — motion costs are
   charged on materialized rows, not on the compressed files. *)
let seg_bytes t i =
  match t.segs.(i) with
  | Resident tbl -> Table.byte_size tbl
  | Spilled { store; _ } ->
    Store.rows store
    * ((8 * Array.length (Store.cols store))
      + if Store.weighted store then 8 else 0)

let nrows t =
  match t.dist with
  | Replicated -> seg_rows t 0
  | Hash _ | Unknown ->
    let acc = ref 0 in
    for i = 0 to nseg t - 1 do
      acc := !acc + seg_rows t i
    done;
    !acc

let byte_size t =
  match t.dist with
  | Replicated -> seg_bytes t 0
  | Hash _ | Unknown ->
    let acc = ref 0 in
    for i = 0 to nseg t - 1 do
      acc := !acc + seg_bytes t i
    done;
    !acc

let seg_meta t i =
  match t.segs.(i) with
  | Resident tbl -> (Table.name tbl, Table.cols tbl, Table.weighted tbl)
  | Spilled { store; _ } ->
    (Store.name store, Store.cols store, Store.weighted store)

let gather t =
  match t.dist with
  | Replicated -> seg t 0
  | Hash _ | Unknown ->
    let name, cols, weighted = seg_meta t 0 in
    let out = Table.create ~weighted ~name cols in
    Table.reserve out (nrows t);
    for i = 0 to nseg t - 1 do
      Table.append_all out (seg t i)
    done;
    out

let name t =
  let n, _, _ = seg_meta t 0 in
  n
