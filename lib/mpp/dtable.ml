module Table = Relational.Table
module Index = Relational.Index
module Store = Storage.Store
module Spill = Storage.Spill

type dist = Hash of int array | Replicated | Unknown

(* A shard is either resident or an on-disk segment store.  Spilled
   shards are materialized on demand ([seg]) — operators read them back
   through the mmap for exactly the duration of their local plan, so at
   most a worker's active shard is resident at a time; metadata
   questions (row counts, logical sizes, names) never touch data
   pages. *)
type backing = Resident of Table.t | Spilled of Store.t

type t = { segs : backing array; dist : dist }

let seg_of_row cluster key tbl r =
  Index.hash_row tbl key r mod cluster.Cluster.nseg

let partition cluster tbl dist =
  match dist with
  | Unknown -> invalid_arg "Dtable.partition: cannot partition to Unknown"
  | Replicated ->
    {
      segs =
        Array.init cluster.Cluster.nseg (fun _ -> Resident (Table.copy tbl));
      dist;
    }
  | Hash key ->
    let segs =
      Array.init cluster.Cluster.nseg (fun i ->
          let s =
            Table.create ~weighted:(Table.weighted tbl)
              ~name:(Printf.sprintf "%s@%d" (Table.name tbl) i)
              (Table.cols tbl)
          in
          (* Pre-size for a uniform spread; skewed segments still grow. *)
          Table.reserve s (Table.nrows tbl / cluster.Cluster.nseg);
          s)
    in
    Table.iter
      (fun r -> Table.append_from segs.(seg_of_row cluster key tbl r) tbl r)
      tbl;
    { segs = Array.map (fun s -> Resident s) segs; dist }

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
            Spilled
              (Store.spill
                 ~segment_rows:(Spill.segment_rows policy)
                 ~dir:(Spill.fresh_dir policy ~prefix) s)
          | Spilled _ as b -> b)
        dt.segs;
  }

let remove_spilled t =
  Array.iter (function Spilled st -> Store.remove st | Resident _ -> ()) t.segs

let of_segments segs dist = { segs = Array.map (fun s -> Resident s) segs; dist }
let dist t = t.dist
let nseg t = Array.length t.segs

let seg t i =
  match t.segs.(i) with Resident tbl -> tbl | Spilled st -> Store.to_table st

(* Row count without materializing spilled shards. *)
let seg_rows t i =
  match t.segs.(i) with
  | Resident tbl -> Table.nrows tbl
  | Spilled st -> Store.rows st

let spilled t i = match t.segs.(i) with Resident _ -> false | Spilled _ -> true

(* Logical (resident/on-wire) byte size of one shard — motion costs are
   charged on materialized rows, not on the compressed files. *)
let seg_bytes t i =
  match t.segs.(i) with
  | Resident tbl -> Table.byte_size tbl
  | Spilled st ->
    Store.rows st
    * ((8 * Array.length (Store.cols st)) + if Store.weighted st then 8 else 0)

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

let max_seg_rows t =
  let acc = ref 0 in
  for i = 0 to nseg t - 1 do
    acc := max !acc (seg_rows t i)
  done;
  !acc

let seg_meta t i =
  match t.segs.(i) with
  | Resident tbl -> (Table.name tbl, Table.cols tbl, Table.weighted tbl)
  | Spilled st -> (Store.name st, Store.cols st, Store.weighted st)

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
