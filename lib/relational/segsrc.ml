(* A segmented scan source: the executor-facing face of a spilled table.

   [lib/storage] keeps tables as immutable on-disk column segments; the
   pipelined executor only needs, per segment, the row count and a way
   to stream the rows out as batches.  This record is that contract — it
   lives in [lib/relational] so {!Pipeline} can consume spilled tables
   without depending on the storage layer (and so tests can back a
   source with plain in-memory tables). *)

type seg = {
  rows : int;
  scan : capacity:int -> base_rid:int -> (Batch.t -> unit) -> int;
      (* stream the segment's rows, in order, as batches of at most
         [capacity] rows; row ids are [base_rid + local row index] so a
         segmented scan hands out the same rids as a scan of the
         unspilled table.  Returns the number of batches pushed; must be
         re-entrant (concurrent scans each call it with their own push). *)
}

type t = {
  name : string;
  cols : string array;
  weighted : bool;
  segs : seg array;
}

let rows t = Array.fold_left (fun acc s -> acc + s.rows) 0 t.segs

(* Materialize the whole source back into a table (the reference path:
   identity checks and the materializing executor). *)
let to_table t =
  let out = Table.create ~weighted:t.weighted ~name:t.name t.cols in
  Table.reserve out (rows t);
  let base = ref 0 in
  Array.iter
    (fun s ->
      ignore
        (s.scan ~capacity:Batch.default_capacity ~base_rid:!base (fun b ->
             for r = 0 to Batch.length b - 1 do
               Batch.append_row_to_table out b r
             done));
      base := !base + s.rows)
    t.segs;
  out
