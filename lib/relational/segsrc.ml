(* A segmented scan source: the executor-facing face of a spilled table.

   [lib/storage] keeps tables as immutable on-disk column segments; the
   pipelined executor only needs, per segment, the row count, the
   per-column zone maps and a way to stream the rows out as batches.
   This record is that contract — it lives in [lib/relational] so
   {!Pipeline} can consume spilled tables without depending on the
   storage layer (and so tests can back a source with plain in-memory
   tables). *)

type seg = {
  rows : int;
  mins : int array;  (* per-column minima; [[||]] when [rows = 0] *)
  maxs : int array;  (* per-column maxima; [[||]] when [rows = 0] *)
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
  stats : Colstats.t;  (* table-level statistics, persisted with the store *)
  segs : seg array;
}

let rows t = Array.fold_left (fun acc s -> acc + s.rows) 0 t.segs

(* An in-memory table wrapped as a single-segment source: the test
   double for spilled stores, and the tail of a partially spilled table
   (rows not yet flushed into full segments). *)
let seg_of_table ?(lo = 0) ?hi tbl =
  let hi = match hi with Some h -> h | None -> Table.nrows tbl in
  let n = max 0 (hi - lo) in
  let width = Table.width tbl in
  let mins = Array.make (if n = 0 then 0 else width) max_int in
  let maxs = Array.make (if n = 0 then 0 else width) min_int in
  for r = lo to hi - 1 do
    for c = 0 to width - 1 do
      let v = Table.get tbl r c in
      if v < mins.(c) then mins.(c) <- v;
      if v > maxs.(c) then maxs.(c) <- v
    done
  done;
  let scan ~capacity ~base_rid push =
    ignore base_rid;
    (* rids from an in-memory segment are the table's own row indices —
       [base_rid] is implied by [lo]. *)
    let b =
      Batch.create
        ~capacity:(max 1 (min capacity n))
        ~weighted:(Table.weighted tbl) width
    in
    let batches = ref 0 in
    for r = lo to hi - 1 do
      if Batch.is_full b then begin
        incr batches;
        push b;
        Batch.clear b
      end;
      Batch.push_from_table b tbl r
    done;
    if not (Batch.is_empty b) then begin
      incr batches;
      push b
    end;
    !batches
  in
  { rows = n; mins; maxs; scan }

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
