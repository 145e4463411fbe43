(* A spilled table: a directory of column segments plus a MANIFEST.

   The manifest is a small text file naming the schema, the segment
   files in scan order, and the table-level column statistics (merged
   from the per-segment zone maps so reopening a store never rescans
   data).  It is written last, atomically — a crash mid-spill leaves at
   worst orphaned segment files, never a manifest pointing at missing
   or half-written segments.

   Each segment records its first row within the store, so a manifest
   whose [seg] lines are out of order (two of equal row counts swapped,
   say) is [Corrupt] rather than a store that reads rows out of order.

   Three usage modes share the format:
   - a full spill ([spill]) writes every row, including a final partial
     segment — a static on-disk copy of the table;
   - an incremental store ([sync], used by the grounding loop) appends
     only whole segments as the backing table grows and leaves the tail
     resident; [source ~tail] stitches the stored prefix and the
     in-memory tail into one {!Segsrc.t} whose row ids equal the
     backing table's row indices;
   - an append-only store ([append], an MPP shard) takes every row it is
     given, partial last segment included, so none stays resident. *)

module Table = Relational.Table
module Colstats = Relational.Colstats
module Segsrc = Relational.Segsrc

let manifest_magic = "pkbstore"
let format_version = 1
let manifest_name = "MANIFEST"
let default_segment_rows = 65536

type t = {
  dir : string;
  name : string;
  cols : string array;
  weighted : bool;
  segment_rows : int;
  stats : Colstats.t; (* over the stored rows only *)
  seg_files : string array;
  seg_rows : int array;
}

let dir t = t.dir
let name t = t.name
let cols t = t.cols
let weighted t = t.weighted
let stats t = t.stats
let nsegments t = Array.length t.seg_files
let rows t = Array.fold_left ( + ) 0 t.seg_rows

let byte_size t =
  Array.fold_left
    (fun acc f ->
      acc + try (Unix.stat (Filename.concat t.dir f)).Unix.st_size with _ -> 0)
    0 t.seg_files

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Table-level statistics merged from per-segment zone maps: min/max are
   exact, ndv is the capped sum (an overestimate — good enough for the
   planner, and it avoids keeping any per-value state). *)
let merge_stats ~width segs =
  let rows = ref 0 in
  let ndv = Array.make width 0 in
  let mins = Array.make width max_int in
  let maxs = Array.make width min_int in
  List.iter
    (fun (n, sndv, smins, smaxs) ->
      rows := !rows + n;
      for c = 0 to width - 1 do
        ndv.(c) <- ndv.(c) + sndv.(c);
        if smins.(c) < mins.(c) then mins.(c) <- smins.(c);
        if smaxs.(c) > maxs.(c) then maxs.(c) <- smaxs.(c)
      done)
    segs;
  let rows = !rows in
  Array.iteri (fun c d -> ndv.(c) <- min rows d) ndv;
  Colstats.of_parts ~rows ~ndv ~mins ~maxs

let ints_line tag vals =
  tag ^ " " ^ String.concat " " (Array.to_list (Array.map string_of_int vals))

let write_manifest st =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "%s %d" manifest_magic format_version;
  line "name %s" st.name;
  line "weighted %d" (if st.weighted then 1 else 0);
  line "segment_rows %d" st.segment_rows;
  line "width %d" (Array.length st.cols);
  Array.iter (fun c -> line "col %s" c) st.cols;
  line "rows %d" (rows st);
  line "%s"
    (ints_line "ndv" (Array.init (Array.length st.cols) (Colstats.ndv st.stats)));
  line "%s"
    (ints_line "mins"
       (Array.map
          (fun c -> Option.value ~default:0 (Colstats.min_value st.stats c))
          (Array.init (Array.length st.cols) Fun.id)));
  line "%s"
    (ints_line "maxs"
       (Array.map
          (fun c -> Option.value ~default:0 (Colstats.max_value st.stats c))
          (Array.init (Array.length st.cols) Fun.id)));
  line "segments %d" (Array.length st.seg_files);
  Array.iteri (fun i f -> line "seg %s %d" f st.seg_rows.(i)) st.seg_files;
  line "end";
  let path = Filename.concat st.dir manifest_name in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Buffer.output_buffer oc buf);
  Sys.rename tmp path

let seg_file i = Printf.sprintf "seg-%06d.pkb" i

let check_schema tbl =
  Array.iter
    (fun c ->
      String.iter
        (fun ch ->
          if ch = ' ' || ch = '\n' || ch = '\t' then
            invalid_arg
              (Printf.sprintf "Store: column name %S not storable" c))
        c)
    (Table.cols tbl)

(* Write segments for rows [from, upto) in [segment_rows] slices; the
   last slice may be partial.  Row [from] becomes the store's row
   [first_row].  Returns the new (file, rows, stats parts) list in
   order. *)
let write_segments ~dir ~segment_rows ~first_idx ~first_row tbl ~from ~upto =
  let obs = Obs.ambient () in
  let out = ref [] in
  let idx = ref first_idx in
  let lo = ref from in
  while !lo < upto do
    let hi = min upto (!lo + segment_rows) in
    let file = seg_file !idx in
    let path = Filename.concat dir file in
    Segment.write ~first_row:(first_row + !lo - from) ~path tbl ~lo:!lo ~hi;
    let seg = Segment.openf path in
    if Obs.enabled obs then begin
      Obs.incr obs "storage.segments_written";
      Obs.add obs "storage.bytes_written" (Segment.byte_size seg)
    end;
    out :=
      (file, hi - !lo, (hi - !lo, Segment.ndv seg, Segment.mins seg, Segment.maxs seg))
      :: !out;
    incr idx;
    lo := hi
  done;
  List.rev !out

(* A store over the segment [files] (name, rows), in scan order, whose
   table statistics merge [parts]; its manifest is written before it is
   returned. *)
let make ~dir ~name ~cols ~weighted ~segment_rows ~parts files =
  let st =
    {
      dir;
      name;
      cols;
      weighted;
      segment_rows;
      stats = merge_stats ~width:(Array.length cols) parts;
      seg_files = Array.of_list (List.map fst files);
      seg_rows = Array.of_list (List.map snd files);
    }
  in
  write_manifest st;
  st

let spill ?(segment_rows = default_segment_rows) ?(tail = true) ~dir tbl =
  if segment_rows < 1 then invalid_arg "Store.spill: segment_rows < 1";
  check_schema tbl;
  mkdir_p dir;
  let n = Table.nrows tbl in
  let upto =
    if tail then n else n - (n mod segment_rows) (* whole segments only *)
  in
  let segs =
    write_segments ~dir ~segment_rows ~first_idx:0 ~first_row:0 tbl ~from:0
      ~upto
  in
  make ~dir ~name:(Table.name tbl) ~cols:(Table.cols tbl)
    ~weighted:(Table.weighted tbl) ~segment_rows
    ~parts:(List.map (fun (_, _, p) -> p) segs)
    (List.map (fun (f, n, _) -> (f, n)) segs)

(* The stored rows' statistics as one merge part.  Merging it with new
   segments' parts gives the statistics of all their parts merged: min
   and max are exact, and a segment's ndv never exceeds its rows, so the
   capped ndv sum is a plain sum. *)
let stats_part st =
  let width = Array.length st.cols in
  ( rows st,
    Array.init width (Colstats.ndv st.stats),
    Array.init width (fun c ->
        Option.value ~default:max_int (Colstats.min_value st.stats c)),
    Array.init width (fun c ->
        Option.value ~default:min_int (Colstats.max_value st.stats c)) )

(* Rows [from, upto) of [tbl] become the store's next rows, as new
   segments after the stored ones; the stored prefix is immutable. *)
let extend st tbl ~from ~upto =
  let fresh =
    write_segments ~dir:st.dir ~segment_rows:st.segment_rows
      ~first_idx:(Array.length st.seg_files) ~first_row:(rows st) tbl ~from
      ~upto
  in
  make ~dir:st.dir ~name:st.name ~cols:st.cols ~weighted:st.weighted
    ~segment_rows:st.segment_rows
    ~parts:(stats_part st :: List.map (fun (_, _, p) -> p) fresh)
    (Array.to_list (Array.map2 (fun f n -> (f, n)) st.seg_files st.seg_rows)
    @ List.map (fun (f, n, _) -> (f, n)) fresh)

(* Append whole segments for rows the backing table gained since the
   store was written.  [tbl] must be the same logical table, only
   grown. *)
let append st tbl =
  if
    Table.width tbl <> Array.length st.cols
    || Table.weighted tbl <> st.weighted
  then invalid_arg "Store.append: schema mismatch";
  if Table.nrows tbl = 0 then st
  else extend st tbl ~from:0 ~upto:(Table.nrows tbl)

(* Only the store's own files go: a directory that holds anything else
   is kept. *)
let remove st =
  let rm f =
    try Sys.remove (Filename.concat st.dir f) with Sys_error _ -> ()
  in
  Array.iter rm st.seg_files;
  rm manifest_name;
  try Sys.rmdir st.dir with Sys_error _ -> ()

(* --- manifest parsing --- *)

exception Corrupt = Segment.Corrupt

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* The segments of [st], opened and checked against its manifest: each
   one's rows, width and weight lane, and its first row, which must be
   the rows of the segments before it. *)
let open_segments st =
  let first = ref 0 in
  Array.mapi
    (fun i f ->
      let seg = Segment.openf (Filename.concat st.dir f) in
      if
        Segment.rows seg <> st.seg_rows.(i)
        || Segment.width seg <> Array.length st.cols
        || Segment.weighted seg <> st.weighted
      then corrupt "%s: segment %S does not match the manifest" st.dir f;
      if Segment.first_row seg <> !first then
        corrupt "%s: segment %S starts at row %d, not %d (out of order)"
          st.dir f (Segment.first_row seg) !first;
      first := !first + st.seg_rows.(i);
      seg)
    st.seg_files

let open_dir dir =
  let path = Filename.concat dir manifest_name in
  let ic =
    try open_in_bin path
    with Sys_error _ -> corrupt "%s: no %s (not a segment store)" dir manifest_name
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let next () =
        match input_line ic with
        | l -> l
        | exception End_of_file -> corrupt "%s: truncated manifest" path
      in
      let fields l = String.split_on_char ' ' l in
      let expect_tag tag l =
        match fields l with
        | t :: rest when t = tag -> rest
        | _ -> corrupt "%s: expected %S, got %S" path tag l
      in
      let int_of s =
        match int_of_string_opt s with
        | Some v -> v
        | None -> corrupt "%s: bad integer %S" path s
      in
      let one_int tag l =
        match expect_tag tag l with
        | [ v ] -> int_of v
        | _ -> corrupt "%s: malformed %S line" path tag
      in
      (match fields (next ()) with
      | [ m; v ] when m = manifest_magic ->
        let v = int_of v in
        if v <> format_version then
          corrupt "%s: unsupported store format version %d (this reader is %d)"
            path v format_version
      | _ -> corrupt "%s: bad manifest magic" path);
      let name =
        match expect_tag "name" (next ()) with
        | [ n ] -> n
        | _ -> corrupt "%s: malformed name line" path
      in
      (* A count read from the file never sizes an allocation: [lines]
         reads one line per element, so a huge count ends in a truncated
         manifest. *)
      let count tag =
        let n = one_int tag (next ()) in
        if n < 0 then corrupt "%s: negative %s %d" path tag n;
        n
      in
      let lines n f =
        let rec go acc k =
          if k = 0 then Array.of_list (List.rev acc)
          else go (f () :: acc) (k - 1)
        in
        go [] n
      in
      let weighted = one_int "weighted" (next ()) <> 0 in
      let segment_rows = one_int "segment_rows" (next ()) in
      if segment_rows < 1 then
        corrupt "%s: segment_rows %d < 1" path segment_rows;
      let width = count "width" in
      let cols =
        lines width (fun () ->
            match expect_tag "col" (next ()) with
            | [ c ] -> c
            | _ -> corrupt "%s: malformed col line" path)
      in
      let stored_rows = one_int "rows" (next ()) in
      let int_array tag l =
        let vs = Array.of_list (List.map int_of (expect_tag tag l)) in
        if Array.length vs <> width && not (width = 0 && vs = [| 0 |]) then
          corrupt "%s: %S arity mismatch" path tag;
        Array.sub vs 0 width
      in
      (* [ints_line] over an empty array still emits one empty field. *)
      let int_array tag l =
        if width = 0 then ( ignore (expect_tag tag l); [||]) else int_array tag l
      in
      let ndv = int_array "ndv" (next ()) in
      let mins = int_array "mins" (next ()) in
      let maxs = int_array "maxs" (next ()) in
      let segs =
        lines (count "segments") (fun () ->
            match expect_tag "seg" (next ()) with
            | [ f; n ] ->
              (match (Unix.stat (Filename.concat dir f)).Unix.st_kind with
              | Unix.S_REG -> ()
              | _ | (exception Unix.Unix_error _) ->
                corrupt "%s: no segment file %S" path f);
              let n = int_of n in
              if n < 1 then corrupt "%s: segment %S holds %d rows" path f n;
              (f, n)
            | _ -> corrupt "%s: malformed seg line" path)
      in
      let seg_files = Array.map fst segs and seg_rows = Array.map snd segs in
      (match next () with
      | "end" -> ()
      | l -> corrupt "%s: expected end, got %S" path l);
      let total = Array.fold_left ( + ) 0 seg_rows in
      if total <> stored_rows then
        corrupt "%s: row count mismatch (%d listed vs %d summed)" path
          stored_rows total;
      let st =
        {
          dir;
          name;
          cols;
          weighted;
          segment_rows;
          stats = Colstats.of_parts ~rows:stored_rows ~ndv ~mins ~maxs;
          seg_files;
          seg_rows;
        }
      in
      ignore (open_segments st);
      st)

(* --- scan sources --- *)

let tail_stats st tail stored =
  let n = Table.nrows tail in
  if n <= stored then st.stats
  else begin
    let seg = Segsrc.seg_of_table ~lo:stored tail in
    merge_stats ~width:(Array.length st.cols)
      [
        stats_part st;
        ( seg.Segsrc.rows,
          Array.make (Array.length st.cols) seg.Segsrc.rows,
          seg.Segsrc.mins,
          seg.Segsrc.maxs );
      ]
  end

let source ?tail st =
  let disk = Array.map Segment.to_seg (open_segments st) in
  let stored = rows st in
  let segs, stats =
    match tail with
    | None -> (disk, st.stats)
    | Some tbl ->
      if Table.nrows tbl < stored then
        invalid_arg "Store.source: tail table shorter than the stored prefix";
      if Table.nrows tbl = stored then (disk, st.stats)
      else
        ( Array.append disk [| Segsrc.seg_of_table ~lo:stored tbl |],
          tail_stats st tbl stored )
  in
  { Segsrc.name = st.name; cols = st.cols; weighted = st.weighted; stats; segs }

let to_table st = Segsrc.to_table (source st)
