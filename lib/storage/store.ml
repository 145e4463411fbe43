(* A spilled table: a directory of column segments plus a MANIFEST.

   The manifest is a small text file naming the schema and the segment
   files in scan order with their row counts.  It is written last,
   atomically — a crash mid-spill leaves at worst orphaned segment
   files, never a manifest pointing at missing or half-written
   segments.

   Each segment records its first row within the store, so a manifest
   whose [seg] lines are out of order (two of equal row counts swapped,
   say) is [Corrupt] rather than a store that reads rows out of order.

   Two usage modes share the format:
   - a full spill ([spill]) writes every row, including a final partial
     segment — a static on-disk copy of the table;
   - an append-only store ([append], an MPP shard) takes every row it is
     given as segments after the stored ones, partial last segment
     included, so none stays resident. *)

module Table = Relational.Table
module Segsrc = Relational.Segsrc

let manifest_magic = "pkbstore"
let format_version = 2
let manifest_name = "MANIFEST"
let default_segment_rows = 65536

type t = {
  dir : string;
  name : string;
  cols : string array;
  weighted : bool;
  segment_rows : int;
  seg_files : string array;
  seg_rows : int array;
}

let name t = t.name
let cols t = t.cols
let weighted t = t.weighted
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

(* Write every row of [tbl] as segments of [segment_rows] rows, the last
   one possibly partial, numbered from [first_idx]; row 0 becomes the
   store's row [first_row].  Returns the new (file, rows) list in
   order. *)
let write_segments ~dir ~segment_rows ~first_idx ~first_row tbl =
  let obs = Obs.ambient () in
  let n = Table.nrows tbl in
  List.init
    ((n + segment_rows - 1) / segment_rows)
    (fun i ->
      let lo = i * segment_rows in
      let hi = min n (lo + segment_rows) in
      let file = seg_file (first_idx + i) in
      let path = Filename.concat dir file in
      Segment.write ~first_row:(first_row + lo) ~path tbl ~lo ~hi;
      if Obs.enabled obs then begin
        Obs.incr obs "storage.segments_written";
        Obs.add obs "storage.bytes_written" (Unix.stat path).Unix.st_size
      end;
      (file, hi - lo))

(* A store over the segment [files] (name, rows), in scan order; its
   manifest is written before it is returned. *)
let make ~dir ~name ~cols ~weighted ~segment_rows files =
  let st =
    {
      dir;
      name;
      cols;
      weighted;
      segment_rows;
      seg_files = Array.of_list (List.map fst files);
      seg_rows = Array.of_list (List.map snd files);
    }
  in
  write_manifest st;
  st

let spill ?(segment_rows = default_segment_rows) ~dir tbl =
  if segment_rows < 1 then invalid_arg "Store.spill: segment_rows < 1";
  check_schema tbl;
  mkdir_p dir;
  make ~dir ~name:(Table.name tbl) ~cols:(Table.cols tbl)
    ~weighted:(Table.weighted tbl) ~segment_rows
    (write_segments ~dir ~segment_rows ~first_idx:0 ~first_row:0 tbl)

(* Every row of [tbl] becomes the store's next rows, as new segments
   after the stored ones; the stored prefix is immutable. *)
let append st tbl =
  if
    Table.width tbl <> Array.length st.cols
    || Table.weighted tbl <> st.weighted
  then invalid_arg "Store.append: schema mismatch";
  if Table.nrows tbl = 0 then st
  else
    let fresh =
      write_segments ~dir:st.dir ~segment_rows:st.segment_rows
        ~first_idx:(Array.length st.seg_files) ~first_row:(rows st) tbl
    in
    make ~dir:st.dir ~name:st.name ~cols:st.cols ~weighted:st.weighted
      ~segment_rows:st.segment_rows
      (Array.to_list (Array.map2 (fun f n -> (f, n)) st.seg_files st.seg_rows)
      @ fresh)

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
        { dir; name; cols; weighted; segment_rows; seg_files; seg_rows }
      in
      ignore (open_segments st);
      st)

(* --- scan sources --- *)

let source st =
  {
    Segsrc.name = st.name;
    cols = st.cols;
    weighted = st.weighted;
    segs = Array.map Segment.to_seg (open_segments st);
  }

let to_table st = Segsrc.to_table (source st)
