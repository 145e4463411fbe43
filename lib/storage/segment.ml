(* One immutable on-disk column segment.

   A segment holds a fixed slice of a table's rows in columnar form: one
   compressed lane per integer column plus an optional raw weight lane.
   The header is versioned, checksummed and holds only what a scan
   decodes, so a reader can validate a file without touching the data
   pages; reads go through a [Bigarray] mmap ({!Unix.map_file}), so the
   header reads fault no data page in.

   Layout (all fixed-width fields little-endian 64-bit unless noted):

   {v
     0   magic       "pkbseg03"
     8   checksum    FNV-1a 64 over bytes [16, header_len)
     16  header_len
     24  file_len    expected total size (truncation check)
     32  nrows
     40  width       number of integer columns
     48  weighted    0 | 1
     56  first_row   the segment's first row within its store
     64  width x column entry (40 bytes each):
           mode (0=frame-of-reference, 1=dictionary),
           param (FOR base | dictionary length), code_width (1|2|4|8),
           dict_off (0 for FOR), lane_off
     ..  weight_off  0 when unweighted
   v}

   Column encodings, chosen per column by byte cost:
   - frame-of-reference: lane stores [v - base] at the smallest width
     covering the segment's value range;
   - sorted dictionary: the distinct values (ascending, 8 bytes each) at
     [dict_off], the lane stores indexes into it.

   Integer cells are OCaml ints (63-bit); encode/decode works modulo
   2^63, so extreme ranges still round-trip.  Weights are stored as the
   raw IEEE bits ({!Int64.bits_of_float}) — the NaN null survives. *)

module Table = Relational.Table
module Batch = Relational.Batch
module Segsrc = Relational.Segsrc

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt
let magic = "pkbseg03"

(* --- little-endian primitives --- *)

(* OCaml ints round-trip through their int64 image modulo 2^63: byte 7
   of the encoding is the sign-extended top, and [lor]-ing it back in at
   bit 56 restores bits 56..62 (bit 63 falls off the 63-bit int). *)
let put_i64 buf v =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr ((v asr (8 * i)) land 0xff))
  done

let bytes_set_i64 b off v =
  for i = 0 to 7 do
    Bytes.set b (off + i) (Char.chr ((v asr (8 * i)) land 0xff))
  done

type map = (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let get_i64 (a : map) off =
  let b i = Bigarray.Array1.unsafe_get a (off + i) in
  b 0
  lor (b 1 lsl 8)
  lor (b 2 lsl 16)
  lor (b 3 lsl 24)
  lor (b 4 lsl 32)
  lor (b 5 lsl 40)
  lor (b 6 lsl 48)
  lor (b 7 lsl 56)

(* Weight bits need all 64: decode through Int64. *)
let get_f64 (a : map) off =
  let b i = Int64.of_int (Bigarray.Array1.unsafe_get a (off + i)) in
  let bits = ref 0L in
  for i = 7 downto 0 do
    bits := Int64.logor (Int64.shift_left !bits 8) (b i)
  done;
  Int64.float_of_bits !bits

let put_f64 buf w =
  let bits = Int64.bits_of_float w in
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr
         (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xffL)))
  done

(* FNV-1a 64 over a byte range. *)
let fnv1a_bytes b off len =
  let h = ref 0xcbf29ce484222325L in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.get b i))))
        0x100000001b3L
  done;
  !h

(* --- encoding --- *)

(* Smallest lane width (bytes) holding the non-negative value [x]; [x]
   may have wrapped negative when the value range spans more than 62
   bits, which forces the full 8-byte lane. *)
let bytes_for x =
  if x < 0 then 8
  else if x <= 0xff then 1
  else if x <= 0xffff then 2
  else if x <= 0xffff_ffff then 4
  else 8

let add_packed buf w v =
  for i = 0 to w - 1 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

(* lower_bound over the sorted dictionary; values are guaranteed present. *)
let dict_code dict v =
  let lo = ref 0 and hi = ref (Array.length dict - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if dict.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

type col_entry = {
  mode : int; (* 0 = frame-of-reference, 1 = dictionary *)
  param : int; (* FOR base | dictionary length *)
  code_width : int;
  mutable dict_off : int;
  mutable lane_off : int;
}

let mode_for = 0
let mode_dict = 1

let entry_len = 40
let header_len ~width = 72 + (width * entry_len)

(* Byte offset of column [c]'s header entry. *)
let entry_off c = 64 + (c * entry_len)

let write ?(first_row = 0) ~path tbl ~lo ~hi =
  let n = hi - lo in
  if n <= 0 then invalid_arg "Segment.write: empty row range";
  if first_row < 0 then invalid_arg "Segment.write: negative first_row";
  let width = Table.width tbl in
  let weighted = Table.weighted tbl in
  let hlen = header_len ~width in
  let data = Buffer.create (n * width * 4) in
  (* Decide each column's encoding, then emit its lanes; offsets are
     absolute file positions (header precedes the data region). *)
  let entries =
    Array.init width (fun c ->
        let sorted = Array.init n (fun i -> Table.get tbl (lo + i) c) in
        Array.sort compare sorted;
        let ndv = ref 0 in
        Array.iteri
          (fun i v ->
            if i = 0 || sorted.(i - 1) <> v then begin
              sorted.(!ndv) <- v;
              incr ndv
            end)
          sorted;
        let ndv = !ndv in
        let dict = Array.sub sorted 0 ndv in
        let cmin = dict.(0) and cmax = dict.(ndv - 1) in
        let dw = bytes_for (ndv - 1) in
        let fw = bytes_for (cmax - cmin) in
        let dict_cost = (ndv * 8) + (n * dw) in
        let for_cost = n * fw in
        let e =
          if for_cost <= dict_cost then
            {
              mode = mode_for;
              param = cmin;
              code_width = fw;
              dict_off = 0;
              lane_off = 0;
            }
          else
            {
              mode = mode_dict;
              param = ndv;
              code_width = dw;
              dict_off = 0;
              lane_off = 0;
            }
        in
        if e.mode = mode_dict then begin
          e.dict_off <- hlen + Buffer.length data;
          Array.iter (fun v -> put_i64 data v) dict
        end;
        e.lane_off <- hlen + Buffer.length data;
        (if e.mode = mode_dict then
           for i = 0 to n - 1 do
             add_packed data e.code_width
               (dict_code dict (Table.get tbl (lo + i) c))
           done
         else
           for i = 0 to n - 1 do
             add_packed data e.code_width (Table.get tbl (lo + i) c - e.param)
           done);
        e)
  in
  let weight_off =
    if not weighted then 0
    else begin
      let off = hlen + Buffer.length data in
      for i = 0 to n - 1 do
        put_f64 data (Table.weight tbl (lo + i))
      done;
      off
    end
  in
  let file_len = hlen + Buffer.length data in
  let hdr = Bytes.make hlen '\000' in
  Bytes.blit_string magic 0 hdr 0 8;
  bytes_set_i64 hdr 16 hlen;
  bytes_set_i64 hdr 24 file_len;
  bytes_set_i64 hdr 32 n;
  bytes_set_i64 hdr 40 width;
  bytes_set_i64 hdr 48 (if weighted then 1 else 0);
  bytes_set_i64 hdr 56 first_row;
  Array.iteri
    (fun c e ->
      let o = entry_off c in
      bytes_set_i64 hdr o e.mode;
      bytes_set_i64 hdr (o + 8) e.param;
      bytes_set_i64 hdr (o + 16) e.code_width;
      bytes_set_i64 hdr (o + 24) e.dict_off;
      bytes_set_i64 hdr (o + 32) e.lane_off)
    entries;
  bytes_set_i64 hdr (entry_off width) weight_off;
  bytes_set_i64 hdr 8 (Int64.to_int (fnv1a_bytes hdr 16 (hlen - 16)));
  (* Atomic publish: a crash mid-write leaves only the tmp file; a
     reader never sees a half-written segment under its final name. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_bytes oc hdr;
      Buffer.output_buffer oc data);
  Sys.rename tmp path

(* --- reading --- *)

type t = {
  map : map;
  nrows : int;
  width : int;
  weighted : bool;
  first_row : int;
  entries : col_entry array;
  weight_off : int;
}

let fnv1a_map (a : map) off len =
  let h = ref 0xcbf29ce484222325L in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Bigarray.Array1.get a i)))
        0x100000001b3L
  done;
  !h

let openf path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let map, size =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let size = (Unix.fstat fd).Unix.st_size in
        if size < 64 then corrupt "%s: too small for a segment header" path;
        let g =
          Unix.map_file fd Bigarray.int8_unsigned Bigarray.c_layout false
            [| size |]
        in
        (Bigarray.array1_of_genarray g, size))
  in
  let magic_ok = ref true in
  String.iteri
    (fun i c -> if Bigarray.Array1.get map i <> Char.code c then magic_ok := false)
    magic;
  if not !magic_ok then corrupt "%s: bad magic (not a %s segment)" path magic;
  let hlen = get_i64 map 16 in
  if hlen < 64 || hlen > size then
    corrupt "%s: header length %d out of bounds (file %d)" path hlen size;
  let sum = Int64.to_int (fnv1a_map map 16 (hlen - 16)) in
  if sum <> get_i64 map 8 then
    corrupt "%s: header checksum mismatch (torn write?)" path;
  let file_len = get_i64 map 24 in
  if file_len <> size then
    corrupt "%s: truncated: header expects %d bytes, file has %d" path
      file_len size;
  let nrows = get_i64 map 32 in
  let width = get_i64 map 40 in
  let first_row = get_i64 map 56 in
  if nrows < 0 || width < 0 || first_row < 0 || hlen <> header_len ~width then
    corrupt "%s: inconsistent header (rows=%d width=%d first_row=%d)" path
      nrows width first_row;
  let weighted =
    match get_i64 map 48 with
    | 0 -> false
    | 1 -> true
    | v -> corrupt "%s: bad weighted flag %d" path v
  in
  let entries =
    Array.init width (fun c ->
        let o = entry_off c in
        let e =
          {
            mode = get_i64 map o;
            param = get_i64 map (o + 8);
            code_width = get_i64 map (o + 16);
            dict_off = get_i64 map (o + 24);
            lane_off = get_i64 map (o + 32);
          }
        in
        if e.mode <> mode_for && e.mode <> mode_dict then
          corrupt "%s: column %d: unknown encoding %d" path c e.mode;
        (match e.code_width with
        | 1 | 2 | 4 | 8 -> ()
        | w -> corrupt "%s: column %d: bad code width %d" path c w);
        if e.lane_off < hlen || e.lane_off + (nrows * e.code_width) > size
        then corrupt "%s: column %d: code lane out of bounds" path c;
        if
          e.mode = mode_dict
          && (e.dict_off < hlen || e.dict_off + (e.param * 8) > size)
        then corrupt "%s: column %d: dictionary out of bounds" path c;
        e)
  in
  let weight_off = get_i64 map (entry_off width) in
  if weighted && (weight_off < hlen || weight_off + (nrows * 8) > size) then
    corrupt "%s: weight lane out of bounds" path;
  {
    map;
    nrows;
    width;
    weighted;
    first_row;
    entries;
    weight_off;
  }

let rows t = t.nrows
let first_row t = t.first_row
let width t = t.width
let weighted t = t.weighted

let get_packed (a : map) off w =
  match w with
  | 1 -> Bigarray.Array1.unsafe_get a off
  | 2 -> Bigarray.Array1.unsafe_get a off lor (Bigarray.Array1.unsafe_get a (off + 1) lsl 8)
  | 4 ->
    Bigarray.Array1.unsafe_get a off
    lor (Bigarray.Array1.unsafe_get a (off + 1) lsl 8)
    lor (Bigarray.Array1.unsafe_get a (off + 2) lsl 16)
    lor (Bigarray.Array1.unsafe_get a (off + 3) lsl 24)
  | _ -> get_i64 a off

(* Cell accessors; decoding is modulo 2^63, matching the encoder. *)
let get t r c =
  let e = t.entries.(c) in
  let code = get_packed t.map (e.lane_off + (r * e.code_width)) e.code_width in
  if e.mode = mode_dict then get_i64 t.map (e.dict_off + (code * 8))
  else e.param + code

let weight t r =
  if not t.weighted then Table.null_weight
  else get_f64 t.map (t.weight_off + (r * 8))

let to_seg t =
  {
    Segsrc.rows = t.nrows;
    scan =
      (fun ~capacity ~base_rid push ->
        let b =
          Batch.create
            ~capacity:(max 1 (min capacity t.nrows))
            ~weighted:t.weighted t.width
        in
        let batches = ref 0 in
        for r = 0 to t.nrows - 1 do
          if Batch.is_full b then begin
            incr batches;
            push b;
            Batch.clear b
          end;
          let i = Batch.alloc_row b ~rid:(base_rid + r) in
          for c = 0 to t.width - 1 do
            Batch.set b i c (get t r c)
          done;
          if t.weighted then Batch.set_weight b i (weight t r)
        done;
        if not (Batch.is_empty b) then begin
          incr batches;
          push b
        end;
        !batches);
  }
