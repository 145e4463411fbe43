type t = {
  name : string;
  cols : string array;
  width : int;
  weighted : bool;
  mutable nrows : int;
  mutable cells : int array;
  mutable wts : float array;
}

let null_weight = nan
let is_null_weight w = Float.is_nan w

let create ?(weighted = false) ~name cols =
  let width = Array.length cols in
  {
    name;
    cols;
    width;
    weighted;
    nrows = 0;
    cells = Array.make (16 * max 1 width) 0;
    wts = (if weighted then Array.make 16 null_weight else [||]);
  }

let name t = t.name
let cols t = t.cols
let width t = t.width
let weighted t = t.weighted
let nrows t = t.nrows

let col_index t c =
  let rec find i =
    if i >= t.width then raise Not_found
    else if String.equal t.cols.(i) c then i
    else find (i + 1)
  in
  find 0

let ensure t extra =
  let needed = (t.nrows + extra) * t.width in
  if needed > Array.length t.cells then begin
    let cap = ref (max 16 (Array.length t.cells)) in
    while !cap < needed do
      cap := 2 * !cap
    done;
    let cells = Array.make !cap 0 in
    Array.blit t.cells 0 cells 0 (t.nrows * t.width);
    t.cells <- cells
  end;
  if t.weighted && t.nrows + extra > Array.length t.wts then begin
    let cap = ref (max 16 (Array.length t.wts)) in
    while !cap < t.nrows + extra do
      cap := 2 * !cap
    done;
    let wts = Array.make !cap null_weight in
    Array.blit t.wts 0 wts 0 t.nrows;
    t.wts <- wts
  end

let reserve t n = if n > 0 then ensure t n

let append t row =
  if Array.length row <> t.width then invalid_arg "Table.append: width";
  ensure t 1;
  Array.blit row 0 t.cells (t.nrows * t.width) t.width;
  if t.weighted then t.wts.(t.nrows) <- null_weight;
  t.nrows <- t.nrows + 1

let append_w t row w =
  if not t.weighted then invalid_arg "Table.append_w: table not weighted";
  if Array.length row <> t.width then invalid_arg "Table.append_w: width";
  ensure t 1;
  Array.blit row 0 t.cells (t.nrows * t.width) t.width;
  t.wts.(t.nrows) <- w;
  t.nrows <- t.nrows + 1

let append_from dst src r =
  if src.width <> dst.width then invalid_arg "Table.append_from: width";
  ensure dst 1;
  Array.blit src.cells (r * src.width) dst.cells (dst.nrows * dst.width)
    dst.width;
  if dst.weighted then
    dst.wts.(dst.nrows) <-
      (if src.weighted then src.wts.(r) else null_weight);
  dst.nrows <- dst.nrows + 1

let get t r c = t.cells.((r * t.width) + c)
let set t r c v = t.cells.((r * t.width) + c) <- v

let weight t r =
  if not t.weighted then invalid_arg "Table.weight: table not weighted";
  t.wts.(r)

let set_weight t r w =
  if not t.weighted then invalid_arg "Table.set_weight: not weighted";
  t.wts.(r) <- w

let read_row t r buf = Array.blit t.cells (r * t.width) buf 0 t.width
let blit_row t r buf off = Array.blit t.cells (r * t.width) buf off t.width

let append_slice t src off =
  ensure t 1;
  Array.blit src off t.cells (t.nrows * t.width) t.width;
  if t.weighted then t.wts.(t.nrows) <- null_weight;
  t.nrows <- t.nrows + 1

let append_slice_w t src off w =
  if not t.weighted then invalid_arg "Table.append_slice_w: not weighted";
  ensure t 1;
  Array.blit src off t.cells (t.nrows * t.width) t.width;
  t.wts.(t.nrows) <- w;
  t.nrows <- t.nrows + 1

let row t r =
  let buf = Array.make t.width 0 in
  read_row t r buf;
  buf

let iter f t =
  for r = 0 to t.nrows - 1 do
    f r
  done

let clear t = t.nrows <- 0

let copy t =
  {
    t with
    cells = Array.sub t.cells 0 (max 1 (t.nrows * t.width));
    wts = (if t.weighted then Array.sub t.wts 0 (max 1 t.nrows) else [||]);
  }

let filter t p =
  let out = create ~weighted:t.weighted ~name:t.name t.cols in
  for r = 0 to t.nrows - 1 do
    if p r then append_from out t r
  done;
  out

let sub t rows =
  let out = create ~weighted:t.weighted ~name:t.name t.cols in
  Array.iter (fun r -> append_from out t r) rows;
  out

let append_all dst src =
  ensure dst src.nrows;
  for r = 0 to src.nrows - 1 do
    append_from dst src r
  done

let row_bytes t = (8 * t.width) + if t.weighted then 8 else 0
let byte_size t = t.nrows * row_bytes t

let equal_rows a ra b rb =
  let rec eq c =
    c >= a.width
    || a.cells.((ra * a.width) + c) = b.cells.((rb * b.width) + c)
       && eq (c + 1)
  in
  a.width = b.width && eq 0
