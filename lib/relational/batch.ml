type t = {
  width : int;
  weighted : bool;
  capacity : int;
  mutable n : int;
  cells : int array;
  wts : float array;
  rids : int array;
}

let default_capacity = 1024

let create ?(capacity = default_capacity) ~weighted width =
  if capacity < 1 then invalid_arg "Batch.create: capacity";
  {
    width;
    weighted;
    capacity;
    n = 0;
    cells = Array.make (capacity * max 1 width) 0;
    wts = (if weighted then Array.make capacity Table.null_weight else [||]);
    rids = Array.make capacity 0;
  }

let capacity b = b.capacity
let length b = b.n
let is_empty b = b.n = 0
let is_full b = b.n >= b.capacity
let clear b = b.n <- 0
let get b r c = b.cells.((r * b.width) + c)
let set b r c v = b.cells.((r * b.width) + c) <- v
let weight b r = if b.weighted then b.wts.(r) else Table.null_weight

let set_weight b r w =
  if not b.weighted then invalid_arg "Batch.set_weight: not weighted";
  b.wts.(r) <- w

let rid b r = b.rids.(r)

let push_from_table b tbl r =
  let i = b.n in
  Table.blit_row tbl r b.cells (i * b.width);
  if b.weighted then
    b.wts.(i) <-
      (if Table.weighted tbl then Table.weight tbl r else Table.null_weight);
  b.rids.(i) <- r;
  b.n <- i + 1

let alloc_row b ~rid =
  let i = b.n in
  b.rids.(i) <- rid;
  if b.weighted then b.wts.(i) <- Table.null_weight;
  b.n <- i + 1;
  i

let append_row_to_table tbl b r =
  if Table.weighted tbl && b.weighted then
    Table.append_slice_w tbl b.cells (r * b.width) b.wts.(r)
  else Table.append_slice tbl b.cells (r * b.width)
