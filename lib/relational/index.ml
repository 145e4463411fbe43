type t = {
  table : Table.t;
  key : int array;
  mutable buckets : int array; (* row + 1; 0 means empty *)
  mutable next : int array; (* chain: next.(r) = following row + 1 *)
  mutable mask : int;
  mutable count : int;
}

(* FNV-style multiplicative mixing over the key columns, finished with a
   Murmur-like avalanche so low bits are usable as bucket indexes. *)
let finalize h =
  let h = h lxor (h lsr 33) in
  let h = h * 0x7f51afd7ed558ccd in
  let h = h lxor (h lsr 33) in
  h land max_int

let hash_key kv =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length kv - 1 do
    h := (!h lxor kv.(i)) * 0x01000193
  done;
  finalize !h

let hash_row tbl key r =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length key - 1 do
    h := (!h lxor Table.get tbl r key.(i)) * 0x01000193
  done;
  finalize !h

let next_pow2 n =
  let rec go c = if c >= n then c else go (2 * c) in
  go 16

let ensure_next idx r =
  if r >= Array.length idx.next then begin
    let cap = ref (max 16 (Array.length idx.next)) in
    while !cap <= r do
      cap := 2 * !cap
    done;
    let next = Array.make !cap 0 in
    Array.blit idx.next 0 next 0 (Array.length idx.next);
    idx.next <- next
  end

let insert idx r =
  let b = hash_row idx.table idx.key r land idx.mask in
  ensure_next idx r;
  idx.next.(r) <- idx.buckets.(b);
  idx.buckets.(b) <- r + 1;
  idx.count <- idx.count + 1

let rehash idx =
  let nbuckets = next_pow2 (2 * max 16 idx.count) in
  idx.buckets <- Array.make nbuckets 0;
  idx.mask <- nbuckets - 1;
  let count = idx.count in
  idx.count <- 0;
  (* Re-insert the first [count] rows that were indexed.  Rows are always
     indexed in order 0..count-1 (build) then appended, so the indexed rows
     are exactly 0..count-1. *)
  for r = 0 to count - 1 do
    insert idx r
  done

let build tbl key =
  let n = Table.nrows tbl in
  let nbuckets = next_pow2 (2 * max 8 n) in
  let idx =
    {
      table = tbl;
      key;
      buckets = Array.make nbuckets 0;
      next = Array.make (max 16 n) 0;
      mask = nbuckets - 1;
      count = 0;
    }
  in
  for r = 0 to n - 1 do
    insert idx r
  done;
  idx

(* Rows are indexed in order, so chain entries past [count] are unused:
   [ensure_next] regrows the copied chain on the next [add]. *)
let copy idx tbl =
  {
    idx with
    table = tbl;
    buckets = Array.copy idx.buckets;
    next = Array.sub idx.next 0 idx.count;
  }

let table idx = idx.table
let key idx = idx.key

let add idx r =
  if idx.count >= (idx.mask + 1) * 3 / 4 then rehash idx;
  insert idx r

let key_matches idx kv r =
  let rec eq i =
    i >= Array.length idx.key
    || Table.get idx.table r idx.key.(i) = kv.(i) && eq (i + 1)
  in
  eq 0

let iter_matches idx kv f =
  let b = hash_key kv land idx.mask in
  let rec walk cursor =
    if cursor <> 0 then begin
      let r = cursor - 1 in
      if key_matches idx kv r then f r;
      walk idx.next.(r)
    end
  in
  walk idx.buckets.(b)

exception Found of int

let first_match idx kv =
  match iter_matches idx kv (fun r -> raise_notrace (Found r)) with
  | () -> None
  | exception Found r -> Some r

let mem idx kv = Option.is_some (first_match idx kv)

let row_matches idx other okey r ir =
  let rec eq i =
    i >= Array.length idx.key
    || Table.get idx.table ir idx.key.(i) = Table.get other r okey.(i)
       && eq (i + 1)
  in
  eq 0

let find_row idx other okey r =
  let b = hash_row other okey r land idx.mask in
  let rec walk cursor =
    if cursor = 0 then -1
    else
      let ir = cursor - 1 in
      if row_matches idx other okey r ir then ir else walk idx.next.(ir)
  in
  walk idx.buckets.(b)

let mem_row idx other okey r = find_row idx other okey r >= 0

let count_matches idx kv =
  let n = ref 0 in
  iter_matches idx kv (fun _ -> incr n);
  !n

let size idx = idx.count
