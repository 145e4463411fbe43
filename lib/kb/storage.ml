module Table = Relational.Table
module Index = Relational.Index
module Deadrows = Relational.Deadrows

let cols = [| "I"; "R"; "x"; "C1"; "y"; "C2" |]
let key_cols = [| 1; 2; 3; 4; 5 |]
let x_key = [| 1; 3; 5; 2 |]
let y_key = [| 1; 3; 5; 4 |]

type t = {
  mutable facts : Table.t;
  mutable key_idx : Index.t;
  mutable partial : (Index.t * Index.t) option;
      (* on [x_key] and [y_key]; built on first demand, then maintained *)
  mutable next_id : int;
  banned : (int * int * int * int * int, unit) Hashtbl.t;
  dead : Deadrows.t; (* tombstoned rows, until compaction *)
  mutable index_rebuilds : int;
}

let create () =
  let facts = Table.create ~weighted:true ~name:"T_Pi" cols in
  {
    facts;
    key_idx = Index.build facts key_cols;
    partial = None;
    next_id = 0;
    banned = Hashtbl.create 16;
    dead = Deadrows.create ();
    index_rebuilds = 0;
  }

let partial_of facts = (Index.build facts x_key, Index.build facts y_key)

let build_partial_indexes s =
  if s.partial = None then s.partial <- Some (partial_of s.facts)

let partial_index s key =
  build_partial_indexes s;
  match s.partial with
  | Some (ix, _) when key = x_key -> ix
  | Some (_, iy) when key = y_key -> iy
  | _ -> invalid_arg "Storage.partial_index: not a maintained key"

(* Registers the table's newest row with every maintained index. *)
let index_last_row s =
  let row = Table.nrows s.facts - 1 in
  Index.add s.key_idx row;
  match s.partial with
  | Some (ix, iy) ->
    Index.add ix row;
    Index.add iy row
  | None -> ()

let table s = s.facts
let key_index s = s.key_idx
let size s = Table.nrows s.facts - Deadrows.count s.dead
let next_id s = s.next_id
let index_rebuilds s = s.index_rebuilds

let live_row s row = Deadrows.live s.dead row

(* A key has at most one live row, and it is its newest: a key is only
   re-inserted once its previous row is dead.  [first_match] yields the
   newest row, so it alone decides. *)
let find s ~r ~x ~c1 ~y ~c2 =
  match Index.first_match s.key_idx [| r; x; c1; y; c2 |] with
  | Some row when live_row s row -> Some (Table.get s.facts row 0)
  | Some _ | None -> None

let add s ~r ~x ~c1 ~y ~c2 ~w =
  match find s ~r ~x ~c1 ~y ~c2 with
  | Some id -> `Dup id
  | None ->
    let id = s.next_id in
    s.next_id <- id + 1;
    Table.append_w s.facts [| id; r; x; c1; y; c2 |] w;
    index_last_row s;
    `Added id

(* [tbl] has columns R x C1 y C2 at positions 0..4. *)
let new_key_cols = [| 0; 1; 2; 3; 4 |]

let merge_new s tbl =
  let added = ref 0 in
  let buf = Array.make 6 0 in
  let is_banned r =
    Hashtbl.length s.banned > 0
    && Hashtbl.mem s.banned
         ( Table.get tbl r 0, Table.get tbl r 1, Table.get tbl r 2,
           Table.get tbl r 3, Table.get tbl r 4 )
  in
  let has_live_row r =
    let h = Index.find_row s.key_idx tbl new_key_cols r in
    h >= 0 && live_row s h
  in
  for r = 0 to Table.nrows tbl - 1 do
    if (not (has_live_row r)) && not (is_banned r) then begin
      let id = s.next_id in
      s.next_id <- id + 1;
      buf.(0) <- id;
      for i = 0 to 4 do
        buf.(i + 1) <- Table.get tbl r i
      done;
      Table.append s.facts buf;
      (* inferred: null weight *)
      index_last_row s;
      incr added
    end
  done;
  !added

let ban_key_of_row s r =
  Hashtbl.replace s.banned
    ( Table.get s.facts r 1, Table.get s.facts r 2, Table.get s.facts r 3,
      Table.get s.facts r 4, Table.get s.facts r 5 )
    ()

(* [row_of_id]'s binary search relies on ids ascending along the rows:
   appends take ids from [next_id], and compaction keeps row order. *)
let check_ids_ascending s =
  for row = 1 to Table.nrows s.facts - 1 do
    if Table.get s.facts (row - 1) 0 >= Table.get s.facts row 0 then
      failwith
        (Printf.sprintf "Storage: fact ids not ascending at row %d" row)
  done

let pending_deletes s = Deadrows.count s.dead

let flush_deletes s =
  if pending_deletes s = 0 then 0
  else begin
    let removed = pending_deletes s in
    let kept = Table.filter s.facts (live_row s) in
    s.facts <- kept;
    s.key_idx <- Index.build kept key_cols;
    if s.partial <> None then s.partial <- Some (partial_of kept);
    s.index_rebuilds <- s.index_rebuilds + 1;
    Deadrows.clear s.dead;
    if Obs.debug then check_ids_ascending s;
    removed
  end

let is_banned s ~r ~x ~c1 ~y ~c2 = Hashtbl.mem s.banned (r, x, c1, y, c2)

let iter f s =
  for row = 0 to Table.nrows s.facts - 1 do
    if live_row s row then
      f
        ~id:(Table.get s.facts row 0)
        ~r:(Table.get s.facts row 1)
        ~x:(Table.get s.facts row 2)
        ~c1:(Table.get s.facts row 3)
        ~y:(Table.get s.facts row 4)
        ~c2:(Table.get s.facts row 5)
        ~w:(Table.weight s.facts row)
  done

(* The first row whose id is at least [id] (binary search). *)
let first_row_from s id =
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = lo + ((hi - lo) / 2) in
      if Table.get s.facts mid 0 < id then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Table.nrows s.facts)

let row_of_id s id =
  let row = first_row_from s id in
  if
    row < Table.nrows s.facts
    && Table.get s.facts row 0 = id
    && live_row s row
  then Some row
  else None

let rows_from s id =
  Relational.Pipeline.Rows
    { table = s.facts; lo = first_row_from s id; hi = Table.nrows s.facts }

let ban_id s id =
  match row_of_id s id with
  | Some r -> ban_key_of_row s r
  | None -> ()

let mark_deleted s id =
  match row_of_id s id with
  | Some row -> ignore (Deadrows.kill s.dead row)
  | None -> ()

let delete_ids ?(ban = false) s ids =
  List.iter
    (fun id ->
      if ban then ban_id s id;
      mark_deleted s id)
    ids;
  flush_deletes s

let delete_where ?(ban = false) s p =
  Table.iter
    (fun r ->
      if live_row s r && p s.facts r then begin
        if ban then ban_key_of_row s r;
        ignore (Deadrows.kill s.dead r)
      end)
    s.facts;
  flush_deletes s

let copy s =
  let facts = Table.copy s.facts in
  {
    facts;
    key_idx = Index.copy s.key_idx facts;
    partial = None;
    next_id = s.next_id;
    banned = Hashtbl.copy s.banned;
    dead = Deadrows.copy s.dead;
    index_rebuilds = 0;
  }
