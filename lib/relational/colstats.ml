(* The number of distinct values of each column. *)
type t = int array

let analyze tbl =
  let width = Table.width tbl in
  let ndv = Array.make width 0 in
  let seen = Array.init width (fun _ -> Hashtbl.create 64) in
  for r = 0 to Table.nrows tbl - 1 do
    for c = 0 to width - 1 do
      let v = Table.get tbl r c in
      if not (Hashtbl.mem seen.(c) v) then begin
        Hashtbl.replace seen.(c) v ();
        ndv.(c) <- ndv.(c) + 1
      end
    done
  done;
  ndv

(* A small cache keyed by physical table identity and the row count at
   analysis time, so repeated plan estimates (every EXPLAIN, every
   build-side choice) do not rescan unchanged base tables.  Bounded ring
   with mutex protection: plans may be estimated from worker domains. *)
let cache_slots = 16
let cache : (Table.t * int * t) option array = Array.make cache_slots None
let cache_next = ref 0
let cache_mutex = Mutex.create ()

let stats_for tbl =
  let n = Table.nrows tbl in
  Mutex.lock cache_mutex;
  let hit =
    Array.fold_left
      (fun acc slot ->
        match (acc, slot) with
        | Some _, _ -> acc
        | None, Some (t, rows, st) when t == tbl && rows = n -> Some st
        | None, _ -> None)
      None cache
  in
  Mutex.unlock cache_mutex;
  match hit with
  | Some st -> st
  | None ->
    let st = analyze tbl in
    Mutex.lock cache_mutex;
    cache.(!cache_next) <- Some (tbl, n, st);
    cache_next := (!cache_next + 1) mod cache_slots;
    Mutex.unlock cache_mutex;
    st

let ndv st c = st.(c)
