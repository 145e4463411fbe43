type t = {
  table : Table.t;
  dedup : Index.t option;
  dedup_key : int array;
  kbuf : int array;
  mutable pushed : int;
}

let create ?dedup_key ?reserve ?(weighted = false) ~name cols =
  let table = Table.create ~weighted ~name cols in
  (match reserve with
  | Some n when n > 0 ->
    (* Pre-size from the caller's cardinality estimate, capped so a wild
       over-estimate cannot allocate an arena nobody fills. *)
    Table.reserve table (min n (1 lsl 20))
  | _ -> ());
  let dedup_key = Option.value dedup_key ~default:[||] in
  {
    table;
    dedup =
      (if Array.length dedup_key > 0 then Some (Index.build table dedup_key)
       else None);
    dedup_key;
    kbuf = Array.make (Array.length dedup_key) 0;
    pushed = 0;
  }

let table s = s.table
let rows_out s = Table.nrows s.table

let push_batch s b =
  let n = Batch.length b in
  s.pushed <- s.pushed + n;
  match s.dedup with
  | None ->
    Table.reserve s.table n;
    for r = 0 to n - 1 do
      Batch.append_row_to_table s.table b r
    done
  | Some idx ->
    let key = s.dedup_key and kbuf = s.kbuf in
    for r = 0 to n - 1 do
      for i = 0 to Array.length key - 1 do
        kbuf.(i) <- Batch.get b r key.(i)
      done;
      if not (Index.mem idx kbuf) then begin
        Batch.append_row_to_table s.table b r;
        Index.add idx (Table.nrows s.table - 1)
      end
    done

(* The one place dedup telemetry is emitted: inline join dedup and
   standalone DISTINCT both report through here, so their counters obey
   the same identity (rows_in - duplicates = rows_out) and can be
   compared directly. *)
let record_distinct_obs obs s =
  if Obs.enabled obs && s.dedup <> None then begin
    Obs.add obs "distinct.rows_in" s.pushed;
    Obs.add obs "distinct.rows_out" (rows_out s);
    Obs.add obs "distinct.duplicates" (s.pushed - rows_out s)
  end
