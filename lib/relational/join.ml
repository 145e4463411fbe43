(* The physical join operator: a build/probe hash join executed on the
   pipelined engine ({!Pipeline}) — the probe side streams in batches
   through a probe kernel into a {!Sink}, so the local operators, the
   query planner and the per-segment MPP joins all share one kernel
   implementation, over a resident or a spilled probe side alike.
   [index_matches] and [emit_match] are its index-probe access path for
   delta terms.  The output spec types are re-exported from
   [Pipeline]. *)

type side = Pipeline.side = Build | Probe
type out_col = Pipeline.out_col = Col of side * int | Const of int
type out_weight = Pipeline.out_weight = No_weight | Weight_of of side

let check_arity bidx pkey =
  if Array.length (Index.key bidx) <> Array.length pkey then
    invalid_arg "Join.hash_join: key arity mismatch"

(* Streams the probe source through a probe kernel into a sink; inline
   DISTINCT is the sink's dedup set (over the integer output columns),
   so duplicate-heavy queries never materialize their raw output.  When
   the ambient trace is enabled, it records rows in/out, probe time and
   — through the shared sink abstraction — the same dedup counters a
   standalone DISTINCT reports. *)
let hash_join_pre ~name ~cols ~out ~oweight ?(dedup = false) ?residual bidx
    (src, pkey) =
  check_arity bidx pkey;
  let obs = Obs.ambient () in
  let t0 = if Obs.enabled obs then Obs.now () else 0. in
  let dedup_key =
    if dedup then Some (Array.init (Array.length out) Fun.id) else None
  in
  (* No reserve: a selective join over a large probe side would hold an
     arena sized for the probe rows as long as its result lives; the
     output doubles as it fills instead. *)
  let sink =
    Sink.create ?dedup_key ~weighted:(oweight <> No_weight) ~name cols
  in
  ignore
    (Pipeline.run ~source:src
       (Pipeline.probe bidx ~pkey ~out ~oweight ?residual
          ~next:(Pipeline.into_sink sink) ()));
  let result = Sink.table sink in
  if Obs.enabled obs then begin
    Obs.incr obs "join.joins";
    Obs.add obs "join.build_rows" (Index.size bidx);
    Obs.add obs "join.probe_rows" (Pipeline.rows src);
    Obs.add obs "join.rows_out" (Table.nrows result);
    Obs.add_time obs "join.probe_seconds" (Obs.now () -. t0);
    Sink.record_distinct_obs obs sink
  end;
  result

let build tbl key =
  let obs = Obs.ambient () in
  let t0 = if Obs.enabled obs then Obs.now () else 0. in
  let idx = Index.build tbl key in
  if Obs.enabled obs then
    Obs.add_time obs "join.build_seconds" (Obs.now () -. t0);
  idx

(* The delta-side access path: walk the small table [btbl] and probe
   [idx], a maintained index of the large table, instead of indexing
   [btbl] and scanning the large table. *)
let index_matches ?residual (btbl, bkey) idx f =
  if Array.length (Index.key idx) <> Array.length bkey then
    invalid_arg "Join.index_matches: key arity mismatch";
  let keep = match residual with None -> fun _ _ -> true | Some f -> f in
  let kv = Array.make (Array.length bkey) 0 in
  for br = 0 to Table.nrows btbl - 1 do
    for i = 0 to Array.length bkey - 1 do
      kv.(i) <- Table.get btbl br bkey.(i)
    done;
    Index.iter_matches idx kv (fun ir -> if keep br ir then f br ir)
  done

let emit_match ~sink ob ~out ~oweight btbl br ptbl ir =
  if Batch.is_full ob then begin
    Sink.push_batch sink ob;
    Batch.clear ob
  end;
  let i = Batch.alloc_row ob ~rid:ir in
  for j = 0 to Array.length out - 1 do
    Batch.set ob i j
      (match out.(j) with
      | Const v -> v
      | Col (Build, c) -> Table.get btbl br c
      | Col (Probe, c) -> Table.get ptbl ir c)
  done;
  match oweight with
  | No_weight -> ()
  | Weight_of Build -> Batch.set_weight ob i (Table.weight btbl br)
  | Weight_of Probe -> Batch.set_weight ob i (Table.weight ptbl ir)

let hash_join ~name ~cols ~out ~oweight ?dedup ?residual (btbl, bkey)
    (ptbl, pkey) =
  hash_join_pre ~name ~cols ~out ~oweight ?dedup ?residual
    (build btbl bkey)
    (Pipeline.of_table ptbl, pkey)

let semi_join_absent tbl key idx =
  Table.filter tbl (fun r -> not (Index.mem_row idx tbl key r))
