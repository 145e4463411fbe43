(* The physical join operator: a build/probe hash join executed on the
   pipelined engine ({!Pipeline}) — the probe side streams in batches
   through a probe kernel into a {!Sink}, so the local operators, the
   query planner and the per-segment MPP joins all share one kernel
   implementation.  [index_probe_into] is its index-probe access path
   for delta terms.  The output spec types are re-exported from
   [Pipeline]. *)

type side = Pipeline.side = Build | Probe
type out_col = Pipeline.out_col = Col of side * int | Const of int
type out_weight = Pipeline.out_weight = No_weight | Weight_of of side

(* Below this many probe rows the per-morsel sinks and the ordered
   absorb cost more than they save. *)
let parallel_probe_threshold = 2048

let check_arity bidx pkey =
  if Array.length (Index.key bidx) <> Array.length pkey then
    invalid_arg "Join.hash_join: key arity mismatch"

(* Streams the probe side through a probe kernel into [sink].  Inline
   DISTINCT is the sink's dedup set (over the integer output columns),
   so duplicate-heavy queries never materialize their raw output. *)
let probe_into ~out ~oweight ?residual ?pool ~sink bidx (ptbl, pkey) =
  check_arity bidx pkey;
  let chain s =
    Pipeline.probe bidx ~pkey ~out ~oweight ?residual
      ~next:(Pipeline.into_sink s) ()
  in
  ignore
    (Pipeline.run ?pool ~threshold:parallel_probe_threshold ~source:ptbl
       ~make_sink:(fun () -> Sink.clone_empty sink)
       ~chain ~sink ())

let hash_join_pre_raw ~name ~cols ~out ~oweight ?(dedup = false) ?residual
    ?pool bidx (ptbl, pkey) =
  let weighted = oweight <> No_weight in
  let dedup_key =
    if dedup then Some (Array.init (Array.length out) Fun.id) else None
  in
  let sink =
    Sink.create ?dedup_key ~reserve:(Table.nrows ptbl) ~weighted ~name cols
  in
  probe_into ~out ~oweight ?residual ?pool ~sink bidx (ptbl, pkey);
  sink

(* Telemetry wrapper: when the ambient trace is enabled, record rows
   in/out, probe time and — through the shared sink abstraction — the
   same dedup counters a standalone DISTINCT reports; when disabled this
   is one branch over the raw join. *)
let hash_join_pre ~name ~cols ~out ~oweight ?dedup ?residual ?pool bidx
    (ptbl, pkey) =
  let obs = Obs.ambient () in
  if not (Obs.enabled obs) then
    Sink.table
      (hash_join_pre_raw ~name ~cols ~out ~oweight ?dedup ?residual ?pool
         bidx (ptbl, pkey))
  else begin
    let t0 = Obs.now () in
    let sink =
      hash_join_pre_raw ~name ~cols ~out ~oweight ?dedup ?residual ?pool bidx
        (ptbl, pkey)
    in
    let result = Sink.table sink in
    Obs.incr obs "join.joins";
    Obs.add obs "join.build_rows" (Index.size bidx);
    Obs.add obs "join.probe_rows" (Table.nrows ptbl);
    Obs.add obs "join.rows_out" (Table.nrows result);
    Obs.add_time obs "join.probe_seconds" (Obs.now () -. t0);
    Sink.record_distinct_obs obs sink;
    result
  end

(* The delta-side access path: walk the small table [btbl] and probe
   [idx], a maintained index of the large table, instead of indexing
   [btbl] and scanning the large table.  The scan join emits its matches
   in probe-row order and, within one probe row, in the build index's
   chain order: descending [btbl] row.  Walking [btbl] meets the same
   pairs in another order, so they are collected as codes that sort into
   the scan's order — indexed row ascending, then [btbl] row descending —
   and projected only then: the sink sees the scan's rows in the scan's
   order, and keeps the same first occurrences. *)
let index_probe_into ~out ~oweight ?residual ~sink (btbl, bkey) idx =
  if Array.length (Index.key idx) <> Array.length bkey then
    invalid_arg "Join.index_probe_into: key arity mismatch";
  let obs = Obs.ambient () in
  let t0 = if Obs.enabled obs then Obs.now () else 0. in
  let before = Sink.rows_out sink in
  let ptbl = Index.table idx in
  let nb = Table.nrows btbl in
  let keep = match residual with None -> fun _ _ -> true | Some f -> f in
  let codes = ref [] in
  let kv = Array.make (Array.length bkey) 0 in
  for br = 0 to nb - 1 do
    for i = 0 to Array.length bkey - 1 do
      kv.(i) <- Table.get btbl br bkey.(i)
    done;
    Index.iter_matches idx kv (fun ir ->
        if keep br ir then codes := ((ir * nb) + (nb - 1 - br)) :: !codes)
  done;
  let codes = Array.of_list !codes in
  Array.sort Int.compare codes;
  let width = Array.length out in
  let ob =
    Batch.create
      ~capacity:(max 1 (min (Array.length codes) Batch.default_capacity))
      ~weighted:(oweight <> No_weight) width
  in
  Array.iter
    (fun code ->
      let ir = code / nb and br = nb - 1 - (code mod nb) in
      if Batch.is_full ob then begin
        Sink.push_batch sink ob;
        Batch.clear ob
      end;
      let i = Batch.alloc_row ob ~rid:ir in
      for j = 0 to width - 1 do
        Batch.set ob i j
          (match out.(j) with
          | Const v -> v
          | Col (Build, c) -> Table.get btbl br c
          | Col (Probe, c) -> Table.get ptbl ir c)
      done;
      match oweight with
      | No_weight -> ()
      | Weight_of Build -> Batch.set_weight ob i (Table.weight btbl br)
      | Weight_of Probe -> Batch.set_weight ob i (Table.weight ptbl ir))
    codes;
  if not (Batch.is_empty ob) then Sink.push_batch sink ob;
  if Obs.enabled obs then begin
    Obs.incr obs "join.joins";
    Obs.add obs "join.probe_rows" nb;
    Obs.add obs "join.rows_out" (Sink.rows_out sink - before);
    Obs.add_time obs "join.probe_seconds" (Obs.now () -. t0)
  end

(* Segmented-probe variant: the probe side is a spilled scan source
   rather than a resident table — each resident segment streams as one
   morsel ({!Pipeline.run_segments}), so probing a spilled fact table
   never materializes it.  The build side stays a resident index.  No
   zone-map pruning here ([keep] accepts everything): a join must see
   every probe row; pruning belongs to scan pipelines in {!Plan}. *)
let probe_src_into ~out ~oweight ?residual ?pool ~sink bidx (psrc, pkey) =
  check_arity bidx pkey;
  let chain s =
    Pipeline.probe bidx ~pkey ~out ~oweight ?residual
      ~next:(Pipeline.into_sink s) ()
  in
  ignore
    (Pipeline.run_segments ?pool ~source:psrc
       ~keep:(fun _ -> true)
       ~make_sink:(fun () -> Sink.clone_empty sink)
       ~chain ~sink ())

let hash_join_pre_src ~name ~cols ~out ~oweight ?(dedup = false) ?residual
    ?pool bidx (psrc, pkey) =
  let weighted = oweight <> No_weight in
  let dedup_key =
    if dedup then Some (Array.init (Array.length out) Fun.id) else None
  in
  let run () =
    let sink =
      Sink.create ?dedup_key ~reserve:(Segsrc.rows psrc) ~weighted ~name cols
    in
    probe_src_into ~out ~oweight ?residual ?pool ~sink bidx (psrc, pkey);
    sink
  in
  let obs = Obs.ambient () in
  if not (Obs.enabled obs) then Sink.table (run ())
  else begin
    let t0 = Obs.now () in
    let sink = run () in
    let result = Sink.table sink in
    Obs.incr obs "join.joins";
    Obs.add obs "join.build_rows" (Index.size bidx);
    Obs.add obs "join.probe_rows" (Segsrc.rows psrc);
    Obs.add obs "join.rows_out" (Table.nrows result);
    Obs.add_time obs "join.probe_seconds" (Obs.now () -. t0);
    Sink.record_distinct_obs obs sink;
    result
  end

let hash_join ~name ~cols ~out ~oweight ?dedup ?residual ?pool (btbl, bkey)
    (ptbl, pkey) =
  let obs = Obs.ambient () in
  let t0 = if Obs.enabled obs then Obs.now () else 0. in
  let bidx = Index.build btbl bkey in
  if Obs.enabled obs then
    Obs.add_time obs "join.build_seconds" (Obs.now () -. t0);
  hash_join_pre ~name ~cols ~out ~oweight ?dedup ?residual ?pool bidx
    (ptbl, pkey)

let semi_join_absent tbl key idx =
  Table.filter tbl (fun r -> not (Index.mem_row idx tbl key r))
