(* Push-based, batch-at-a-time operator pipelines (HyPer-style morsel
   parallelism over MonetDB/X100-style vectorized kernels).

   A pipeline is: a source table scanned in fixed-size batches, a chain
   of kernels transforming batches in flight, and a sink materializing
   the survivors.  The only materialization points are sinks — filters,
   projections and hash-probe chains never produce a Table.t.

   Determinism contract (same as the partitioned operators this layer
   replaces): the parallel driver hands contiguous morsels to pool
   workers, each worker runs the whole kernel chain over its morsel into
   a private sink, and the private sinks are absorbed into the global
   sink in morsel order — so the output is bit-identical to the
   sequential engine for any pool size, including first-occurrence
   semantics of dedup sinks. *)

type side = Build | Probe
type out_col = Col of side * int | Const of int
type out_weight = No_weight | Weight_of of side

type kernel = { push : Batch.t -> unit; flush : unit -> unit }

let into_sink s = { push = Sink.push_batch s; flush = (fun () -> ()) }

(* Filter: compacts the incoming batch in place (the producer refills it
   from scratch after the push returns). *)
let select pred ~next =
  {
    push =
      (fun b ->
        let n = Batch.length b in
        let keep = ref 0 in
        for r = 0 to n - 1 do
          if pred b r then begin
            Batch.move_row b ~src:r ~dst:!keep;
            incr keep
          end
        done;
        Batch.truncate b !keep;
        if !keep > 0 then next.push b);
    flush = next.flush;
  }

(* Projection: 1:1 into a private output batch (allocated on first push,
   matching the incoming capacity), weights and row ids carried over. *)
let project ~cols ~weighted ~next () =
  let out = ref None in
  let ncols = Array.length cols in
  let out_for b =
    match !out with
    | Some o -> o
    | None ->
      let o = Batch.create ~capacity:(Batch.capacity b) ~weighted ncols in
      out := Some o;
      o
  in
  {
    push =
      (fun b ->
        let o = out_for b in
        let n = Batch.length b in
        for r = 0 to n - 1 do
          let i = Batch.alloc_row o ~rid:(Batch.rid b r) in
          for j = 0 to ncols - 1 do
            Batch.set o i j (Batch.get b r cols.(j))
          done;
          if weighted then Batch.set_weight o i (Batch.weight b r)
        done;
        if n > 0 then begin
          next.push o;
          Batch.clear o
        end);
    flush = next.flush;
  }

(* Hash probe: streams probe batches against a prebuilt index, emitting
   join rows into a private output batch pushed downstream whenever it
   fills.  [residual] sees (build row, probe source row id). *)
let probe idx ~pkey ~out ~oweight ?residual ~next () =
  let btbl = Index.table idx in
  let weighted = oweight <> No_weight in
  let width = Array.length out in
  let ob = Batch.create ~weighted width in
  let kv = Array.make (Array.length pkey) 0 in
  let emit b r br =
    if Batch.is_full ob then begin
      next.push ob;
      Batch.clear ob
    end;
    let i = Batch.alloc_row ob ~rid:(Batch.rid b r) in
    for j = 0 to width - 1 do
      Batch.set ob i j
        (match out.(j) with
        | Const v -> v
        | Col (Build, c) -> Table.get btbl br c
        | Col (Probe, c) -> Batch.get b r c)
    done;
    match oweight with
    | No_weight -> ()
    | Weight_of Build -> Batch.set_weight ob i (Table.weight btbl br)
    | Weight_of Probe -> Batch.set_weight ob i (Batch.weight b r)
  in
  {
    push =
      (fun b ->
        let n = Batch.length b in
        for r = 0 to n - 1 do
          for i = 0 to Array.length pkey - 1 do
            kv.(i) <- Batch.get b r pkey.(i)
          done;
          match residual with
          | None -> Index.iter_matches idx kv (fun br -> emit b r br)
          | Some keep ->
            Index.iter_matches idx kv (fun br ->
                if keep br (Batch.rid b r) then emit b r br)
        done);
    flush =
      (fun () ->
        if not (Batch.is_empty ob) then begin
          next.push ob;
          Batch.clear ob
        end;
        next.flush ());
  }

(* --- the morsel driver --- *)

let default_parallel_threshold = 2048
let min_morsel_rows = 1024

(* Scans rows [lo, hi) of [tbl] through [kernel] in batches, counting the
   batches produced; flushes the chain at the end. *)
let scan_range ~batch_capacity kernel tbl lo hi =
  let b =
    Batch.create ~capacity:batch_capacity ~weighted:(Table.weighted tbl)
      (Table.width tbl)
  in
  let batches = ref 0 in
  for r = lo to hi - 1 do
    if Batch.is_full b then begin
      incr batches;
      kernel.push b;
      Batch.clear b
    end;
    Batch.push_from_table b tbl r
  done;
  if not (Batch.is_empty b) then begin
    incr batches;
    kernel.push b;
    Batch.clear b
  end;
  kernel.flush ();
  !batches

let run ?pool ?(batch_capacity = Batch.default_capacity)
    ?(threshold = default_parallel_threshold) ~source ~make_sink ~chain ~sink
    () =
  let n = Table.nrows source in
  let pool = match pool with Some p -> p | None -> Pool.get_default () in
  let nworkers = Pool.size pool in
  let obs = Obs.ambient () in
  let enabled = Obs.enabled obs in
  let now () = if enabled then Obs.now () else 0. in
  let t0 = now () in
  let batches, busy, skew =
    if nworkers <= 1 || n < threshold then begin
      let t = now () in
      let batches = scan_range ~batch_capacity (chain sink) source 0 n in
      (batches, now () -. t, 1.)
    end
    else begin
      (* Morsel-driven: contiguous morsels, dynamically scheduled over
         the pool, each with a private sink absorbed in morsel order. *)
      let nm =
        min (nworkers * 4)
          (max 1 ((n + min_morsel_rows - 1) / min_morsel_rows))
      in
      let chunk = (n + nm - 1) / nm in
      let batches, busy, max_rows, total_rows =
        Pool.map_reduce pool ~n:nm
          ~map:(fun i ->
            let lo = i * chunk and hi = min n ((i + 1) * chunk) in
            let s = make_sink () in
            let t = now () in
            let batches =
              if lo < hi then scan_range ~batch_capacity (chain s) source lo hi
              else 0
            in
            (s, batches, now () -. t))
          ~fold:(fun (batches, busy, max_rows, total_rows) (s, b, sec) ->
            let rows = Sink.rows_out s in
            Sink.absorb sink (Sink.table s);
            Sink.add_pushed sink (Sink.pushed s);
            (batches + b, busy +. sec, max max_rows rows, total_rows + rows))
          ~init:(0, 0., 0, 0)
      in
      let mean = float_of_int total_rows /. float_of_int nm in
      (batches, busy, if mean > 0. then float_of_int max_rows /. mean else 1.)
    end
  in
  if enabled then begin
    Obs.incr obs "pipeline.runs";
    Obs.add obs "pipeline.rows" n;
    Obs.add obs "pipeline.batches" batches;
    Obs.add_time obs "pipeline.busy_seconds" busy;
    Obs.add_time obs "pipeline.seconds" (now () -. t0);
    Obs.gauge_max obs "pipeline.morsel_skew" skew
  end;
  batches

(* --- the segmented-source driver --- *)

(* Drives a pipeline whose source is a spilled (segmented) table: each
   resident segment is one morsel.  [keep] is the partition-pruning
   predicate — segments it rejects are never touched (their pages stay
   cold); pruning must be semantically transparent, i.e. [keep] may only
   reject segments none of whose rows can survive the downstream chain.

   Determinism matches {!run}: sequentially, one kernel chain consumes
   the kept segments in order with a single flush at the end; in
   parallel, each segment streams through a private chain/sink and the
   sinks are absorbed in segment order.  Kernels emit in row order
   either way, so the output is bit-identical to a scan of the unspilled
   table at any pool size (dedup sinks re-check while absorbing, exactly
   as the morsel driver's). *)
let run_segments ?pool ?(batch_capacity = Batch.default_capacity) ~source
    ~keep ~make_sink ~chain ~sink () =
  let segs = source.Segsrc.segs in
  let nseg = Array.length segs in
  (* Base rids: skipped segments still advance them, so surviving rows
     carry the same source row ids as an unspilled scan. *)
  let bases = Array.make (max 1 nseg) 0 in
  let nrows = ref 0 in
  for i = 0 to nseg - 1 do
    bases.(i) <- !nrows;
    nrows := !nrows + segs.(i).Segsrc.rows
  done;
  let kept = ref [] in
  for i = nseg - 1 downto 0 do
    if segs.(i).Segsrc.rows > 0 && keep segs.(i) then kept := i :: !kept
  done;
  let kept = Array.of_list !kept in
  let nkept = Array.length kept in
  let pool = match pool with Some p -> p | None -> Pool.get_default () in
  let nworkers = Pool.size pool in
  let obs = Obs.ambient () in
  let enabled = Obs.enabled obs in
  let now () = if enabled then Obs.now () else 0. in
  let t0 = now () in
  let scan_one kernel i =
    segs.(i).Segsrc.scan ~capacity:batch_capacity ~base_rid:bases.(i)
      kernel.push
  in
  let batches, busy, skew =
    if nworkers <= 1 || nkept <= 1 then begin
      let t = now () in
      let kernel = chain sink in
      let batches = ref 0 in
      Array.iter (fun i -> batches := !batches + scan_one kernel i) kept;
      kernel.flush ();
      (!batches, now () -. t, 1.)
    end
    else begin
      let batches, busy, max_rows, total_rows =
        Pool.map_reduce pool ~n:nkept
          ~map:(fun j ->
            let s = make_sink () in
            let t = now () in
            let kernel = chain s in
            let b = scan_one kernel kept.(j) in
            kernel.flush ();
            (s, b, now () -. t))
          ~fold:(fun (batches, busy, max_rows, total_rows) (s, b, sec) ->
            let rows = Sink.rows_out s in
            Sink.absorb sink (Sink.table s);
            Sink.add_pushed sink (Sink.pushed s);
            (batches + b, busy +. sec, max max_rows rows, total_rows + rows))
          ~init:(0, 0., 0, 0)
      in
      let mean = float_of_int total_rows /. float_of_int nkept in
      (batches, busy, if mean > 0. then float_of_int max_rows /. mean else 1.)
    end
  in
  if enabled then begin
    Obs.incr obs "pipeline.runs";
    Obs.add obs "pipeline.rows" !nrows;
    Obs.add obs "pipeline.batches" batches;
    Obs.add_time obs "pipeline.busy_seconds" busy;
    Obs.add_time obs "pipeline.seconds" (now () -. t0);
    Obs.gauge_max obs "pipeline.morsel_skew" skew;
    Obs.add obs "storage.segments_scanned" nkept;
    Obs.add obs "storage.segments_skipped" (nseg - nkept)
  end;
  batches
