(* Push-based, batch-at-a-time operator pipelines (HyPer-style morsel
   parallelism over MonetDB/X100-style vectorized kernels).

   A pipeline is: a source (rows of a resident table, or the segments
   of a spilled one) scanned in fixed-size batches, a chain
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

type source =
  | Rows of { table : Table.t; lo : int; hi : int }
  | Segments of { src : Segsrc.t; keep : Segsrc.seg -> bool }

let of_table t = Rows { table = t; lo = 0; hi = Table.nrows t }

let rows = function
  | Rows { lo; hi; _ } -> hi - lo
  | Segments { src; _ } -> Segsrc.rows src

let default_parallel_threshold = 2048
let min_morsel_rows = 1024

(* Scans rows [lo, hi) of [tbl] through [kernel] in batches, none larger
   than the rows it holds; returns the number of batches pushed. *)
let scan_rows tbl lo hi kernel =
  let b =
    Batch.create
      ~capacity:(max 1 (min Batch.default_capacity (hi - lo)))
      ~weighted:(Table.weighted tbl) (Table.width tbl)
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
  !batches

(* The morsels of [source], each a scan into a kernel, and whether they
   run in parallel.  Resident rows are one morsel sequentially, or split
   into contiguous runs of at least [min_morsel_rows]; a segmented
   source has one morsel per kept segment either way, and skipped
   segments still advance the row ids, so surviving rows carry the same
   ids as an unspilled scan. *)
let morsels ~nworkers ~threshold = function
  | Rows { table; lo; hi } ->
    let n = hi - lo in
    if nworkers <= 1 || n < threshold then ([| scan_rows table lo hi |], false)
    else begin
      let nm =
        min (nworkers * 4)
          (max 1 ((n + min_morsel_rows - 1) / min_morsel_rows))
      in
      let chunk = (n + nm - 1) / nm in
      ( Array.init nm (fun i ->
            scan_rows table
              (min hi (lo + (i * chunk)))
              (min hi (lo + ((i + 1) * chunk)))),
        true )
    end
  | Segments { src; keep } ->
    let base = ref 0 and kept = ref [] in
    Array.iter
      (fun (seg : Segsrc.seg) ->
        let base_rid = !base in
        if seg.rows > 0 && keep seg then
          kept :=
            (fun k ->
              seg.scan ~capacity:Batch.default_capacity ~base_rid k.push)
            :: !kept;
        base := !base + seg.rows)
      src.segs;
    let kept = Array.of_list (List.rev !kept) in
    (kept, nworkers > 1 && Array.length kept > 1)

(* Sequentially, one kernel chain consumes every morsel in order with a
   single flush at the end; in parallel, each morsel streams through a
   private chain and sink, and the sinks are absorbed in morsel order.
   Kernels emit in row order either way, so the output is bit-identical
   at any pool size (dedup sinks re-check while absorbing). *)
let run ?pool ?(threshold = default_parallel_threshold) ~source ~make_sink
    ~chain ~sink () =
  let pool = match pool with Some p -> p | None -> Pool.get_default () in
  let morsels, parallel =
    morsels ~nworkers:(Pool.size pool) ~threshold source
  in
  let nm = Array.length morsels in
  let obs = Obs.ambient () in
  let enabled = Obs.enabled obs in
  let now () = if enabled then Obs.now () else 0. in
  let t0 = now () in
  let batches, busy, skew =
    if not parallel then begin
      let t = now () in
      let kernel = chain sink in
      let batches =
        Array.fold_left (fun b scan -> b + scan kernel) 0 morsels
      in
      kernel.flush ();
      (batches, now () -. t, 1.)
    end
    else begin
      let batches, busy, max_rows, total_rows =
        Pool.map_reduce pool ~n:nm
          ~map:(fun i ->
            let s = make_sink () in
            let t = now () in
            let kernel = chain s in
            let b = morsels.(i) kernel in
            kernel.flush ();
            (s, b, now () -. t))
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
    Obs.add obs "pipeline.rows" (rows source);
    Obs.add obs "pipeline.batches" batches;
    Obs.add_time obs "pipeline.busy_seconds" busy;
    Obs.add_time obs "pipeline.seconds" (now () -. t0);
    Obs.gauge_max obs "pipeline.morsel_skew" skew;
    match source with
    | Segments { src; _ } ->
      Obs.add obs "storage.segments_scanned" nm;
      Obs.add obs "storage.segments_skipped" (Array.length src.segs - nm)
    | Rows _ -> ()
  end;
  batches
