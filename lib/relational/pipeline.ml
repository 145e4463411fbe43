(* Push-based, batch-at-a-time operator pipelines (MonetDB/X100-style
   vectorized kernels).

   A pipeline is: a source (rows of a resident table, or the segments
   of a spilled one) scanned in fixed-size batches, a chain of kernels
   transforming batches in flight, and a sink materializing the
   survivors.  The only materialization points are sinks — projections
   and hash-probe chains never produce a Table.t.

   A pipeline is one sequential scan on the calling domain: kernels emit
   in row order, so the output is the same whichever domain runs it.
   The pool's parallelism sits above, in regions that each run whole
   pipelines. *)

type side = Build | Probe
type out_col = Col of side * int | Const of int
type out_weight = No_weight | Weight_of of side

type kernel = { push : Batch.t -> unit; flush : unit -> unit }

let into_sink s = { push = Sink.push_batch s; flush = (fun () -> ()) }

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

(* --- the driver --- *)

type source =
  | Rows of { table : Table.t; lo : int; hi : int }
  | Segments of Segsrc.t

let of_table t = Rows { table = t; lo = 0; hi = Table.nrows t }

let rows = function
  | Rows { lo; hi; _ } -> hi - lo
  | Segments src -> Segsrc.rows src

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

(* Every non-empty segment streams in order, its row ids offset by the
   rows before it, so every row carries the id it has in the unspilled
   table; returns the batches pushed and the segments read. *)
let scan_segments (src : Segsrc.t) kernel =
  let base = ref 0 and batches = ref 0 and scanned = ref 0 in
  Array.iter
    (fun (seg : Segsrc.seg) ->
      if seg.rows > 0 then begin
        incr scanned;
        batches :=
          !batches
          + seg.scan ~capacity:Batch.default_capacity ~base_rid:!base
              kernel.push
      end;
      base := !base + seg.rows)
    src.segs;
  (!batches, !scanned)

let run ~source kernel =
  let obs = Obs.ambient () in
  let enabled = Obs.enabled obs in
  let t0 = if enabled then Obs.now () else 0. in
  let batches, scanned =
    match source with
    | Rows { table; lo; hi } -> (scan_rows table lo hi kernel, 0)
    | Segments src -> scan_segments src kernel
  in
  kernel.flush ();
  if enabled then begin
    Obs.incr obs "pipeline.runs";
    Obs.add obs "pipeline.rows" (rows source);
    Obs.add obs "pipeline.batches" batches;
    Obs.add_time obs "pipeline.seconds" (Obs.now () -. t0);
    match source with
    | Segments _ -> Obs.add obs "storage.segments_scanned" scanned
    | Rows _ -> ()
  end;
  batches
