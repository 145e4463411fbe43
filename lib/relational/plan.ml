type pred =
  | Eq_const of int * int
  | Eq_cols of int * int
  | Lt_const of int * int
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type t =
  | Scan of Table.t
  | Scan_segments of Segsrc.t
  | Select of pred * t
  | Project of int array * t
  | Equi_join of { left : t; right : t; lkey : int array; rkey : int array }
  | Distinct of int array option * t
  | Order_by of int array * t

let check_cols what schema cols =
  Array.iter
    (fun c ->
      if c < 0 || c >= Array.length schema then
        invalid_arg
          (Printf.sprintf "Plan.%s: column %d out of range (width %d)" what c
             (Array.length schema)))
    cols

let rec columns = function
  | Scan tbl -> Table.cols tbl
  | Scan_segments s -> s.Segsrc.cols
  | Select (_, child) -> columns child
  | Project (cols, child) ->
    let schema = columns child in
    check_cols "project" schema cols;
    Array.map (fun c -> schema.(c)) cols
  | Equi_join { left; right; lkey; rkey } ->
    let ls = columns left and rs = columns right in
    check_cols "join(left)" ls lkey;
    check_cols "join(right)" rs rkey;
    if Array.length lkey <> Array.length rkey then
      invalid_arg "Plan.join: key arity mismatch";
    Array.append ls rs
  | Distinct (key, child) ->
    let schema = columns child in
    Option.iter (check_cols "distinct" schema) key;
    schema
  | Order_by (key, child) ->
    let schema = columns child in
    check_cols "order_by" schema key;
    schema

let width p = Array.length (columns p)

(* --- cardinality estimation --- *)

(* Trace an output column back to the statistics of the base table (or
   spilled store — its stats are persisted with the segment headers, so
   no rescan happens here) it is read from: columns pass through
   filters, projections and joins unchanged, so selectivities and
   distinct counts can use {!Colstats} instead of textbook constants. *)
let rec resolve_col p c =
  match p with
  | Scan tbl -> Some (Colstats.stats_for tbl, c)
  | Scan_segments s -> Some (s.Segsrc.stats, c)
  | Select (_, child) | Distinct (_, child) | Order_by (_, child) ->
    resolve_col child c
  | Project (cols, child) -> resolve_col child cols.(c)
  | Equi_join { left; right; _ } ->
    let lw = width left in
    if c < lw then resolve_col left c else resolve_col right (c - lw)

let eq_selectivity = 0.1
let range_selectivity = 0.3

let rec pred_selectivity child = function
  | Eq_const (c, v) -> (
    (* 1/ndv under the uniform assumption; 0 outside the column's value
       range; the textbook constant when the column cannot be traced to
       a base table. *)
    match resolve_col child c with
    | Some (st, bc) when Colstats.rows st > 0 -> (
      match (Colstats.min_value st bc, Colstats.max_value st bc) with
      | Some lo, Some hi when v < lo || v > hi -> 0.
      | _ -> 1. /. float_of_int (max 1 (Colstats.ndv st bc)))
    | _ -> eq_selectivity)
  | Eq_cols _ -> eq_selectivity
  | Lt_const _ -> range_selectivity
  | And (a, b) -> pred_selectivity child a *. pred_selectivity child b
  | Or (a, b) ->
    let sa = pred_selectivity child a and sb = pred_selectivity child b in
    sa +. sb -. (sa *. sb)
  | Not p -> 1. -. pred_selectivity child p

(* NDV of a composite key over a node's output, resolved column by
   column to base-table statistics; [cap] bounds the product (a key
   cannot take more distinct values than there are rows).  [None] when
   some column cannot be traced. *)
let ndv_resolved node key ~cap =
  let resolved = Array.map (resolve_col node) key in
  if Array.length key > 0 && Array.for_all Option.is_some resolved then
    Some
      (max 1
         (min (max 1 cap)
            (Array.fold_left
               (fun acc r ->
                 if acc > cap then acc
                 else
                   let st, bc = Option.get r in
                   acc * max 1 (Colstats.ndv st bc))
               1 resolved)))
  else None

let rec estimate_rows = function
  | Scan tbl -> Table.nrows tbl
  | Scan_segments s -> Segsrc.rows s
  | Select (p, child) ->
    int_of_float
      (Float.round
         (pred_selectivity child p *. float_of_int (estimate_rows child)))
  | Project (_, child) -> estimate_rows child
  | Equi_join { left; right; lkey; rkey } ->
    (* |L|·|R| / max(ndv_L(key), ndv_R(key)), with NDVs resolved to base
       tables when possible and estimated otherwise. *)
    let nl = estimate_rows left and nr = estimate_rows right in
    let ndv_of node key fallback =
      match ndv_resolved node key ~cap:fallback with
      | Some d -> d
      | None -> max 1 (fallback / 10)
    in
    let d = max (ndv_of left lkey nl) (ndv_of right rkey nr) in
    if d = 0 then 0 else nl * nr / max 1 d
  | Distinct (key, child) ->
    (* Capped by the distinct count of the key when its columns resolve
       to base tables. *)
    let est = estimate_rows child in
    let keycols =
      match key with
      | Some k -> k
      | None -> Array.init (width child) Fun.id
    in
    if est = 0 then 0
    else (
      match ndv_resolved child keycols ~cap:est with
      | Some d -> min est d
      | None -> est)
  | Order_by (_, child) -> estimate_rows child

(* --- shared physical choices --- *)

(* Build side of an equi-join: the smaller estimated input.  A static
   rule — the streaming engine cannot know actual cardinalities before
   running — that the materializing test oracle follows too, so the two
   engines' output orders (probe order × hash-chain order) are
   bit-identical. *)
let join_build_left left right = estimate_rows left <= estimate_rows right

let rec plan_weighted = function
  | Scan tbl -> Table.weighted tbl
  | Scan_segments s -> s.Segsrc.weighted
  | Select (_, child) | Project (_, child) | Distinct (_, child)
  | Order_by (_, child) ->
    plan_weighted child
  | Equi_join _ -> false

let compile_pred_batch p =
  let rec eval p b r =
    match p with
    | Eq_const (c, v) -> Batch.get b r c = v
    | Eq_cols (a, b') -> Batch.get b r a = Batch.get b r b'
    | Lt_const (c, v) -> Batch.get b r c < v
    | And (x, y) -> eval x b r && eval y b r
    | Or (x, y) -> eval x b r || eval y b r
    | Not x -> not (eval x b r)
  in
  fun b r -> eval p b r

(* The out spec of a plan join: left columns then right columns,
   regardless of which side physically builds. *)
let join_out ~build_left l_width r_width =
  let out_for side w = Array.init w (fun c -> Pipeline.Col (side, c)) in
  if build_left then
    Array.append
      (out_for Pipeline.Build l_width)
      (out_for Pipeline.Probe r_width)
  else
    Array.append
      (out_for Pipeline.Probe l_width)
      (out_for Pipeline.Build r_width)

(* Peak-intermediate-allocation accounting: every table a run
   materializes (pipeline sinks and sorts — not base scans) is summed
   and the per-run total reported as a high-water gauge. *)
let note_intermediate bytes tbl = bytes := !bytes + Table.byte_size tbl

let record_intermediate_bytes bytes =
  let obs = Obs.ambient () in
  if Obs.enabled obs then begin
    Obs.gauge_max obs "exec.peak_intermediate_bytes" (float_of_int !bytes);
    (* Resident-set high water (OS view of the same question: how much
       memory did this run actually pin), when the platform exposes it. *)
    match Obs.peak_rss_bytes () with
    | Some rss -> Obs.gauge_max obs "exec.peak_rss_bytes" (float_of_int rss)
    | None -> ()
  end

(* --- zone-map pruning --- *)

let rec conjuncts p acc =
  match p with And (a, b) -> conjuncts a (conjuncts b acc) | p -> p :: acc

(* Map an output column of a streaming Select/Project prefix back to the
   column of the segmented scan at its base; [None] once the trace
   leaves the prefix (crosses a join or hits a plain scan). *)
let rec prefix_col q c =
  match q with
  | Scan_segments _ -> Some c
  | Select (_, child) -> prefix_col child c
  | Project (cols, child) -> prefix_col child cols.(c)
  | _ -> None

(* The prunable predicates of a streaming spine: [Eq_const] / [Lt_const]
   conjuncts of the Selects sitting between the segmented source scan
   and the first pipeline breaker (following the probe side of joins,
   exactly as the spine does), each resolved to a source column.  A
   segment whose zone map excludes any of them cannot contribute a row
   to the pipeline, so the driver may skip it without changing results —
   only the [storage.segments_skipped] counter. *)
let segment_keep stream =
  let rec go q acc =
    match q with
    | Select (p, child) ->
      let add acc c =
        match c with
        | Eq_const (col, v) -> (
          match prefix_col child col with
          | Some bc -> `Eq (bc, v) :: acc
          | None -> acc)
        | Lt_const (col, v) -> (
          match prefix_col child col with
          | Some bc -> `Lt (bc, v) :: acc
          | None -> acc)
        | _ -> acc
      in
      go child (List.fold_left add acc (conjuncts p []))
    | Project (_, child) -> go child acc
    | Equi_join { left; right; _ } ->
      go (if join_build_left left right then right else left) acc
    | _ -> acc
  in
  let prunes = go stream [] in
  fun (seg : Segsrc.seg) ->
    List.for_all
      (function
        | `Eq (c, v) -> v >= seg.Segsrc.mins.(c) && v <= seg.Segsrc.maxs.(c)
        | `Lt (c, v) -> seg.Segsrc.mins.(c) < v)
      prunes

(* --- pipelined executor --- *)

(* Per-node execution meters for EXPLAIN ANALYZE: row counts are bumped
   by counting kernels spliced into the chain (atomically — morsels run
   in parallel); batches and wall time are stamped per pipeline by the
   driving thread. *)
type node_meter = {
  rows : int Atomic.t;
  mutable batches : int;
  mutable seconds : float;
}

type mctx = { mutable meters : (t * node_meter) list }

let meter_of m p =
  match List.find_opt (fun (q, _) -> q == p) m.meters with
  | Some (_, nm) -> nm
  | None ->
    let nm = { rows = Atomic.make 0; batches = 0; seconds = 0. } in
    m.meters <- (p, nm) :: m.meters;
    nm

let count_kernel nm (next : Pipeline.kernel) =
  {
    Pipeline.push =
      (fun b ->
        ignore (Atomic.fetch_and_add nm.rows (Batch.length b));
        next.Pipeline.push b);
    flush = next.Pipeline.flush;
  }

(* Executes [p] on the pipelined engine.  Streaming spines
   (Scan→Select→Project→probe chains) run batch-at-a-time into a single
   sink; only hash build sides, [Distinct] (a dedup sink) and
   [Order_by] materialize. *)
let run_pipelined ?pool ?m p =
  ignore (columns p);
  let bytes = ref 0 in
  let meter q = Option.map (fun m -> meter_of m q) m in
  let with_meter q next =
    match meter q with Some nm -> count_kernel nm next | None -> next
  in
  (* [spine ~keep q] decomposes the streaming prefix of [q]: returns
     its source (a resident table, or a segmented scan pruned by
     [keep]), a kernel-chain builder (applied to the terminal kernel),
     and the streaming nodes of the pipeline for metering. *)
  let rec exec p : Table.t =
    match p with
    | Scan tbl ->
      (match meter p with
      | Some nm -> Atomic.set nm.rows (Table.nrows tbl)
      | None -> ());
      tbl
    | Order_by (key, child) ->
      let t0 = Obs.now () in
      let input = exec child in
      let out = Sort.sort input key in
      note_intermediate bytes out;
      (match meter p with
      | Some nm ->
        Atomic.set nm.rows (Table.nrows out);
        nm.seconds <- Obs.now () -. t0
      | None -> ());
      out
    | Distinct (key, child) ->
      let kcols =
        match key with
        | Some k -> k
        | None -> Array.init (width child) Fun.id
      in
      drive ~root:p ~dedup:(Some kcols) child
    | Scan_segments _ | Select _ | Project _ | Equi_join _ ->
      drive ~root:p ~dedup:None p
  and drive ~root ~dedup stream =
    let t0 = Obs.now () in
    let src, build, nodes = spine ~keep:(segment_keep stream) stream in
    let sink =
      Sink.create ?dedup_key:dedup
        ~reserve:(estimate_rows root)
        ~weighted:(plan_weighted stream) ~name:"pipeline" (columns stream)
    in
    let chain s = build (Pipeline.into_sink s) in
    let make_sink () = Sink.clone_empty sink in
    let batches = Pipeline.run ?pool ~source:src ~make_sink ~chain ~sink () in
    let out = Sink.table sink in
    note_intermediate bytes out;
    let elapsed = Obs.now () -. t0 in
    (if dedup <> None then
       let obs = Obs.ambient () in
       if Obs.enabled obs then begin
         Sink.record_distinct_obs obs sink;
         Obs.add_time obs "distinct.seconds" elapsed
       end);
    (match m with
    | Some _ ->
      List.iter
        (fun q ->
          match meter q with
          | Some nm ->
            nm.batches <- batches;
            nm.seconds <- elapsed
          | None -> ())
        (root :: nodes);
      (match meter root with
      | Some nm -> Atomic.set nm.rows (Table.nrows out)
      | None -> ())
    | None -> ());
    out
  and spine ~keep q =
    match q with
    | Select (pred, child) ->
      let src, build, nodes = spine ~keep child in
      let pb = compile_pred_batch pred in
      ( src,
        (fun next -> build (Pipeline.select pb ~next:(with_meter q next))),
        q :: nodes )
    | Project (cols, child) ->
      let weighted = plan_weighted child in
      let src, build, nodes = spine ~keep child in
      ( src,
        (fun next ->
          build
            (Pipeline.project ~cols ~weighted ~next:(with_meter q next) ())),
        q :: nodes )
    | Equi_join { left; right; lkey; rkey } ->
      let build_left = join_build_left left right in
      let bplan, bkey, pplan, pkey =
        if build_left then (left, lkey, right, rkey)
        else (right, rkey, left, lkey)
      in
      let btbl = exec bplan in
      let bidx = Index.build btbl bkey in
      let out = join_out ~build_left (width left) (width right) in
      let src, build, nodes = spine ~keep pplan in
      ( src,
        (fun next ->
          build
            (Pipeline.probe bidx ~pkey ~out ~oweight:Pipeline.No_weight
               ~next:(with_meter q next) ())),
        q :: nodes )
    | Scan_segments s ->
      (match meter q with
      | Some nm -> Atomic.set nm.rows (Segsrc.rows s)
      | None -> ());
      (Pipeline.Segments { src = s; keep }, Fun.id, [ q ])
    | Scan _ | Distinct _ | Order_by _ ->
      (Pipeline.of_table (exec q), Fun.id, [])
  in
  let out = exec p in
  record_intermediate_bytes bytes;
  out

let run ?pool p = run_pipelined ?pool p

(* --- explain --- *)

(* Pipeline membership, for EXPLAIN annotations: every streaming node
   belongs to the pipeline that consumes its batches; breakers terminate
   their child's pipeline and source a new one.  Computed with the same
   build-side rule the executors use. *)
let pipeline_annotations p =
  let acc = ref [] in
  let next = ref 0 in
  let fresh () =
    let id = !next in
    incr next;
    id
  in
  let add q note = acc := (q, note) :: !acc in
  let rec assign ~pid q =
    match q with
    | Scan _ | Scan_segments _ -> add q (Printf.sprintf "pipeline %d" pid)
    | Select (_, child) | Project (_, child) ->
      add q (Printf.sprintf "pipeline %d" pid);
      assign ~pid child
    | Equi_join { left; right; _ } ->
      let build_left = join_build_left left right in
      add q
        (Printf.sprintf "pipeline %d, build=%s" pid
           (if build_left then "left" else "right"));
      let bplan, pplan = if build_left then (left, right) else (right, left) in
      assign ~pid:(fresh ()) bplan;
      assign ~pid pplan
    | Distinct (_, child) ->
      let child_pid = fresh () in
      add q (Printf.sprintf "breaker: dedup sink of pipeline %d" child_pid);
      assign ~pid:child_pid child
    | Order_by (_, child) ->
      let child_pid = fresh () in
      add q (Printf.sprintf "breaker: sort of pipeline %d" child_pid);
      assign ~pid:child_pid child
  in
  assign ~pid:(fresh ()) p;
  !acc

let annotation_for annots q =
  match List.find_opt (fun (n, _) -> n == q) annots with
  | Some (_, note) -> note
  | None -> ""

let rec explain_node ppf ~annots ~indent p =
  let pad = String.make indent ' ' in
  let schema = String.concat ", " (Array.to_list (columns p)) in
  let est = estimate_rows p in
  let note =
    match annotation_for annots p with "" -> "" | n -> "  [" ^ n ^ "]"
  in
  (match p with
  | Scan tbl ->
    Format.fprintf ppf "%sSeq Scan on %s  (rows=%d)%s@," pad (Table.name tbl)
      (Table.nrows tbl) note
  | Scan_segments s ->
    Format.fprintf ppf "%sSegment Scan on %s  (segments=%d rows=%d)%s@," pad
      s.Segsrc.name
      (Array.length s.Segsrc.segs)
      (Segsrc.rows s) note
  | Select (_, _) -> Format.fprintf ppf "%sFilter  (est=%d)%s@," pad est note
  | Project (cols, _) ->
    Format.fprintf ppf "%sProject [%s]  (est=%d)%s@," pad
      (String.concat ";" (Array.to_list (Array.map string_of_int cols)))
      est note
  | Equi_join { lkey; rkey; _ } ->
    Format.fprintf ppf "%sHash Join on %s = %s  (est=%d)%s@," pad
      (String.concat "," (Array.to_list (Array.map string_of_int lkey)))
      (String.concat "," (Array.to_list (Array.map string_of_int rkey)))
      est note
  | Distinct (_, _) -> Format.fprintf ppf "%sDistinct  (est=%d)%s@," pad est note
  | Order_by (key, _) ->
    Format.fprintf ppf "%sSort by [%s]  (est=%d)%s@," pad
      (String.concat ";" (Array.to_list (Array.map string_of_int key)))
      est note);
  Format.fprintf ppf "%s  -> [%s]@," pad schema;
  match p with
  | Scan _ | Scan_segments _ -> ()
  | Select (_, c) | Project (_, c) | Distinct (_, c) | Order_by (_, c) ->
    explain_node ppf ~annots ~indent:(indent + 2) c
  | Equi_join { left; right; _ } ->
    explain_node ppf ~annots ~indent:(indent + 2) left;
    explain_node ppf ~annots ~indent:(indent + 2) right

let explain ppf p =
  let annots = pipeline_annotations p in
  Format.fprintf ppf "@[<v>";
  explain_node ppf ~annots ~indent:0 p;
  Format.fprintf ppf "@]"

(* --- explain analyze --- *)

type analysis = {
  op : string;
  schema : string array;
  est_rows : int;
  rows : int;
  batches : int;
  seconds : float;
  children : analysis list;
}

let node_label = function
  | Scan tbl -> Printf.sprintf "Seq Scan on %s" (Table.name tbl)
  | Scan_segments s ->
    Printf.sprintf "Segment Scan on %s (%d segments)" s.Segsrc.name
      (Array.length s.Segsrc.segs)
  | Select (_, _) -> "Filter"
  | Project (cols, _) ->
    Printf.sprintf "Project [%s]"
      (String.concat ";" (Array.to_list (Array.map string_of_int cols)))
  | Equi_join { lkey; rkey; _ } ->
    Printf.sprintf "Hash Join on %s = %s"
      (String.concat "," (Array.to_list (Array.map string_of_int lkey)))
      (String.concat "," (Array.to_list (Array.map string_of_int rkey)))
  | Distinct (_, _) -> "Distinct"
  | Order_by (key, _) ->
    Printf.sprintf "Sort by [%s]"
      (String.concat ";" (Array.to_list (Array.map string_of_int key)))

let analyze ?pool p =
  let m = { meters = [] } in
  let table = run_pipelined ?pool ~m p in
  let rec build q =
    let nm = meter_of m q in
    {
      op = node_label q;
      schema = columns q;
      est_rows = estimate_rows q;
      rows = Atomic.get nm.rows;
      batches = nm.batches;
      seconds = nm.seconds;
      children =
        (match q with
        | Scan _ | Scan_segments _ -> []
        | Select (_, c) | Project (_, c) | Distinct (_, c) | Order_by (_, c)
          ->
          [ build c ]
        | Equi_join { left; right; _ } -> [ build left; build right ]);
    }
  in
  (table, build p)

let rec pp_analysis_node ppf ~indent a =
  let pad = String.make indent ' ' in
  Format.fprintf ppf "%s%s  (est=%d rows=%d time=%.3fms%s)@," pad a.op
    a.est_rows a.rows (a.seconds *. 1e3)
    (if a.batches > 0 then Printf.sprintf " batches=%d" a.batches else "");
  Format.fprintf ppf "%s  -> [%s]@," pad
    (String.concat ", " (Array.to_list a.schema));
  List.iter (pp_analysis_node ppf ~indent:(indent + 2)) a.children

let pp_analysis ppf a =
  Format.fprintf ppf "@[<v>";
  pp_analysis_node ppf ~indent:0 a;
  Format.fprintf ppf "@]"

let rec analysis_to_json a =
  Obs.Json.Obj
    [
      ("op", Obs.Json.String a.op);
      ( "schema",
        Obs.Json.List
          (Array.to_list (Array.map (fun c -> Obs.Json.String c) a.schema)) );
      ("est_rows", Obs.Json.Int a.est_rows);
      ("rows", Obs.Json.Int a.rows);
      ("batches", Obs.Json.Int a.batches);
      ("seconds", Obs.Json.Float a.seconds);
      ("children", Obs.Json.List (List.map analysis_to_json a.children));
    ]
