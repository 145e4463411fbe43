type t =
  | Scan of Table.t
  | Project of int array * t
  | Equi_join of { left : t; right : t; lkey : int array; rkey : int array }
  | Distinct of int array option * t

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

let width p = Array.length (columns p)

(* --- cardinality estimation --- *)

(* Trace an output column back to the statistics of the base table it
   is read from: columns pass through projections, joins and DISTINCT
   unchanged, so distinct counts can use {!Colstats} instead of textbook
   constants. *)
let rec resolve_col p c =
  match p with
  | Scan tbl -> Some (Colstats.stats_for tbl, c)
  | Distinct (_, child) -> resolve_col child c
  | Project (cols, child) -> resolve_col child cols.(c)
  | Equi_join { left; right; _ } ->
    let lw = width left in
    if c < lw then resolve_col left c else resolve_col right (c - lw)

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

(* --- shared physical choices --- *)

(* Build side of an equi-join: the smaller estimated input.  A static
   rule — the streaming engine cannot know actual cardinalities before
   running — that the materializing test oracle follows too, so the two
   engines' output orders (probe order × hash-chain order) are
   bit-identical. *)
let join_build_left left right = estimate_rows left <= estimate_rows right

let rec plan_weighted = function
  | Scan tbl -> Table.weighted tbl
  | Project (_, child) | Distinct (_, child) -> plan_weighted child
  | Equi_join _ -> false

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
   materializes (pipeline sinks, not base scans) is summed and the
   per-run total reported as a high-water gauge. *)
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

(* --- pipelined executor --- *)

(* Per-node execution meters for EXPLAIN ANALYZE: row counts are bumped
   by counting kernels spliced into the chain; batches and wall time are
   stamped per pipeline. *)
type node_meter = {
  mutable rows : int;
  mutable batches : int;
  mutable seconds : float;
}

type mctx = { mutable meters : (t * node_meter) list }

let meter_of m p =
  match List.find_opt (fun (q, _) -> q == p) m.meters with
  | Some (_, nm) -> nm
  | None ->
    let nm = { rows = 0; batches = 0; seconds = 0. } in
    m.meters <- (p, nm) :: m.meters;
    nm

let count_kernel nm (next : Pipeline.kernel) =
  {
    Pipeline.push =
      (fun b ->
        nm.rows <- nm.rows + Batch.length b;
        next.Pipeline.push b);
    flush = next.Pipeline.flush;
  }

(* Executes [p] on the pipelined engine.  Streaming spines
   (Scan→Project→probe chains) run batch-at-a-time into a single sink;
   only hash build sides and [Distinct] (a dedup sink) materialize. *)
let run_pipelined ?m p =
  ignore (columns p);
  let bytes = ref 0 in
  let meter q = Option.map (fun m -> meter_of m q) m in
  let with_meter q next =
    match meter q with Some nm -> count_kernel nm next | None -> next
  in
  let rec exec p : Table.t =
    match p with
    | Scan tbl ->
      Option.iter (fun nm -> nm.rows <- Table.nrows tbl) (meter p);
      tbl
    | Distinct (key, child) ->
      let kcols =
        match key with
        | Some k -> k
        | None -> Array.init (width child) Fun.id
      in
      drive ~root:p ~dedup:(Some kcols) child
    | Project _ | Equi_join _ -> drive ~root:p ~dedup:None p
  and drive ~root ~dedup stream =
    let t0 = Obs.now () in
    let src, build, nodes = spine stream in
    let sink =
      Sink.create ?dedup_key:dedup
        ~reserve:(estimate_rows root)
        ~weighted:(plan_weighted stream) ~name:"pipeline" (columns stream)
    in
    let batches =
      Pipeline.run ~source:(Pipeline.of_table src)
        (build (Pipeline.into_sink sink))
    in
    let out = Sink.table sink in
    note_intermediate bytes out;
    let elapsed = Obs.now () -. t0 in
    (if dedup <> None then
       let obs = Obs.ambient () in
       if Obs.enabled obs then begin
         Sink.record_distinct_obs obs sink;
         Obs.add_time obs "distinct.seconds" elapsed
       end);
    if m <> None then begin
      List.iter
        (fun q ->
          Option.iter
            (fun nm ->
              nm.batches <- batches;
              nm.seconds <- elapsed)
            (meter q))
        (root :: nodes);
      Option.iter (fun nm -> nm.rows <- Table.nrows out) (meter root)
    end;
    out
  (* [spine q] decomposes the streaming prefix of [q]: returns its
     source table, a kernel-chain builder (applied to the terminal
     kernel), and the streaming nodes of the pipeline for metering. *)
  and spine q =
    match q with
    | Project (cols, child) ->
      let weighted = plan_weighted child in
      let src, build, nodes = spine child in
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
      let src, build, nodes = spine pplan in
      ( src,
        (fun next ->
          build
            (Pipeline.probe bidx ~pkey ~out ~oweight:Pipeline.No_weight
               ~next:(with_meter q next) ())),
        q :: nodes )
    | Scan _ | Distinct _ -> (exec q, Fun.id, [])
  in
  let out = exec p in
  record_intermediate_bytes bytes;
  out

let run p = run_pipelined p

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
  | Project (cols, _) ->
    Printf.sprintf "Project [%s]"
      (String.concat ";" (Array.to_list (Array.map string_of_int cols)))
  | Equi_join { lkey; rkey; _ } ->
    Printf.sprintf "Hash Join on %s = %s"
      (String.concat "," (Array.to_list (Array.map string_of_int lkey)))
      (String.concat "," (Array.to_list (Array.map string_of_int rkey)))
  | Distinct (_, _) -> "Distinct"

let analyze p =
  let m = { meters = [] } in
  let table = run_pipelined ~m p in
  let rec build q =
    let nm = meter_of m q in
    {
      op = node_label q;
      schema = columns q;
      est_rows = estimate_rows q;
      rows = nm.rows;
      batches = nm.batches;
      seconds = nm.seconds;
      children =
        (match q with
        | Scan _ -> []
        | Project (_, c) | Distinct (_, c) -> [ build c ]
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
