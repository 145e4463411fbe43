module Table = Relational.Table
module Join = Relational.Join
module Pattern = Mln.Pattern

(* The spill alias must precede the [Kb.Storage] rebinding: [Storage]
   names the out-of-core library only up to the next line. *)
module Spill = Storage.Spill
module Storage = Kb.Storage
module Fgraph = Factor_graph.Fgraph
module Shape = Queries.Shape

type mode = Views | No_views

type options = {
  max_iterations : int;
  apply_constraints : (Storage.t -> int * int) option;
  build_factors : bool;
  on_iteration :
    (iteration:int -> new_facts:int -> sim_elapsed:float -> unit) option;
  spill : Spill.t option;
  obs : Obs.t;
}

let default_options =
  {
    max_iterations = 15;
    apply_constraints = None;
    build_factors = true;
    on_iteration = None;
    spill = None;
    obs = Obs.null;
  }

type result = {
  ground : Ground.result;
  graph : Fgraph.t;
  sim_seconds : float;
  measured_seconds : float;
  load_sim_seconds : float;
  motion_bytes : int;
  cost : Mpp.Cost.t;
}

(* In Greenplum the INSERT ... SELECT that merges new facts, the head
   resolution and the singleton scan all run distributed; this executor
   runs them materially on the coordinator (so results can be compared
   bit-for-bit with the single-node engine) but charges them at the
   distributed rate: one motion that ships the rows to their home segments
   plus balanced per-segment CPU. *)
let distributed_step cluster cost label rows row_bytes =
  let nseg = cluster.Mpp.Cluster.nseg in
  let bytes = rows * row_bytes * (nseg - 1) / max 1 nseg in
  Mpp.Cost.charge cost
    (Mpp.Cost.Redistribute { table = label; rows; bytes })
    (cluster.Mpp.Cluster.motion_latency_s
    +. (float_of_int bytes /. cluster.Mpp.Cluster.bandwidth_bytes_per_s));
  Mpp.Cost.charge cost
    (Mpp.Cost.Coordinator { label; rows })
    (float_of_int (rows / max 1 nseg + 1) *. cluster.Mpp.Cluster.cost_per_row)

(* The MPP executor: distribution, the [Djoin] plans and every cost
   charge.  One-time distribution work (replicating the MLN tables,
   building the initial views / base table) is load, not query time — the
   paper's Table 3 accounts it in the Load column — so its simulated
   seconds also go to [load_sim]. *)
let executor options mode cluster cost ~load_sim kb =
  let obs = options.obs in
  let pi = Kb.Gamma.pi kb in
  let parts = Kb.Gamma.partitions kb in
  let nseg = cluster.Mpp.Cluster.nseg in
  let motion_seconds bytes =
    cluster.Mpp.Cluster.motion_latency_s
    +. (float_of_int bytes /. cluster.Mpp.Cluster.bandwidth_bytes_per_s)
  in
  (* MLN tables are small: replicate them once — each pattern's rules
     and, for a two-atom pattern, their mirror, which its r-atom delta
     term joins. *)
  let replicate tbl =
    let bytes = Table.byte_size tbl * (nseg - 1) in
    Mpp.Cost.charge cost
      (Mpp.Cost.Broadcast
         { table = Table.name tbl; rows = Table.nrows tbl; bytes })
      (motion_seconds bytes);
    Mpp.Dtable.partition cluster tbl Mpp.Dtable.Replicated
  in
  let m_repl =
    List.filter_map
      (fun pat ->
        if Mln.Partition.count parts pat = 0 then None
        else begin
          let tbl = Mln.Partition.table parts pat in
          let m = replicate tbl in
          let mirror =
            match Queries.shape_of pat with
            | Shape.One_atom _ -> None
            | Shape.Two_atom _ ->
              Some (replicate (Queries.mirror_rule_table pat tbl))
          in
          Some (pat, (m, mirror))
        end)
      Pattern.all
  in
  load_sim := Mpp.Cost.elapsed cost;
  (* redistribute(TΠ) (Algorithm 1, line 7).  Greenplum's views and pn
     shards are distributed tables that receive INSERTs: each
     distribution appends the rows TΠ gained since the previous one, and
     the motion is charged on those rows.  A distribution holds one
     table value; only a new one — an Ω pass compacted TΠ, so its rows
     moved — or a resident pn table that must now spill is built
     afresh, and the stores of the spilled shards it replaces are
     removed. *)
  let placed = ref None in
  let prev_rows = ref 0 in
  let first_distribution = ref true in
  let charge_delta facts copies =
    let delta = max 0 (Table.nrows facts - !prev_rows) in
    prev_rows := Table.nrows facts;
    let bytes =
      copies * delta * Table.row_bytes facts * (nseg - 1) / max 1 nseg
    in
    let label = if !first_distribution then "T_Pi(load)" else "T_Pi(delta)" in
    let seconds = motion_seconds bytes in
    Mpp.Cost.charge cost
      (Mpp.Cost.Redistribute { table = label; rows = copies * delta; bytes })
      seconds;
    if !first_distribution then begin
      load_sim := !load_sim +. seconds;
      first_distribution := false
    end
  in
  (* ProbKB-pn with out-of-core shards: once [facts] crosses the spill
     threshold, each hash shard lives in its own segment store and local
     joins probe it from there — so [measured_seconds] includes the
     shard I/O. *)
  let spill_policy facts =
    match (mode, options.spill) with
    | No_views, Some policy when Spill.should_spill policy facts -> Some policy
    | No_views, _ | Views, _ -> None
  in
  let spilled = function
    | `Pn dt -> Mpp.Dtable.spilled dt 0
    | `Views _ -> false
  in
  let rows_attr facts = [ ("rows", Obs.I (Table.nrows facts)) ] in
  let build facts =
    Obs.incr obs "mpp.distribution_builds";
    let pn = Mpp.Dtable.Hash [| 0 |] in
    match (mode, spill_policy facts) with
    | Views, _ ->
      `Views
        (Obs.with_span obs "matview build" ~cat:"mpp" ~attrs:(rows_attr facts)
           (fun () -> Mpp.Matview.create cluster (Mpp.Cost.create ()) facts))
    | No_views, Some policy ->
      `Pn
        (Obs.with_span obs "spill shards" ~cat:"mpp" ~attrs:(rows_attr facts)
           (fun () ->
             Mpp.Dtable.partition_spilled policy ~prefix:"pn" cluster facts pn))
    | No_views, None -> `Pn (Mpp.Dtable.partition cluster facts pn)
  in
  let distribute () =
    let facts = Storage.table pi in
    let n = Table.nrows facts in
    charge_delta facts
      (match mode with
      | Views -> List.length Mpp.Matview.distribution_keys
      | No_views -> 1);
    let d =
      match !placed with
      | Some (mirrored, held, d)
        when mirrored == facts && spilled d = Option.is_some (spill_policy facts)
        ->
        if n > held then begin
          Obs.add obs "mpp.rows_appended" (n - held);
          Obs.with_span obs "append" ~cat:"mpp"
            ~attrs:[ ("rows", Obs.I (n - held)) ]
            (fun () ->
              match d with
              | `Views v -> Mpp.Matview.append v facts ~from:held
              | `Pn dt -> Mpp.Dtable.append dt facts ~from:held)
        end;
        d
      | stale ->
        Option.iter
          (function
            | _, _, `Pn dt -> Mpp.Dtable.remove_spilled dt
            | _, _, `Views _ -> ())
          stale;
        build facts
    in
    placed := Some (facts, n, d);
    d
  in
  (* Joins against the replicated rule tables are collocated under any
     distribution, so Δ is distributed like the finest (best-balanced)
     replica; the J ⋈ TΠ join reads the view aligned with its key. *)
  let balanced = function `Views v -> Mpp.Matview.finest v | `Pn dt -> dt in
  let view key = function
    | `Views v -> Mpp.Matview.pick v key
    | `Pn dt -> dt
  in
  let djoin = Mpp.Djoin.hash_join cluster cost in
  (* One union term of Query 1-i: the rules [m] (replicated) joined with
     [delta] as the q atom of [pat], or — [mirrored] — of its mirror,
     which binds Δ to [pat]'s r atom; a two-atom term then joins J with
     all of TΠ, J staying the build side.  The rows are derivations:
     head, body ids in [pat]'s orientation (Queries.factors_out) and
     rule weight, every one kept.  A term whose J is empty skips step 2
     and its motions: [None]. *)
  let term d pat m ~delta ~mirrored =
    let s =
      Queries.shape_of (if mirrored then Queries.mirror_pattern pat else pat)
    in
    let name = Pattern.to_string pat ^ if mirrored then "_r" else "" in
    let out =
      if mirrored then Queries.factors_out_swapped s else Queries.factors_out s
    in
    let derive b p =
      Some
        (Mpp.Dtable.gather
           (djoin ~name ~cols:Queries.atom_i_cols ~out
              ~oweight:(Join.Weight_of Join.Build) b p))
    in
    match s with
    | Shape.One_atom s1 -> derive (m, s1.m_key) (delta, s1.t_key)
    | Shape.Two_atom s2 ->
      let j =
        djoin ~name:(name ^ "_J") ~cols:Queries.j_cols
          ~out:(Queries.step1_out s) ~oweight:(Join.Weight_of Join.Build)
          ~dedup:true (m, s2.m_key1) (delta, s2.t_key1)
      in
      if Mpp.Dtable.nrows j = 0 then None
      else derive (j, s2.j_key2) (view s2.t_key2 d, s2.t_key2)
  in
  (* Query 1-i over the derivations with a body fact in Δ, in the
     single-node scan join's order: the q term and, when Δ is the facts
     from id [delta_from] on rather than all of TΠ, a two-atom pattern's
     r term, keeping only the q facts older than Δ — a derivation with
     both body facts in Δ is the q term's.  A segment's local join
     emits its matches in the order of its probe rows — TΠ's, restricted
     to the shard — and, for one probe row, in the build index's chain
     order; a motion keeps the relative order of the rows one segment
     sends.  So the coordinator's stable sort by body ids
     (Queries.scan_order) interleaves the segments' output as one scan
     of TΠ would. *)
  let query d pat ~delta ~delta_from =
    let m, mirror = List.assoc pat m_repl in
    let terms =
      term d pat m ~delta ~mirrored:false
      :: (match (mirror, delta_from) with
         | Some mm, Some id ->
           [
             Option.map
               (fun rows ->
                 Table.filter rows (fun r -> Table.get rows r 5 < id))
               (term d pat mm ~delta ~mirrored:true);
           ]
         | Some _, None | None, _ -> [])
    in
    let rows =
      match List.filter_map Fun.id terms with
      | [] ->
        Table.create ~weighted:true ~name:(Pattern.to_string pat)
          Queries.atom_i_cols
      | first :: rest ->
        List.iter (Table.append_all first) rest;
        first
    in
    Table.sub rows (Queries.scan_order pat rows)
  in
  let atoms ~delta_from patterns =
    let d = Obs.with_span obs "distribute" ~cat:"mpp" distribute in
    (* Δ: the facts from the delta's first id — a suffix of TΠ —
       distributed like the balanced side; without one, all of TΠ. *)
    let delta =
      match delta_from with
      | None -> balanced d
      | Some id ->
        let facts = Storage.table pi in
        let from =
          Table.nrows facts
          - Relational.Pipeline.rows (Storage.rows_from pi id)
        in
        Mpp.Dtable.partition ~from cluster facts (Mpp.Dtable.dist (balanced d))
    in
    List.map
      (fun pat ->
        Obs.with_span obs
          (Printf.sprintf "M%d" (Pattern.index pat + 1))
          ~cat:"mpp"
          (fun () ->
            let rows = query d pat ~delta ~delta_from in
            distributed_step cluster cost "distinct+merge" (Table.nrows rows)
              (Table.row_bytes rows);
            (pat, rows)))
      patterns
  in
  let singletons graph =
    let n = Queries.singleton_factors pi graph in
    distributed_step cluster cost "singletons" n 32;
    n
  in
  (* sim_seconds is deterministic (a cost-model figure, not a clock), so
     it belongs in the snapshot's [data] payload. *)
  let point_data () =
    [
      ("sim_seconds", Obs.F (Mpp.Cost.elapsed cost));
      ("motion_bytes", Obs.I (Mpp.Cost.motion_bytes cost));
    ]
  in
  { Ground.stage = "mpp"; cat = "mpp"; atoms; singletons; point_data }

let run ?(options = default_options) ?(mode = Views) cluster kb =
  let obs = options.obs in
  Obs.with_ambient obs @@ fun () ->
  let cost = Mpp.Cost.create () in
  let load_sim = ref 0. in
  let exec = executor options mode cluster cost ~load_sim kb in
  let ground =
    Ground.drive
      {
        Ground.default_options with
        max_iterations = options.max_iterations;
        apply_constraints = options.apply_constraints;
        build_factors = options.build_factors;
        on_iteration =
          Option.map
            (fun f ~iteration ~new_facts ->
              f ~iteration ~new_facts ~sim_elapsed:(Mpp.Cost.elapsed cost))
            options.on_iteration;
        obs;
      }
      exec kb
  in
  (* Motion and per-segment statistics, derived from the cost trace. *)
  if Obs.enabled obs then begin
    Obs.add obs "mpp.motion_bytes" (Mpp.Cost.motion_bytes cost);
    Obs.add_time obs "mpp.sim_seconds" (Mpp.Cost.elapsed cost);
    List.iter
      (fun (e : Mpp.Cost.entry) ->
        match e.op with
        | Mpp.Cost.Redistribute _ | Mpp.Cost.Broadcast _ | Mpp.Cost.Gather _ ->
          Obs.incr obs "mpp.motions"
        | Mpp.Cost.Hash_join { rows_out; max_seg_rows; _ } ->
          Obs.add_time obs "mpp.join_busy_seconds" e.sim_seconds;
          let nseg = cluster.Mpp.Cluster.nseg in
          if rows_out > 0 && nseg > 1 then
            Obs.gauge_max obs "mpp.seg_skew"
              (float_of_int (max_seg_rows * nseg) /. float_of_int rows_out)
        | Mpp.Cost.Seq_scan _ | Mpp.Cost.Coordinator _ -> ())
      (Mpp.Cost.entries cost)
  end;
  {
    ground;
    graph = ground.Ground.graph;
    sim_seconds = Mpp.Cost.elapsed cost;
    measured_seconds = Mpp.Cost.measured_seconds cost;
    load_sim_seconds = !load_sim;
    motion_bytes = Mpp.Cost.motion_bytes cost;
    cost;
  }
