module Table = Relational.Table
module Join = Relational.Join
module Ops = Relational.Ops
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
  let first_distribution = ref true in
  (* MLN tables are small: replicate them once. *)
  let m_repl =
    List.filter_map
      (fun pat ->
        if Mln.Partition.count parts pat = 0 then None
        else begin
          let tbl = Mln.Partition.table parts pat in
          let bytes = Table.byte_size tbl * (cluster.Mpp.Cluster.nseg - 1) in
          Mpp.Cost.charge cost
            (Mpp.Cost.Broadcast
               { table = Table.name tbl; rows = Table.nrows tbl; bytes })
            (cluster.Mpp.Cluster.motion_latency_s
            +. (float_of_int bytes /. cluster.Mpp.Cluster.bandwidth_bytes_per_s));
          Some (pat, Mpp.Dtable.partition cluster tbl Mpp.Dtable.Replicated)
        end)
      Pattern.all
  in
  load_sim := Mpp.Cost.elapsed cost;
  (* Distribution refresh.  Greenplum ships only the rows inserted since
     the previous iteration (the views are distributed tables receiving
     INSERTs), so motions are charged on the delta; the re-partition
     itself is executed materially on the whole table. *)
  let prev_rows = ref 0 in
  (* The pn table of the last distribution: a new distribution replaces
     it, so the stores of its spilled shards are removed then. *)
  let last_pn = ref None in
  let distribute_facts () =
    Option.iter Mpp.Dtable.remove_spilled !last_pn;
    last_pn := None;
    let facts = Storage.table pi in
    let delta = max 0 (Table.nrows facts - !prev_rows) in
    prev_rows := Table.nrows facts;
    let charge_delta copies =
      let nseg = cluster.Mpp.Cluster.nseg in
      let bytes =
        copies * delta * Table.row_bytes facts * (nseg - 1) / max 1 nseg
      in
      let label = if !first_distribution then "T_Pi(load)" else "T_Pi(delta)" in
      let seconds =
        cluster.Mpp.Cluster.motion_latency_s
        +. (float_of_int bytes /. cluster.Mpp.Cluster.bandwidth_bytes_per_s)
      in
      Mpp.Cost.charge cost
        (Mpp.Cost.Redistribute { table = label; rows = copies * delta; bytes })
        seconds;
      if !first_distribution then begin
        load_sim := !load_sim +. seconds;
        first_distribution := false
      end
    in
    match mode with
    | Views ->
      charge_delta (List.length Mpp.Matview.distribution_keys);
      let silent = Mpp.Cost.create () in
      `Views
        (Obs.with_span obs "matview build" ~cat:"mpp"
           ~attrs:[ ("rows", Obs.I (Table.nrows facts)) ]
           (fun () -> Mpp.Matview.create cluster silent facts))
    | No_views ->
      charge_delta 1;
      (* ProbKB-pn with out-of-core shards: once the fact table crosses
         the spill threshold, each hash shard lives in its own segment
         store and local joins read it back through the mmap — so
         [measured_seconds] includes the shard I/O. *)
      let dt =
        match options.spill with
        | Some policy when Spill.should_spill policy facts ->
          Obs.with_span obs "spill shards" ~cat:"mpp"
            ~attrs:[ ("rows", Obs.I (Table.nrows facts)) ]
            (fun () ->
              Mpp.Dtable.partition_spilled policy ~prefix:"pn" cluster facts
                (Mpp.Dtable.Hash [| 0 |]))
        | _ -> Mpp.Dtable.partition cluster facts (Mpp.Dtable.Hash [| 0 |])
      in
      last_pn := Some dt;
      `Pn dt
  in
  let djoin = Mpp.Djoin.hash_join cluster cost in
  let run_pattern distributed pat ~factors =
    let s = Queries.shape_of pat in
    let m = List.assoc pat m_repl in
    (* Joins against the replicated Mi tables are collocated under any
       distribution, so they read the finest (best-balanced) replica; the
       J ⋈ TΠ join needs the view aligned with its key. *)
    let balanced_view () =
      match distributed with
      | `Views v -> Mpp.Matview.finest v
      | `Pn dt -> dt
    in
    let view key =
      match distributed with
      | `Views v -> Mpp.Matview.pick v key
      | `Pn dt -> dt
    in
    let cols = if factors then Queries.atom_i_cols else Queries.atom_cols in
    let out = if factors then Queries.factors_out s else Queries.atoms_out s in
    let oweight =
      if factors then Join.Weight_of Join.Build else Join.No_weight
    in
    Mpp.Dtable.gather
      (match s with
      | Shape.One_atom s1 ->
        djoin ~name:(Pattern.to_string pat) ~cols ~out ~oweight ~dedup:true
          (m, s1.m_key)
          (balanced_view (), s1.t_key)
      | Shape.Two_atom s2 ->
        let j =
          djoin
            ~name:(Pattern.to_string pat ^ "_J")
            ~cols:Queries.j_cols ~out:(Queries.step1_out s)
            ~oweight:(Join.Weight_of Join.Build) ~dedup:true (m, s2.m_key1)
            (balanced_view (), s2.t_key1)
        in
        djoin ~name:(Pattern.to_string pat) ~cols ~out ~oweight ~dedup:true
          (j, s2.j_key2)
          (view s2.t_key2, s2.t_key2))
  in
  (* The distributed plans have no delta terms, so every iteration runs
     the full query and ignores the delta's first id — which
     {!Ground.executor} allows: it merges into the same facts as the
     delta query. *)
  let atoms ~delta_from:_ patterns =
    (* redistribute(TΠ): refresh the views / re-load the pn table. *)
    let distributed =
      Obs.with_span obs "distribute" ~cat:"mpp" distribute_facts
    in
    List.map
      (fun pat ->
        Obs.with_span obs
          (Printf.sprintf "M%d" (Pattern.index pat + 1))
          ~cat:"mpp"
          (fun () ->
            let gathered = run_pattern distributed pat ~factors:false in
            let distinct = Ops.distinct gathered [| 0; 1; 2; 3; 4 |] in
            distributed_step cluster cost "distinct+merge"
              (Table.nrows gathered) (Table.row_bytes gathered);
            (pat, distinct)))
      patterns
  in
  let factors () =
    let distributed = distribute_facts () in
    fun pat graph ->
      let rows = run_pattern distributed pat ~factors:true in
      distributed_step cluster cost "resolve heads" (Table.nrows rows)
        (Table.row_bytes rows);
      Queries.resolve_heads rows pi graph
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
  { Ground.stage = "mpp"; cat = "mpp"; atoms; factors; singletons; point_data }

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
