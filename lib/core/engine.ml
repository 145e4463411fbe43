module Gamma = Kb.Gamma
module Storage = Kb.Storage
module Table = Relational.Table

type t = {
  kb : Gamma.t;
  config : Config.t;
  trace : Obs.t;
  mutable read : Snapshot.t option;
      (* lazily-built read view (backward-walk source + clamps) for
         [query_local]; dropped whenever facts or rules change under it —
         including session epochs committed over this engine *)
}

let create ?(config = Config.default) kb =
  { kb; config; trace = Obs.create ~config:config.Config.obs (); read = None }

let kb t = t.kb
let config t = t.config
let trace t = t.trace

type expansion = {
  graph : Factor_graph.Fgraph.t;
  iterations : int;
  converged : bool;
  trajectory : Grounding.Ground.trajectory_point list;
  new_fact_count : int;
  removed_by_constraints : int;
  n_factors : int;
  rules_used : int;
  wall_seconds : float;
  sim_seconds : float option;
  obs : Obs.Summary.t;
}

let clean_rules t =
  let theta = t.config.Config.quality.Config.rule_theta in
  if theta >= 1.0 then List.length (Gamma.rules t.kb)
  else begin
    (* Without learner scores, the MLN weight is the best available
       statistical-significance surrogate (paper, Section 5.3). *)
    let scored = Quality.Rule_cleaning.score_by_weight (Gamma.rules t.kb) in
    let kept = Quality.Rule_cleaning.clean ~theta scored in
    Gamma.set_rules t.kb kept;
    List.length kept
  end

let constraint_hook t =
  if t.config.Config.quality.Config.semantic_constraints then
    Some (Quality.Semantic.hook (Gamma.omega t.kb))
  else None

let expand t =
  t.read <- None;
  Obs.with_ambient t.trace @@ fun () ->
  Obs.with_span t.trace "expand" ~cat:"engine" @@ fun () ->
  let rules_used =
    Obs.with_span t.trace "rule cleaning" ~cat:"engine" (fun () ->
        clean_rules t)
  in
  let max_iterations = t.config.Config.max_iterations
  and apply_constraints = constraint_hook t
  and spill = Config.spill_policy t.config
  and obs = t.trace in
  let t0 = Obs.now () in
  let (r : Grounding.Ground.result), sim_seconds =
    match t.config.Config.engine with
    | Config.Single_node ->
      ( Grounding.Ground.run
          ~options:
            {
              Grounding.Ground.default_options with
              max_iterations;
              apply_constraints;
              spill;
              obs;
            }
          t.kb,
        None )
    | Config.Mpp { cluster; views } ->
      let m =
        Grounding.Ground_mpp.run
          ~options:
            {
              Grounding.Ground_mpp.default_options with
              max_iterations;
              apply_constraints;
              spill;
              obs;
            }
          ~mode:
            (if views then Grounding.Ground_mpp.Views
             else Grounding.Ground_mpp.No_views)
          cluster t.kb
      in
      (m.Grounding.Ground_mpp.ground, Some m.Grounding.Ground_mpp.sim_seconds)
  in
  {
    graph = r.graph;
    iterations = r.iterations;
    converged = r.converged;
    trajectory = r.trajectory;
    new_fact_count = r.new_fact_count;
    removed_by_constraints = r.removed_by_constraints;
    n_factors = Factor_graph.Fgraph.size r.graph;
    rules_used;
    wall_seconds = Obs.now () -. t0;
    sim_seconds;
    obs = Obs.Summary.empty;
  }

let expand t =
  let e = expand t in
  { e with obs = Obs.Summary.of_trace t.trace }

let infer_full t e =
  match t.config.Config.inference with
  | None -> (Hashtbl.create 0, None)
  | Some m ->
    Obs.with_ambient t.trace @@ fun () ->
    Obs.with_span t.trace "infer" ~cat:"engine" @@ fun () ->
    let marg, info =
      Inference.Marginal.infer_full ~obs:t.trace
        ~checkpoint:t.config.Config.checkpoint_sweeps
        ?early_stop:(Config.early_stop_criteria t.config)
        e.graph m
    in
    (marg, Some info)

let infer t e = fst (infer_full t e)

let store_marginals t marginals =
  Obs.with_span t.trace "store_marginals" ~cat:"engine" @@ fun () ->
  let pi = Gamma.pi t.kb in
  let tbl = Storage.table pi in
  let updated = ref 0 in
  Hashtbl.iter
    (fun id p ->
      match Storage.row_of_id pi id with
      | Some row when Table.is_null_weight (Table.weight tbl row) ->
        Table.set_weight tbl row p;
        incr updated
      | Some _ | None -> ())
    marginals;
  Obs.add t.trace "engine.marginals_stored" !updated;
  !updated

type result = {
  expansion : expansion;
  marginals_stored : int;
  inference : Inference.Marginal.solve_info option;
  obs : Obs.Summary.t;
}

let summary t = Obs.Summary.of_trace t.trace

let run t =
  let expansion = expand t in
  let marginals, inference = infer_full t expansion in
  let marginals_stored = store_marginals t marginals in
  { expansion; marginals_stored; inference; obs = summary t }

(* ------------------------------------------------------------------ *)
(* Query-driven local grounding (point queries without the closure's
   full factor graph).                                                 *)

type local_answer = Snapshot.answer = {
  id : int;
  marginal : float;
  epoch : int;
  interior : int;
  boundary : int;
  hops : int;
  factors : int;
  pruned_mass : float;
  truncated : bool;
  enumerated : bool;
  ground_seconds : float;
  infer_seconds : float;
}

let sigmoid w = 1. /. (1. +. exp (-.w))

let gibbs_options t =
  match t.config.Config.inference with
  | Some (Inference.Marginal.Gibbs o) | Some (Inference.Marginal.Chromatic o)
    ->
    o
  | Some (Inference.Marginal.Hybrid o) -> o.Inference.Hybrid.gibbs
  | _ -> Inference.Gibbs.default_options

(* The engine's read view: a live (graph-less) snapshot over the KB's
   fact indexes.  Cached because [Local.of_kb] memoizes rule-adjacency
   buckets; invalidated whenever facts or rules change — [expand],
   [incorporate], and every session epoch.  The partial-key TΠ indexes
   the walk probes are not the view's: [Storage] owns and maintains
   them, and the delta joins share them. *)
let read_view t =
  match t.read with
  | Some s -> s
  | None ->
    let pi = Gamma.pi t.kb in
    let source =
      Grounding.Local.of_kb
        (Grounding.Queries.prepare (Gamma.partitions t.kb))
        (Gamma.pi t.kb)
    in
    let weight_of id =
      match Storage.row_of_id pi id with
      | Some row -> Some (Table.weight (Storage.table pi) row)
      | None -> None
    in
    (* Boundary facts are clamped to their extraction prior — before
       [store_marginals] the weight column of a base fact still holds
       sigmoid⁻¹-able confidence; [clamp_weight (sigmoid w) = w] restores
       the true prior singleton exactly.  Inferred boundary facts (null
       weight) get the uninformative 0.5. *)
    let clamp bid =
      match weight_of bid with
      | Some w when not (Table.is_null_weight w) -> sigmoid w
      | Some _ | None -> 0.5
    in
    let view_of id =
      match weight_of id with
      | None -> None
      | Some w ->
        Some
          {
            Snapshot.id;
            base = not (Table.is_null_weight w);
            weight = w;
            marginal = None;
          }
    in
    let s =
      Snapshot.live ~gibbs:(gibbs_options t)
        ~exact_max_vars:t.config.Config.exact_max_vars
        ~max_width:t.config.Config.max_width ~obs:t.trace ~view_of ~source
        ~clamp
        ~find:(fun ~r ~x ~c1 ~y ~c2 -> Storage.find pi ~r ~x ~c1 ~y ~c2)
        ~facts:(fun () -> Storage.size pi)
        ~factors:(fun () -> 0)
        ()
    in
    t.read <- Some s;
    s

let query_local ?budget t ~r ~x ~c1 ~y ~c2 =
  Obs.with_ambient t.trace @@ fun () ->
  Snapshot.query_local ?budget (read_view t) ~r ~x ~c1 ~y ~c2

module Session = struct
  type engine = t

  type epoch_stats = {
    epoch : int;
    op : string;
    inserted : int;
    promoted : int;
    derived : int;
    retracted : int;
    cone : int;
    rederived : int;
    violations : int;
    facts : int;
    factors : int;
    wall_seconds : float;
  }

  type t = {
    engine : engine;
    dred : Incremental.Dred.t;
    mutable epoch : int;
    state : (int, bool) Hashtbl.t;
        (* fact id → chain state at the end of the last refresh *)
    marginals : (int, float) Hashtbl.t;  (* fact id → last estimate *)
    touched : (int, unit) Hashtbl.t;
        (* facts whose support changed since the last refresh *)
    mutable last_info : Inference.Chromatic.run_info option;
        (* Chromatic chain state for warm starts (assignment indexes the
           full compiled graph, which is why Hybrid's embedded sampler —
           whose assignment indexes the residual subgraph — never lands
           here) *)
    mutable last_solve : Inference.Marginal.solve_info option;
        (* report of the last refresh, whatever the method *)
    mutable history : epoch_stats list;  (* newest first *)
    mutable read : Snapshot.t option;
        (* frozen snapshot of the current epoch, built on first demand
           and dropped by every epoch mutation *)
  }

  let dred s = s.dred
  let engine s = s.engine
  let kb s = s.engine.kb
  let graph s = Incremental.Dred.graph s.dred
  let epoch s = s.epoch
  let history s = List.rev s.history
  let last_run s = s.last_solve

  let touch s ids = List.iter (fun id -> Hashtbl.replace s.touched id ()) ids

  let forget s ids =
    List.iter
      (fun id ->
        Hashtbl.remove s.state id;
        Hashtbl.remove s.marginals id)
      ids

  let record s ~op ~(ins : Incremental.Dred.ingest_stats)
      ~(ret : Incremental.Dred.retract_stats) ~violations ~wall_seconds =
    s.epoch <- s.epoch + 1;
    (* Every epoch mutation invalidates both read caches: the session's
       frozen snapshot and the engine's memoized backward source (whose
       rule-adjacency buckets would otherwise go stale after
       [retract_rules]/[add_rules] — they are rebuilt on next demand). *)
    s.read <- None;
    s.engine.read <- None;
    let st =
      {
        epoch = s.epoch;
        op;
        inserted = ins.Incremental.Dred.inserted;
        promoted = ins.Incremental.Dred.promoted;
        derived = ins.Incremental.Dred.derived;
        retracted = ret.Incremental.Dred.overdeleted;
        cone = ret.Incremental.Dred.cone;
        rederived = ret.Incremental.Dred.rederived;
        violations;
        facts = Storage.size (Gamma.pi s.engine.kb);
        factors = Factor_graph.Fgraph.size (graph s);
        wall_seconds;
      }
    in
    s.history <- st :: s.history;
    (* Epoch-duration distribution: under the serving layer this is the
       writer arm's per-epoch cost, the other half of epoch lag. *)
    Obs.observe s.engine.trace "session.epoch_seconds" wall_seconds;
    Obs.snapshot s.engine.trace ~stage:"session" ~point:"epoch" ~step:st.epoch
      ~perf:[ ("wall_seconds", Obs.F wall_seconds) ]
      [
        ("op", Obs.S op);
        ("inserted", Obs.I st.inserted);
        ("promoted", Obs.I st.promoted);
        ("derived", Obs.I st.derived);
        ("retracted", Obs.I st.retracted);
        ("cone", Obs.I st.cone);
        ("rederived", Obs.I st.rederived);
        ("violations", Obs.I st.violations);
        ("facts", Obs.I st.facts);
        ("factors", Obs.I st.factors);
      ];
    st

  (* Session-mode constraint enforcement runs *after* the incremental
     closure, as a banned DRed retraction — not as the in-closure hook
     (the batch pipeline's choice); violations introduced by an epoch are
     removed together with their already-derived consequences. *)
  let constrain s =
    if s.engine.config.Config.quality.Config.semantic_constraints then begin
      let violations, ret = Incremental.Dred.enforce_constraints s.dred in
      touch s ret.Incremental.Dred.touched_ids;
      forget s ret.Incremental.Dred.deleted_ids;
      (violations, ret)
    end
    else (0, Incremental.Dred.no_retract)

  let ingest s facts =
    let t0 = Obs.now () in
    let ins =
      Incremental.Dred.ingest
        ~max_iterations:s.engine.config.Config.max_iterations s.dred facts
    in
    touch s ins.Incremental.Dred.new_ids;
    let violations, ret = constrain s in
    record s ~op:"ingest" ~ins ~ret ~violations
      ~wall_seconds:(Obs.now () -. t0)

  let retract ?ban s ids =
    let t0 = Obs.now () in
    let ret = Incremental.Dred.retract ?ban s.dred ids in
    touch s ret.Incremental.Dred.touched_ids;
    forget s ret.Incremental.Dred.deleted_ids;
    record s ~op:"retract" ~ins:Incremental.Dred.no_ingest ~ret ~violations:0
      ~wall_seconds:(Obs.now () -. t0)

  let retract_keys ?ban s keys =
    let pi = Gamma.pi s.engine.kb in
    retract ?ban s
      (List.filter_map
         (fun (r, x, c1, y, c2) -> Storage.find pi ~r ~x ~c1 ~y ~c2)
         keys)

  let retract_rules s ~remove =
    let t0 = Obs.now () in
    let ret = Incremental.Dred.retract_rules s.dred ~remove in
    touch s ret.Incremental.Dred.touched_ids;
    forget s ret.Incremental.Dred.deleted_ids;
    record s ~op:"retract_rules" ~ins:Incremental.Dred.no_ingest ~ret
      ~violations:0
      ~wall_seconds:(Obs.now () -. t0)

  let add_rules s rules =
    let t0 = Obs.now () in
    let ins =
      Incremental.Dred.extend_rules
        ~max_iterations:s.engine.config.Config.max_iterations s.dred rules
    in
    touch s ins.Incremental.Dred.new_ids;
    let violations, ret = constrain s in
    record s ~op:"add_rules" ~ins ~ret ~violations
      ~wall_seconds:(Obs.now () -. t0)

  let reexpand s =
    let t0 = Obs.now () in
    let ins =
      Incremental.Dred.reexpand
        ~max_iterations:s.engine.config.Config.max_iterations s.dred
    in
    touch s ins.Incremental.Dred.new_ids;
    let violations, ret = constrain s in
    record s ~op:"reexpand" ~ins ~ret ~violations
      ~wall_seconds:(Obs.now () -. t0)

  let refresh_marginals s =
    let t0 = Obs.now () in
    match s.engine.config.Config.inference with
    | None -> None
    | Some m ->
      Obs.with_ambient s.engine.trace @@ fun () ->
      Obs.with_span s.engine.trace "refresh_marginals" ~cat:"engine"
      @@ fun () ->
      let c = Factor_graph.Fgraph.compile (graph s) in
      let marg, solve =
        match m with
        | Inference.Marginal.Chromatic options ->
          (* Warm start: untouched variables resume from the previous
             epoch's final chain state; the touched cone (and any new
             variable) re-randomizes from the seed-derived init stream.
             Deterministic for a given (seed, epoch history) at any pool
             size. *)
          let init v =
            if not s.engine.config.Config.warm_start then None
            else
              let id = c.Factor_graph.Fgraph.var_ids.(v) in
              if Hashtbl.mem s.touched id then None
              else Hashtbl.find_opt s.state id
          in
          let marg, info =
            Inference.Chromatic.marginals_info ~options ~obs:s.engine.trace
              ~checkpoint:s.engine.config.Config.checkpoint_sweeps
              ?early_stop:(Config.early_stop_criteria s.engine.config)
              ~init c
          in
          (marg, Inference.Marginal.Chromatic_run info)
        | m ->
          Inference.Marginal.infer_compiled_full ~obs:s.engine.trace
            ~checkpoint:s.engine.config.Config.checkpoint_sweeps
            ?early_stop:(Config.early_stop_criteria s.engine.config)
            c m
      in
      Hashtbl.reset s.marginals;
      Array.iteri
        (fun v p ->
          Hashtbl.replace s.marginals c.Factor_graph.Fgraph.var_ids.(v) p)
        marg;
      (* Only a whole-graph Chromatic run produces chain state the next
         epoch's warm start can resume from; Hybrid's sampler covers just
         the residual subgraph, so its assignment stays out of [s.state]. *)
      (match solve with
      | Inference.Marginal.Chromatic_run i ->
        Hashtbl.reset s.state;
        Array.iteri
          (fun v b ->
            Hashtbl.replace s.state c.Factor_graph.Fgraph.var_ids.(v) b)
          i.Inference.Chromatic.assignment;
        s.last_info <- Some i
      | _ -> ());
      s.last_solve <- Some solve;
      Hashtbl.reset s.touched;
      s.epoch <- s.epoch + 1;
      (* A refresh is an epoch too: cached-marginal clamps changed, so
         any frozen snapshot of the previous epoch is now stale. *)
      s.read <- None;
      let st =
        {
          epoch = s.epoch;
          op = "refresh_marginals";
          inserted = 0;
          promoted = 0;
          derived = 0;
          retracted = 0;
          cone = 0;
          rederived = 0;
          violations = 0;
          facts = Storage.size (Gamma.pi s.engine.kb);
          factors = Factor_graph.Fgraph.size (graph s);
          wall_seconds = Obs.now () -. t0;
        }
      in
      s.history <- st :: s.history;
      Obs.observe s.engine.trace "refresh.seconds" st.wall_seconds;
      Some st

  type fact_view = {
    id : int;
    base : bool;  (** carries extraction (singleton) support *)
    weight : float;  (** extraction confidence; null for inferred facts *)
    marginal : float option;  (** estimate from the last refresh, if any *)
  }

  let query s ~r ~x ~c1 ~y ~c2 =
    let pi = Gamma.pi s.engine.kb in
    match Storage.find pi ~r ~x ~c1 ~y ~c2 with
    | None -> None
    | Some id ->
      let weight =
        match Storage.row_of_id pi id with
        | Some row -> Table.weight (Storage.table pi) row
        | None -> Table.null_weight
      in
      Some
        {
          id;
          base =
            Incremental.Provenance.is_base
              (Incremental.Dred.provenance s.dred)
              id;
          weight;
          marginal = Hashtbl.find_opt s.marginals id;
        }

  let marginal s id = Hashtbl.find_opt s.marginals id

  (* Sessions already maintain the fact↔factor adjacency (the provenance
     index), so the local walk runs over it directly — no rule-table
     probes.  Boundary clamps prefer the last refresh's estimate, then
     the extraction prior read off the fact's singleton factor.  The
     view is live (closures over the provenance index), so it is rebuilt
     per call — construction is a handful of closures; use {!snapshot}
     for a frozen, domain-shareable copy instead. *)
  let live_view s =
    let pi = Gamma.pi s.engine.kb in
    let adj = Incremental.Dred.local_adjacency s.dred in
    let prov = Incremental.Dred.provenance s.dred in
    let g = graph s in
    let clamp bid =
      match Hashtbl.find_opt s.marginals bid with
      | Some p -> p
      | None -> (
        match Incremental.Provenance.singleton_of prov bid with
        | Some f ->
          let _, _, _, w = Factor_graph.Fgraph.factor g f in
          sigmoid w
        | None -> 0.5)
    in
    let view_of id =
      match Storage.row_of_id pi id with
      | None -> None
      | Some row ->
        Some
          {
            Snapshot.id;
            base = Incremental.Provenance.is_base prov id;
            weight = Table.weight (Storage.table pi) row;
            marginal = Hashtbl.find_opt s.marginals id;
          }
    in
    Snapshot.live ~epoch:s.epoch ~gibbs:(gibbs_options s.engine)
      ~exact_max_vars:s.engine.config.Config.exact_max_vars
      ~max_width:s.engine.config.Config.max_width ~obs:s.engine.trace
      ~marginal_of:(fun id -> Hashtbl.find_opt s.marginals id)
      ~view_of
      ~source:(Grounding.Local.of_adjacency adj)
      ~clamp
      ~find:(fun ~r ~x ~c1 ~y ~c2 -> Storage.find pi ~r ~x ~c1 ~y ~c2)
      ~facts:(fun () -> Storage.size pi)
      ~factors:(fun () -> Factor_graph.Fgraph.size g)
      ()

  (* The session's frozen snapshot: everything the read path needs,
     copied once per epoch (cached until the next mutation), sharing
     nothing mutable with later epochs. *)
  let snapshot s =
    match s.read with
    | Some v -> v
    | None ->
      let v =
        Snapshot.freeze ~epoch:s.epoch ~marginals:s.marginals
          ~gibbs:(gibbs_options s.engine)
          ~exact_max_vars:s.engine.config.Config.exact_max_vars
          ~max_width:s.engine.config.Config.max_width ~obs:s.engine.trace
          ~pi:(Gamma.pi s.engine.kb) ~graph:(graph s) ()
      in
      s.read <- Some v;
      v

  let query_local ?budget s ~r ~x ~c1 ~y ~c2 =
    Obs.with_ambient s.engine.trace @@ fun () ->
    Snapshot.query_local ?budget (live_view s) ~r ~x ~c1 ~y ~c2
end

let session t =
  let e = expand t in
  {
    Session.engine = t;
    dred = Incremental.Dred.create ~obs:t.trace t.kb e.graph;
    epoch = 0;
    state = Hashtbl.create 256;
    marginals = Hashtbl.create 256;
    touched = Hashtbl.create 64;
    last_info = None;
    last_solve = None;
    history = [];
    read = None;
  }

(* ------------------------------------------------------------------ *)
(* The Snapshot/Writer split: an immutable, domain-shareable read arm
   and a single mutable write arm that builds the next epoch and
   atomically publishes it (MVCC-by-epoch; see DESIGN.md §13). *)

module Writer = struct
  type t = { session : Session.t; published : Snapshot.t Atomic.t }

  let of_session s = { session = s; published = Atomic.make (Session.snapshot s) }
  let session w = w.session
  let published w = Atomic.get w.published

  let publish w =
    let v = Session.snapshot w.session in
    Atomic.set w.published v;
    v

  let epoch_lag w =
    Session.epoch w.session - Snapshot.epoch (Atomic.get w.published)
end

module Snapshot = struct
  include Snapshot

  let of_engine = read_view
  let of_session = Session.snapshot
end

let incorporate t facts =
  t.read <- None;
  let pi = Gamma.pi t.kb in
  let delta =
    Table.create ~weighted:true ~name:"delta"
      [| "I"; "R"; "x"; "C1"; "y"; "C2" |]
  in
  List.iter
    (fun (r, x, c1, y, c2, w) ->
      match Storage.find pi ~r ~x ~c1 ~y ~c2 with
      | None ->
        let id = Gamma.add_fact t.kb ~r ~x ~c1 ~y ~c2 ~w in
        Table.append_w delta [| id; r; x; c1; y; c2 |] w
      | Some id ->
        (* An extraction arriving for an already-inferred fact promotes it
           to a base fact (same semantics as [Incremental.Dred.ingest]):
           it takes the extraction weight; its consequences are already
           derived, so it does not seed the delta. *)
        let tbl = Storage.table pi in
        (match Storage.row_of_id pi id with
        | Some row
          when Table.is_null_weight (Table.weight tbl row)
               && not (Table.is_null_weight w) ->
          Table.set_weight tbl row w
        | _ -> ()))
    facts;
  let inserted = Table.nrows delta in
  if inserted = 0 then (0, 0)
  else begin
    let result =
      Grounding.Ground.closure
        ~options:
          {
            Grounding.Ground.default_options with
            max_iterations = t.config.Config.max_iterations;
            initial_delta = Some delta;
            obs = t.trace;
          }
        t.kb
    in
    (inserted, result.Grounding.Ground.new_fact_count)
  end
