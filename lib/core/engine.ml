module Gamma = Kb.Gamma
module Storage = Kb.Storage
module Table = Relational.Table

type t = { kb : Gamma.t; config : Config.t; trace : Obs.t }

let create ?(config = Config.default) kb =
  { kb; config; trace = Obs.create ~config:config.Config.obs () }

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
  Obs.with_ambient t.trace @@ fun () ->
  Obs.with_span t.trace "expand" ~cat:"engine" @@ fun () ->
  let rules_used =
    Obs.with_span t.trace "rule cleaning" ~cat:"engine" (fun () ->
        clean_rules t)
  in
  let max_iterations = t.config.Config.max_iterations
  and apply_constraints = constraint_hook t
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
              spill = Config.spill_policy t.config;
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
  | Some options ->
    Obs.with_ambient t.trace @@ fun () ->
    Obs.with_span t.trace "infer" ~cat:"engine" @@ fun () ->
    let marg, info =
      Inference.Marginal.infer_full ~obs:t.trace
        ~checkpoint:t.config.Config.checkpoint_sweeps
        ?early_stop:(Config.early_stop_criteria t.config)
        e.graph options
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
    marginals : (int, float) Hashtbl.t;  (* fact id → last estimate *)
    mutable last_solve : Inference.Marginal.solve_info option;
        (* report of the last refresh *)
    mutable memo : Inference.Hybrid.memo;
        (* the last refresh's per-component results, for the next one *)
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

  let forget s ids = List.iter (Hashtbl.remove s.marginals) ids

  let record s ~op ~(ins : Incremental.Dred.ingest_stats)
      ~(ret : Incremental.Dred.retract_stats) ~violations ~wall_seconds =
    s.epoch <- s.epoch + 1;
    (* Every epoch mutation drops the frozen snapshot of the last one. *)
    s.read <- None;
    (* The dirty set serves only the next refresh's reuse.  Drop it while
       the memo is empty (no refresh yet, or inference off): that
       refresh solves everything.  Once it outgrows the memo, little
       would be reused; drop both, so the set stays bounded however long
       a session goes without refreshing. *)
    let cached = Inference.Hybrid.memo_vars s.memo in
    if cached = 0 || Incremental.Dred.dirty_count s.dred > cached then begin
      if cached > 0 then s.memo <- Inference.Hybrid.memo ();
      ignore (Incremental.Dred.take_dirty s.dred)
    end;
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
    (* Rows retired in place and not yet compacted away (Dred). *)
    Obs.gauge s.engine.trace "incremental.dead_facts"
      (float_of_int (Storage.pending_deletes (Gamma.pi s.engine.kb)));
    Obs.gauge s.engine.trace "incremental.dead_factors"
      (float_of_int (Factor_graph.Fgraph.dead_rows (graph s)));
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
    let violations, ret = constrain s in
    record s ~op:"ingest" ~ins ~ret ~violations
      ~wall_seconds:(Obs.now () -. t0)

  let retract ?ban s ids =
    let t0 = Obs.now () in
    let ret = Incremental.Dred.retract ?ban s.dred ids in
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
    let violations, ret = constrain s in
    record s ~op:"add_rules" ~ins ~ret ~violations
      ~wall_seconds:(Obs.now () -. t0)

  let reexpand s =
    let t0 = Obs.now () in
    let ins =
      Incremental.Dred.reexpand
        ~max_iterations:s.engine.config.Config.max_iterations s.dred
    in
    let violations, ret = constrain s in
    record s ~op:"reexpand" ~ins ~ret ~violations
      ~wall_seconds:(Obs.now () -. t0)

  let refresh_marginals s =
    let t0 = Obs.now () in
    match s.engine.config.Config.inference with
    | None -> None
    | Some options ->
      Obs.with_ambient s.engine.trace @@ fun () ->
      Obs.with_span s.engine.trace "refresh_marginals" ~cat:"engine"
      @@ fun () ->
      let c = Factor_graph.Fgraph.compile (graph s) in
      let marg, solve =
        Inference.Marginal.infer_compiled_full ~obs:s.engine.trace
          ~checkpoint:s.engine.config.Config.checkpoint_sweeps
          ?early_stop:(Config.early_stop_criteria s.engine.config)
          ~memo:(s.memo, Incremental.Dred.take_dirty s.dred)
          c options
      in
      (* Trust signals for the whole graph, whatever this refresh reused. *)
      let (Inference.Marginal.Hybrid_run r) = solve in
      Obs.gauge s.engine.trace "inference.exact_fraction"
        (Inference.Hybrid.exact_fraction r);
      Obs.gauge s.engine.trace "inference.max_width_solved"
        (float_of_int r.Inference.Hybrid.max_width_solved);
      Obs.gauge s.engine.trace "inference.sampled_vars"
        (float_of_int r.Inference.Hybrid.sampled_vars);
      Hashtbl.reset s.marginals;
      Array.iteri
        (fun v p ->
          Hashtbl.replace s.marginals c.Factor_graph.Fgraph.var_ids.(v) p)
        marg;
      s.last_solve <- Some solve;
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

  let marginal s id = Hashtbl.find_opt s.marginals id

  (* The session's frozen snapshot: everything the read path needs,
     copied once per epoch (cached until the next mutation), sharing
     nothing mutable with later epochs. *)
  let snapshot s =
    match s.read with
    | Some v -> v
    | None ->
      let v =
        Snapshot.freeze ~epoch:s.epoch ~marginals:s.marginals
          ~solver:(Config.solver s.engine.config) ~obs:s.engine.trace
          ~pi:(Gamma.pi s.engine.kb)
          ~lineage:(Incremental.Dred.lineage s.dred) ()
      in
      s.read <- Some v;
      v

end

let session t =
  let e = expand t in
  {
    Session.engine = t;
    dred = Incremental.Dred.create ~obs:t.trace t.kb e.graph;
    epoch = 0;
    marginals = Hashtbl.create 256;
    last_solve = None;
    memo = Inference.Hybrid.memo ();
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
