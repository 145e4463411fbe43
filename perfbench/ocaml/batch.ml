(* The batch workloads, one trial per fresh process.

   table3_batch: load, then the paper's pipeline — Ω (Query 3) once via
   [Quality.Semantic.apply], then [Engine.expand] (4 closure iterations
   and the factor queries), [Engine.infer_full] (hybrid inference) and
   [Engine.store_marginals].  Traced trials call the same layers through
   their own public functions instead of the engine, so each gets a span,
   then time the per-partition grounding queries and the component
   decomposition on the closed KB.

   spilled_mpp: load, then [Engine.expand] on the simulated MPP engine
   in pn mode (no views) with a spill threshold far below TΠ, so every
   fact shard goes through the segment store; no inference.  Traced
   trials run [Ground_mpp.run] directly, then time the storage layer's
   spill / reopen / scan calls on the closed TΠ. *)

module Store = Storage.Store
module Gamma = Kb.Gamma
module Storage = Kb.Storage
module Engine = Probkb.Engine
module Config = Probkb.Config
module Fgraph = Factor_graph.Fgraph
module Hybrid = Inference.Hybrid

let iterations = 4
let config () = Config.make ~max_iterations:iterations ~hybrid:true ()
let pattern_name p = Printf.sprintf "M%d" (Mln.Pattern.index p + 1)
let sub = Printf.sprintf "%s.%d"

let marginals_ok marg =
  Hashtbl.fold (fun _ p ok -> ok && Float.is_finite p && p >= 0. && p <= 1.) marg true

(* Every inferred fact got a stored marginal, and the counts match the
   fixed KB's reference (when one is recorded for this scale). *)
let table3_ok o ~scale kb ~factors marg stored =
  let facts = Storage.size (Gamma.pi kb) in
  Outcome.seti o "facts" facts;
  Outcome.seti o "factors" factors;
  let counts_ok =
    match Inputs.reference_counts scale with
    | Some (f, g) -> facts = f && factors = g
    | None -> true
  in
  counts_ok && marginals_ok marg && stored > 0 && Hashtbl.length marg >= stored

let report_hybrid o = function
  | Some (Inference.Marginal.Hybrid_run r) ->
    Outcome.set o "exact_fraction" (Hybrid.exact_fraction r);
    Outcome.seti o "inference.components" (Array.length r.Hybrid.components);
    Outcome.set o "inference.exact_s" r.Hybrid.exact_seconds;
    Outcome.set o "inference.gibbs_s" r.Hybrid.gibbs_seconds;
    Outcome.seti o "inference.exact_vars" r.Hybrid.exact_vars;
    Outcome.seti o "inference.sampled_vars" r.Hybrid.sampled_vars;
    Outcome.seti o "inference.max_width_solved" r.Hybrid.max_width_solved
  | _ -> Outcome.set o "exact_fraction" Float.nan

let table3_untraced o ~scale kb =
  let e, marg, info, stored =
    Outcome.op o (fun () ->
        ignore (Quality.Semantic.apply (Gamma.pi kb) (Gamma.omega kb));
        let engine = Engine.create ~config:(config ()) kb in
        let e, expand_s = Clock.time (fun () -> Engine.expand engine) in
        let (marg, info), infer_s = Clock.time (fun () -> Engine.infer_full engine e) in
        let stored = Engine.store_marginals engine marg in
        Outcome.set o "expand_s" expand_s;
        Outcome.set o "infer_s" infer_s;
        (e, marg, info, stored))
  in
  report_hybrid o info;
  Outcome.check o (table3_ok o ~scale kb ~factors:e.Engine.n_factors marg stored)

(* Per-iteration spans from the grounding loop's progress callback:
   iteration i runs from the previous callback (or the loop's start)
   to its own. *)
let iteration_recorder sp o ~prefix =
  let last = ref (Clock.now ()) in
  let start () = last := Clock.now () in
  let on_iteration ~iteration ~new_facts =
    let now = Clock.now () in
    ignore (Spans.record sp ~name:(sub (prefix ^ ".iter") iteration) ~start:!last ~stop:now);
    Outcome.set o (sub (prefix ^ ".iter_s") iteration) (now -. !last);
    if prefix = "grounding" then Outcome.seti o (sub "grounding.new_facts" iteration) new_facts;
    last := now
  in
  (start, on_iteration, fun () -> !last)

let table3_traced o ~scale kb =
  let sp = o.Outcome.spans in
  let span name f = Spans.with_span sp name f in
  let cfg = config () in
  let engine = Engine.create ~config:cfg kb in
  let pi = Gamma.pi kb in
  let result =
    span "pipeline" @@ fun () ->
    let removed =
      span "quality.omega" (fun () -> Quality.Semantic.apply pi (Gamma.omega kb))
    in
    Outcome.seti o "quality.omega_removed" removed;
    let start, on_iteration, last = iteration_recorder sp o ~prefix:"grounding" in
    let r =
      span "grounding.ground" @@ fun () ->
      start ();
      let r =
        Grounding.Ground.run
          ~options:
            {
              Grounding.Ground.default_options with
              max_iterations = iterations;
              on_iteration = Some (fun ~iteration ~new_facts -> on_iteration ~iteration ~new_facts);
            }
          kb
      in
      ignore (Spans.record sp ~name:"grounding.factor_phase" ~start:(last ()) ~stop:(Clock.now ()));
      r
    in
    let c = span "factor_graph.compile" (fun () -> Fgraph.compile r.Grounding.Ground.graph) in
    let method_ = Option.get cfg.Config.inference in
    let dense, info =
      span "inference.solve" (fun () ->
          Inference.Marginal.infer_compiled_full ~checkpoint:cfg.Config.checkpoint_sweeps c
            method_)
    in
    let marg = Hashtbl.create (Array.length dense) in
    Array.iteri (fun v p -> Hashtbl.replace marg c.Fgraph.var_ids.(v) p) dense;
    let stored = span "core.store_marginals" (fun () -> Engine.store_marginals engine marg) in
    (r, c, marg, Some info, stored)
  in
  let r, c, marg, info, stored = result in
  let factors = Fgraph.size r.Grounding.Ground.graph in
  Outcome.check o (table3_ok o ~scale kb ~factors marg stored);
  report_hybrid o info;
  Outcome.set o "op_s" (Spans.seconds sp "pipeline");
  Outcome.set o "trace.coverage" (Spans.coverage sp "pipeline");
  Outcome.set o "quality.omega_s" (Spans.seconds sp "quality.omega");
  Outcome.set o "grounding.closure_s"
    (List.fold_left
       (fun acc i -> acc +. Option.value (Outcome.metric o (sub "grounding.iter_s" i)) ~default:0.)
       0. (List.init iterations succ));
  Outcome.set o "grounding.factor_phase_s" (Spans.seconds sp "grounding.factor_phase");
  Outcome.seti o "grounding.factor_rows" factors;
  Outcome.set o "factor_graph.compile_s" (Spans.seconds sp "factor_graph.compile");
  Outcome.seti o "factor_graph.vars" (Fgraph.nvars c);
  Outcome.set o "inference.solve_s" (Spans.seconds sp "inference.solve");
  Outcome.set o "core.store_marginals_s" (Spans.seconds sp "core.store_marginals");
  Outcome.seti o "core.marginals_stored" stored;
  (* The relational join work, query by query, on the closed TΠ. *)
  let prepared = Grounding.Queries.prepare (Gamma.partitions kb) in
  List.iter
    (fun pat ->
      let m = pattern_name pat in
      let rows =
        span ("grounding.atoms." ^ m) (fun () ->
            Relational.Table.nrows (Grounding.Queries.ground_atoms prepared pat pi))
      in
      Outcome.seti o ("grounding.atoms_rows." ^ m) rows;
      Outcome.set o ("grounding.atoms_s." ^ m) (Spans.seconds sp ("grounding.atoms." ^ m));
      ignore
        (span ("grounding.factors." ^ m) (fun () ->
             Grounding.Queries.ground_factors prepared pat pi (Fgraph.create ())));
      Outcome.set o ("grounding.factors_s." ^ m) (Spans.seconds sp ("grounding.factors." ^ m)))
    Mln.Pattern.all;
  ignore
    (span "grounding.singletons" (fun () ->
         Grounding.Queries.singleton_factors pi (Fgraph.create ())));
  Outcome.set o "grounding.singletons_s" (Spans.seconds sp "grounding.singletons");
  let comps = span "inference.decompose" (fun () -> Inference.Decompose.components c) in
  Outcome.set o "inference.decompose_s" (Spans.seconds sp "inference.decompose");
  if Outcome.metric o "inference.components" = None then
    Outcome.seti o "inference.components" (Array.length comps)

let mpp_config ~spill_dir =
  Config.make
    ~engine:(Config.Mpp { cluster = Mpp.Cluster.default; views = false })
    ~max_iterations:iterations ~inference:None ~spill_dir ~segment_rows:1024
    ~spill_threshold_bytes:(64 * 1024) ()

(* Bytes and segment files under the spill root. *)
let rec disk_usage path =
  if Sys.is_directory path then
    Array.fold_left
      (fun (b, n) name ->
        let b', n' = disk_usage (Filename.concat path name) in
        (b + b', n + n'))
      (0, 0) (Sys.readdir path)
  else
    let st = Unix.stat path in
    let name = Filename.basename path in
    (st.Unix.st_size, if String.starts_with ~prefix:"seg-" name then 1 else 0)

let mpp_ok kb ~factors ~reference =
  let facts = Storage.size (Gamma.pi kb) in
  (facts, factors) = reference

let mpp_untraced o kb ~spill_dir ~reference =
  let engine = Engine.create ~config:(mpp_config ~spill_dir) kb in
  let e = Outcome.op o (fun () -> Engine.expand engine) in
  Outcome.set o "expand_s" (Option.get (Outcome.metric o "op_s"));
  Outcome.check o (mpp_ok kb ~factors:e.Engine.n_factors ~reference)

let mpp_traced o kb ~spill_dir ~reference =
  let sp = o.Outcome.spans in
  let span name f = Spans.with_span sp name f in
  let cfg = mpp_config ~spill_dir in
  let start, on_iteration, _ = iteration_recorder sp o ~prefix:"mpp" in
  let r =
    span "pipeline" @@ fun () ->
    span "mpp.ground" @@ fun () ->
    start ();
    Grounding.Ground_mpp.run
      ~options:
        {
          Grounding.Ground_mpp.default_options with
          max_iterations = iterations;
          spill = Config.spill_policy cfg;
          on_iteration =
            Some (fun ~iteration ~new_facts ~sim_elapsed:_ -> on_iteration ~iteration ~new_facts);
        }
      ~mode:Grounding.Ground_mpp.No_views Mpp.Cluster.default kb
  in
  let counts_ok = mpp_ok kb ~factors:(Fgraph.size r.Grounding.Ground_mpp.graph) ~reference in
  Outcome.set o "op_s" (Spans.seconds sp "pipeline");
  Outcome.set o "trace.coverage" (Spans.coverage sp "pipeline");
  Outcome.seti o "mpp.motion_bytes" r.Grounding.Ground_mpp.motion_bytes;
  Outcome.set o "mpp.measured_s" r.Grounding.Ground_mpp.measured_seconds;
  Outcome.set o "mpp.sim_s" r.Grounding.Ground_mpp.sim_seconds;
  let disk, segs = disk_usage spill_dir in
  Outcome.seti o "storage.disk_bytes" disk;
  Outcome.seti o "storage.segments" segs;
  (* The storage layer's own calls on the closed TΠ. *)
  let tbl = Storage.table (Gamma.pi kb) in
  let dir = Filename.concat spill_dir "closed_pi" in
  let st =
    span "storage.write" (fun () -> Store.spill ~segment_rows:1024 ~dir tbl)
  in
  ignore (span "storage.read" (fun () -> Store.to_table (Store.open_dir dir)));
  let rows =
    span "storage.scan" @@ fun () ->
    let src = Store.source st in
    Array.fold_left
      (fun acc seg ->
        let n = ref 0 in
        ignore
          (seg.Relational.Segsrc.scan ~capacity:1024 ~base_rid:0 (fun b ->
               n := !n + Relational.Batch.length b));
        acc + !n)
      0 src.Relational.Segsrc.segs
  in
  Outcome.check o (counts_ok && rows = Relational.Table.nrows tbl);
  Outcome.set o "storage.write_s" (Spans.seconds sp "storage.write");
  Outcome.set o "storage.read_s" (Spans.seconds sp "storage.read");
  Outcome.set o "storage.scan_s" (Spans.seconds sp "storage.scan");
  Outcome.set o "storage.bytes_per_logical_byte"
    (float_of_int (Store.byte_size st)
    /. float_of_int (max 1 (Relational.Table.byte_size tbl)))
