(* Advanced analytics over an expanded knowledge base.

   Exercises the extension APIs on one small pipeline:
   - query the expanded KB (Kb.Query): pattern lookups and top-k by
     stored probability;
   - compute the marginals on the one inference route (Inference.Marginal
     over Inference.Hybrid): each connected component of the ground
     factor graph goes to enumeration, junction-tree elimination or, for
     dense cores only, chromatic Gibbs;
   - attribute constraint violations to rules and re-rank the rule set
     (Quality.Rule_feedback), the paper's Section 6.2.3 suggestion;
   - checkpoint TΦ to disk and reload it (Factor_graph.Serialize).

   Run with: dune exec examples/kb_analytics.exe *)

let () =
  (* A KB with one unsound rule mixed in. *)
  let kb = Kb.Gamma.create () in
  ignore
    (Kb.Loader.load_rules kb
       [
         "1.2 live_in(x:Person, y:City) :- born_in(x, y)";
         "0.8 visited(x:Person, y:City) :- live_in(x, y)";
         (* unsound: everyone born somewhere is its mayor *)
         "0.7 mayor_of(x:Person, y:City) :- born_in(x, y)";
       ]);
  ignore (Kb.Loader.load_constraints kb [ "mayor_of\tII\t1" ]);
  List.iter
    (fun (x, y, w) ->
      ignore
        (Kb.Gamma.add_fact_by_name kb ~r:"born_in" ~x ~c1:"Person" ~y ~c2:"City" ~w))
    [
      ("ada", "london", 0.95);
      ("alan", "london", 0.9);
      ("grace", "nyc", 0.92);
      ("edsger", "rotterdam", 0.88);
    ];
  let r = Grounding.Ground.run kb in
  let graph = r.Grounding.Ground.graph in
  Format.printf "expanded to %d facts, %d factors@.@."
    (Kb.Storage.size (Kb.Gamma.pi kb))
    (Factor_graph.Fgraph.size graph);

  (* --- the one inference route --- *)
  let marginals, Inference.Marginal.Hybrid_run report =
    Inference.Marginal.infer_full graph Inference.Hybrid.default_options
  in
  Format.printf
    "hybrid inference: %d components (%d enumerated, %d eliminated, %d \
     sampled); %.0f%% of %d variables solved exactly@."
    (Array.length report.Inference.Hybrid.components)
    report.Inference.Hybrid.enumerated_components
    report.Inference.Hybrid.eliminated_components
    report.Inference.Hybrid.sampled_components
    (100. *. Inference.Hybrid.exact_fraction report)
    report.Inference.Hybrid.total_vars;

  (* Store the marginals and query. *)
  let engine = Probkb.Engine.create kb in
  ignore (Probkb.Engine.store_marginals engine marginals);
  let q = Kb.Query.prepare (Kb.Gamma.pi kb) in
  Format.printf "@.top 5 facts by probability:@.";
  List.iter
    (fun (f : Kb.Query.fact) ->
      Format.printf "  %.2f  %a@." f.Kb.Query.weight (Kb.Gamma.pp_fact kb)
        f.Kb.Query.id)
    (Kb.Query.top_k q ~k:5 ());
  let ada = Kb.Gamma.entity kb "ada" in
  Format.printf "@.everything about ada:@.";
  List.iter
    (fun (f : Kb.Query.fact) ->
      Format.printf "  %a@." (Kb.Gamma.pp_fact kb) f.Kb.Query.id)
    (Kb.Query.about q ada);

  (* --- rule feedback: which rule causes constraint violations? --- *)
  let omega = Kb.Gamma.omega kb in
  let vs = Quality.Semantic.violations (Kb.Gamma.pi kb) omega in
  let bad =
    List.concat_map
      (fun v ->
        Quality.Semantic.violation_group (Kb.Gamma.pi kb) v
        |> List.filter_map (fun ((r', x, c1, y, c2), _) ->
               Kb.Storage.find (Kb.Gamma.pi kb) ~r:r' ~x ~c1 ~y ~c2))
      vs
  in
  Format.printf "@.%d facts violate mayor_of's functionality; rule blame:@."
    (List.length bad);
  let reports = Quality.Rule_feedback.attribute ~kb ~graph ~bad_facts:bad in
  List.iter
    (fun (rep : Quality.Rule_feedback.report) ->
      Format.printf "  penalty %.2f (%d/%d)  %s@."
        (Quality.Rule_feedback.penalty rep)
        rep.Quality.Rule_feedback.blamed rep.Quality.Rule_feedback.derived
        (Mln.Pretty.clause
           ~rel_name:(Relational.Dict.name (Kb.Gamma.relations kb))
           ~cls_name:(Relational.Dict.name (Kb.Gamma.classes kb))
           rep.Quality.Rule_feedback.clause))
    reports;

  (* --- checkpoint TΦ --- *)
  let path = Filename.temp_file "tphi" ".fg" in
  Factor_graph.Serialize.to_file graph path;
  let reloaded = Factor_graph.Serialize.of_file path in
  Sys.remove path;
  Format.printf "@.TΦ checkpoint roundtrip: %d factors -> %d factors@."
    (Factor_graph.Fgraph.size graph)
    (Factor_graph.Fgraph.size reloaded)
