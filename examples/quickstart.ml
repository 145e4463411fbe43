(* Quickstart: the paper's running example (Table 1 / Figures 2-3).

   Builds the Ruth Gruber knowledge base, expands it, constructs the
   ground factor graph, runs exact marginal inference and prints every
   fact with its probability.

   Run with: dune exec examples/quickstart.exe *)

let () =
  let kb = Kb.Gamma.create () in
  (* The MLN rules of Table 1 (weights from the paper). *)
  ignore
    (Kb.Loader.load_rules kb
       [
         "1.40 live_in(x:Writer, y:Place) :- born_in(x, y)";
         "1.53 live_in(x:Writer, y:City) :- born_in(x, y)";
         "2.68 grow_up_in(x:Writer, y:Place) :- born_in(x, y)";
         "0.74 grow_up_in(x:Writer, y:City) :- born_in(x, y)";
         "0.32 located_in(x:Place, y:City) :- live_in(z:Writer, x), live_in(z, y)";
         "0.52 located_in(x:Place, y:City) :- born_in(z:Writer, x), born_in(z, y)";
       ]);
  (* The extracted facts. *)
  ignore
    (Kb.Gamma.add_fact_by_name kb ~r:"born_in" ~x:"Ruth Gruber" ~c1:"Writer"
       ~y:"New York City" ~c2:"City" ~w:0.96);
  ignore
    (Kb.Gamma.add_fact_by_name kb ~r:"born_in" ~x:"Ruth Gruber" ~c1:"Writer"
       ~y:"Brooklyn" ~c2:"Place" ~w:0.93);
  Format.printf "--- knowledge base ---@.%a@.@." Kb.Gamma.pp_stats
    (Kb.Gamma.stats kb);

  (* Knowledge expansion, then inference: the default per-component
     solver settles this 5-atom graph exactly, by enumeration. *)
  let engine = Probkb.Engine.create kb in
  let result = Probkb.Engine.run engine in
  let e = result.Probkb.Engine.expansion in
  Format.printf
    "--- expansion ---@.%d iterations, %d new facts, %d ground factors@.@."
    e.Probkb.Engine.iterations e.Probkb.Engine.new_fact_count
    e.Probkb.Engine.n_factors;

  Format.printf "--- facts with marginal probabilities ---@.";
  Kb.Storage.iter
    (fun ~id ~r:_ ~x:_ ~c1:_ ~y:_ ~c2:_ ~w ->
      Format.printf "  P = %s  %a@."
        (if Relational.Table.is_null_weight w then " ?? "
         else Printf.sprintf "%.2f" w)
        (Kb.Gamma.pp_fact kb) id)
    (Kb.Gamma.pi kb);

  (* Lineage: where did located_in(Brooklyn, New York City) come from? *)
  let lineage = Factor_graph.Lineage.build e.Probkb.Engine.graph in
  let loc =
    Option.get
      (Kb.Storage.find (Kb.Gamma.pi kb)
         ~r:(Kb.Gamma.relation kb "located_in")
         ~x:(Kb.Gamma.entity kb "Brooklyn")
         ~c1:(Kb.Gamma.cls kb "Place")
         ~y:(Kb.Gamma.entity kb "New York City")
         ~c2:(Kb.Gamma.cls kb "City"))
  in
  Format.printf "@.--- lineage of located_in(Brooklyn, New York City) ---@.";
  List.iter
    (fun (i2, i3, w) ->
      Format.printf "  derived (w = %.2f) from %a%s@." w (Kb.Gamma.pp_fact kb)
        i2
        (if i3 = Factor_graph.Fgraph.null then ""
         else Fmt.str " and %a" (Kb.Gamma.pp_fact kb) i3))
    (Factor_graph.Lineage.derivations lineage loc)
