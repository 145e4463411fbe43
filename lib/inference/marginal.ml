module Fgraph = Factor_graph.Fgraph

type solve_info = Hybrid_run of Hybrid.report

let infer_compiled_full ?obs ?checkpoint ?early_stop ?memo c options =
  let marg, report =
    Hybrid.solve ~options ?obs ?checkpoint ?early_stop ?memo c
  in
  (marg, Hybrid_run report)

let infer_full ?obs ?checkpoint ?early_stop g options =
  let c = Fgraph.compile g in
  let marg, info = infer_compiled_full ?obs ?checkpoint ?early_stop c options in
  let out = Hashtbl.create (Array.length marg) in
  Array.iteri (fun v p -> Hashtbl.replace out c.Fgraph.var_ids.(v) p) marg;
  (out, info)
