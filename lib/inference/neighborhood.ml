module Fgraph = Factor_graph.Fgraph

type method_used = Enumerated | Sampled

let clamp_epsilon = 1e-6

let clamp_weight p =
  let p = Float.min (1. -. clamp_epsilon) (Float.max clamp_epsilon p) in
  log (p /. (1. -. p))

let clamp_boundary g ~boundary ~prob =
  Array.iter
    (fun id -> Fgraph.add_singleton g ~i:id ~w:(clamp_weight (prob id)))
    boundary

let solve ?obs ?options c =
  if Fgraph.nvars c = 0 then ([||], Enumerated)
  else begin
    let marg, report = Hybrid.solve ?options ?obs c in
    (marg, if report.Hybrid.sampled_vars = 0 then Enumerated else Sampled)
  end
