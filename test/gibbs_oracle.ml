(* Test oracles for the samplers' conditional kernel
   ([Inference.Gibbs.log_odds] / [conditional]) and the MAP flip delta
   ([Inference.Map_inference.flip_delta]): the satisfied-flip
   definitions.  For each factor of [v], evaluate [Fgraph.satisfied] with
   [v] set both ways; where the two differ, the factor's weight enters the
   log-odds, signed by which setting satisfies it.  The kernel must
   reproduce the conditional bit for bit and the flip delta as a float. *)

module Fgraph = Factor_graph.Fgraph

let conditional c assignment v =
  let delta = ref 0. in
  let prev = assignment.(v) in
  for k = c.Fgraph.adj_off.(v) to c.Fgraph.adj_off.(v + 1) - 1 do
    let f = c.Fgraph.adj.(k) in
    assignment.(v) <- true;
    let s1 = Fgraph.satisfied c f assignment in
    assignment.(v) <- false;
    let s0 = Fgraph.satisfied c f assignment in
    if s1 <> s0 then
      delta :=
        !delta +. if s1 then c.Fgraph.fweight.(f) else -.c.Fgraph.fweight.(f)
  done;
  assignment.(v) <- prev;
  1. /. (1. +. exp (-. !delta))

let flip_delta c assignment v =
  let delta = ref 0. in
  for k = c.Fgraph.adj_off.(v) to c.Fgraph.adj_off.(v + 1) - 1 do
    let f = c.Fgraph.adj.(k) in
    let before = Fgraph.satisfied c f assignment in
    assignment.(v) <- not assignment.(v);
    let after = Fgraph.satisfied c f assignment in
    assignment.(v) <- not assignment.(v);
    if before <> after then
      delta :=
        !delta +. if after then c.Fgraph.fweight.(f) else -.c.Fgraph.fweight.(f)
  done;
  !delta
