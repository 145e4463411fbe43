module Fgraph = Factor_graph.Fgraph

type options = { burn_in : int; samples : int; seed : int }

let default_options = { burn_in = 200; samples = 800; seed = 42 }

(* The role-coded terms in slot order: the same ±w terms, in the same
   order, that comparing [Fgraph.satisfied] with [v] true and false adds
   slot by slot, so the sum is the same float. *)
let[@inline] log_odds c assignment v =
  let roles = c.Fgraph.slot_roles and weights = c.Fgraph.slot_weights in
  let delta = ref 0. in
  for k = c.Fgraph.adj_off.(v) to c.Fgraph.adj_off.(v + 1) - 1 do
    let role = roles.(3 * k) in
    if
      role = Fgraph.role_prior
      || role = Fgraph.role_head
         && assignment.(roles.((3 * k) + 1))
         && assignment.(roles.((3 * k) + 2))
      || role = Fgraph.role_body
         && (let x = roles.((3 * k) + 1) in
             x < 0 || assignment.(x))
         && not assignment.(roles.((3 * k) + 2))
    then delta := !delta +. weights.(k)
  done;
  !delta

type cell = { mutable value : float }

let[@inline] conditional c assignment v out =
  out.value <- 1. /. (1. +. exp (-.log_odds c assignment v))
