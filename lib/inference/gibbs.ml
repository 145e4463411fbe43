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

type run_info = { sweeps_run : int }

let marginals_info ?(options = default_options) c =
  let n = Fgraph.nvars c in
  let rng = Random.State.make [| options.seed |] in
  let assignment = Array.init n (fun _ -> Random.State.bool rng) in
  let acc = Array.make n 0. in
  let out = { value = 0. } in
  let sweep estimate =
    for v = 0 to n - 1 do
      conditional c assignment v out;
      let p1 = out.value in
      assignment.(v) <- Random.State.float rng 1. < p1;
      if estimate then acc.(v) <- acc.(v) +. p1
    done
  in
  for _ = 1 to options.burn_in do
    sweep false
  done;
  let executed = ref 0 in
  for _ = 1 to options.samples do
    sweep true;
    incr executed
  done;
  ( Array.map (fun a -> a /. float_of_int (max 1 !executed)) acc,
    { sweeps_run = !executed } )

let marginals ?options c = fst (marginals_info ?options c)
