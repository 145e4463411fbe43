module Fgraph = Factor_graph.Fgraph

type options = {
  sweeps : int;
  initial_temperature : float;
  cooling : float;
  seed : int;
}

let default_options =
  { sweeps = 300; initial_temperature = 2.0; cooling = 0.985; seed = 42 }

let score c assignment =
  let total = ref 0. in
  for f = 0 to Array.length c.Fgraph.fweight - 1 do
    if Fgraph.satisfied c f assignment then
      total := !total +. c.Fgraph.fweight.(f)
  done;
  !total

(* The score change of flipping variable [v]: the Gibbs log-odds is the
   change of setting [v] true, so a true [v] flips by its negation. *)
let flip_delta c assignment v =
  let delta = Gibbs.log_odds c assignment v in
  if assignment.(v) then -.delta else delta

let icm ?(max_sweeps = 100) ~seed c =
  let n = Fgraph.nvars c in
  let rng = Random.State.make [| seed |] in
  let assignment = Array.init n (fun _ -> Random.State.bool rng) in
  let improved = ref true in
  let sweeps = ref 0 in
  while !improved && !sweeps < max_sweeps do
    improved := false;
    incr sweeps;
    for v = 0 to n - 1 do
      if flip_delta c assignment v > 0. then begin
        assignment.(v) <- not assignment.(v);
        improved := true
      end
    done
  done;
  (assignment, score c assignment)

let solve ?(options = default_options) c =
  let n = Fgraph.nvars c in
  let rng = Random.State.make [| options.seed |] in
  let assignment = Array.init n (fun _ -> Random.State.bool rng) in
  let current = ref (score c assignment) in
  let best = Array.copy assignment in
  let best_score = ref !current in
  let temperature = ref options.initial_temperature in
  for _ = 1 to options.sweeps do
    for v = 0 to n - 1 do
      let delta = flip_delta c assignment v in
      if
        delta > 0.
        || Random.State.float rng 1. < exp (delta /. Float.max 1e-9 !temperature)
      then begin
        assignment.(v) <- not assignment.(v);
        current := !current +. delta;
        if !current > !best_score then begin
          best_score := !current;
          Array.blit assignment 0 best 0 n
        end
      end
    done;
    temperature := !temperature *. options.cooling
  done;
  (* Greedy refinement from the best annealed state. *)
  let refined = Array.copy best in
  let improved = ref true in
  while !improved do
    improved := false;
    for v = 0 to n - 1 do
      if flip_delta c refined v > 0. then begin
        refined.(v) <- not refined.(v);
        improved := true
      end
    done
  done;
  let s = score c refined in
  if s >= !best_score then (refined, s) else (best, !best_score)

let exact_map c =
  let n = Fgraph.nvars c in
  if n > Exact.max_vars then
    invalid_arg "Map_inference.exact_map: too many variables";
  let best = Array.make n false in
  let best_score = ref neg_infinity in
  let assignment = Array.make n false in
  for world = 0 to (1 lsl n) - 1 do
    for v = 0 to n - 1 do
      assignment.(v) <- (world lsr v) land 1 = 1
    done;
    let s = score c assignment in
    if s > !best_score then begin
      best_score := s;
      Array.blit assignment 0 best 0 n
    end
  done;
  (best, !best_score)
