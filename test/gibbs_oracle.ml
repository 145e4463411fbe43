(* Test oracle for the sampler's conditional kernel
   ([Inference.Gibbs.log_odds] / [conditional]): the satisfied-flip
   definition.  For each factor of [v], evaluate [Fgraph.satisfied] with
   [v] set both ways; where the two differ, the factor's weight enters the
   log-odds, signed by which setting satisfies it.  The kernel's mask
   slots must reproduce the conditional bit for bit.  Below it, the
   per-variable chromatic sweep that the class-major sweep replaced, and
   the colouring statistics. *)

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

(* The chromatic sweep before its class-major layout and its mask
   kernel: every colour class is swept in place, [v = cls.(i)] in the
   original numbering, one 256-variable chunk after another, chunk [j]
   of class [k] drawing from the stream [(seed, sweep, global chunk id)],
   each update reading the satisfied-flip [conditional] over a bool
   assignment.  Online diagnostics, on whenever an early stop is given,
   go through [Diagnostics.Online.observe].  After each estimation sweep
   it counts the [pairs] whose variables are both true.  Pool-free: the
   chain does not depend on the pool.
   [Inference.Chromatic.marginals_joints] must reproduce its marginals,
   joints and run info bit for bit. *)
let chromatic ?(options = Inference.Gibbs.default_options)
    ?(checkpoint = Inference.Chromatic.default_checkpoint) ?early_stop
    ?(pairs = [||]) c =
  let module Online = Inference.Diagnostics.Online in
  let chunk_size = 256 in
  let n = Fgraph.nvars c in
  let colors = Inference.Chromatic.color c in
  let by_color =
    Array.init
      (1 + Array.fold_left max (-1) colors)
      (fun k ->
        Array.of_seq
          (Seq.filter (fun v -> colors.(v) = k) (Seq.init n Fun.id)))
  in
  let diag =
    if early_stop <> None then
      Some (Online.create ~segment:checkpoint n)
    else None
  in
  let init_rng = Random.State.make [| options.seed |] in
  let assignment = Array.init n (fun _ -> Random.State.bool init_rng) in
  let acc = Array.make n 0. in
  let both = Array.make (Array.length pairs) 0 in
  let sweep_no = ref 0 in
  let sweep estimate =
    incr sweep_no;
    let chunk = ref 0 in
    Array.iter
      (fun cls ->
        let len = Array.length cls in
        for j = 0 to ((len + chunk_size - 1) / chunk_size) - 1 do
          let rng =
            Random.State.make [| options.seed; !sweep_no; !chunk |]
          in
          incr chunk;
          for i = j * chunk_size to min len ((j + 1) * chunk_size) - 1 do
            let v = cls.(i) in
            let p = conditional c assignment v in
            assignment.(v) <- Random.State.float rng 1. < p;
            if estimate then begin
              acc.(v) <- acc.(v) +. p;
              Option.iter (fun o -> Online.observe o v p) diag
            end
          done
        done)
      by_color
  in
  for _ = 1 to options.burn_in do
    sweep false
  done;
  let sweeps_run = ref 0 and stopped = ref None in
  while !stopped = None && !sweeps_run < options.samples do
    Option.iter Online.begin_sweep diag;
    sweep true;
    Array.iteri
      (fun k (a, b) ->
        if assignment.(a) && assignment.(b) then both.(k) <- both.(k) + 1)
      pairs;
    incr sweeps_run;
    let s = !sweeps_run in
    match (early_stop, diag) with
    | Some crit, Some o
      when s mod checkpoint = 0 && s < options.samples
           && Online.satisfied crit (Online.report o) ->
      stopped := Some s
    | _ -> ()
  done;
  let share x = x /. float_of_int (max 1 !sweeps_run) in
  ( Array.map share acc,
    Array.map (fun k -> share (float_of_int k)) both,
    {
      Inference.Chromatic.sweeps_run = !sweeps_run;
      stopped_at_sweep = !stopped;
      diag = Option.map Online.report diag;
    } )

(* Colouring statistics: the colour count, and the speed-up over a
   sequential sweep with unbounded processors (one step per colour). *)
type stats = { n_colors : int; ideal_speedup : float }

let schedule_stats c =
  let colors = Inference.Chromatic.color c in
  let n_colors = 1 + Array.fold_left max (-1) colors in
  let n = float_of_int (Fgraph.nvars c) in
  let span = float_of_int (max 1 n_colors) in
  { n_colors; ideal_speedup = (if n = 0. then 1. else n /. span) }
