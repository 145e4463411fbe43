module Fgraph = Factor_graph.Fgraph

let neighbors c v each =
  for k = c.Fgraph.adj_off.(v) to c.Fgraph.adj_off.(v + 1) - 1 do
    let f = c.Fgraph.adj.(k) in
    let touch u = if u >= 0 && u <> v then each u in
    touch c.Fgraph.head.(f);
    touch c.Fgraph.body1.(f);
    touch c.Fgraph.body2.(f)
  done

let color c =
  let n = Fgraph.nvars c in
  let colors = Array.make n (-1) in
  let forbidden = Array.make (n + 1) (-1) in
  for v = 0 to n - 1 do
    neighbors c v (fun u -> if colors.(u) >= 0 then forbidden.(colors.(u)) <- v);
    let k = ref 0 in
    while forbidden.(!k) = v do
      incr k
    done;
    colors.(v) <- !k
  done;
  colors

let verify_coloring c colors =
  let ok = ref true in
  let check u v = if u >= 0 && v >= 0 && u <> v && colors.(u) = colors.(v) then ok := false in
  Array.iteri
    (fun f _ ->
      let h = c.Fgraph.head.(f)
      and b1 = c.Fgraph.body1.(f)
      and b2 = c.Fgraph.body2.(f) in
      check h b1;
      check h b2;
      check b1 b2)
    c.Fgraph.fweight;
  !ok

(* Fixed chunking of a colour class: the RNG stream of a chunk is derived
   from (seed, sweep, global chunk id), and the chunking depends only on
   the class sizes, so the Markov chain — and hence the marginals — is a
   function of the graph and the seed alone. *)
let chunk_size = 256

type run_info = {
  sweeps_run : int;
  stopped_at_sweep : int option;
  diag : Diagnostics.Online.report option;
}

let default_checkpoint = 20

let marginals_joints ?(options = Gibbs.default_options) ?(obs = Obs.null)
    ?(checkpoint = default_checkpoint) ?early_stop ~pairs c =
  if checkpoint < 1 then invalid_arg "Chromatic.marginals_info: checkpoint < 1";
  let n = Fgraph.nvars c in
  let t_start = if Obs.enabled obs then Obs.now () else 0. in
  let colors = color c in
  if Obs.debug && not (verify_coloring c colors) then
    invalid_arg "Chromatic.marginals_info: improper coloring";
  let n_colors = 1 + Array.fold_left max (-1) colors in
  (* Online diagnostics are on whenever an early-stop criterion needs
     them. *)
  let diag =
    if early_stop <> None then
      Some (Diagnostics.Online.create ~segment:checkpoint n)
    else None
  in
  (* The sweep runs over a class-major renumbering of [c]: [perm] lists
     class 0's variables in ascending order, then class 1's, and so on
     (a counting sort: class [k] fills positions [class_off.(k)] to
     [class_off.(k + 1) - 1]), so a class is one contiguous range of the
     permuted graph and its variables' slots, states and accumulators
     are adjacent in memory.
     Chunk [j] of class [k] is positions [j * chunk_size ...] of that
     range: the same variables, in the same order, as the [j]th slice of
     the class in the original numbering, so it keeps its RNG stream and
     draws the same numbers. *)
  let class_off = Array.make (n_colors + 1) 0 in
  Array.iter (fun k -> class_off.(k + 1) <- class_off.(k + 1) + 1) colors;
  for k = 1 to n_colors do
    class_off.(k) <- class_off.(k) + class_off.(k - 1)
  done;
  let perm = Array.make n 0 and next = Array.sub class_off 0 n_colors in
  Array.iteri
    (fun v k ->
      perm.(next.(k)) <- v;
      next.(k) <- next.(k) + 1)
    colors;
  (* The chain's slots in mask form, over the permuted graph: built here,
     once per run, since only the chain reads them. *)
  let kernel = Gibbs.kernel (Fgraph.permute c perm) in
  (* The pairs in the permuted numbering, and how many estimation sweeps
     ended with both of a pair's variables true. *)
  let pos = Array.make n 0 in
  Array.iteri (fun i v -> pos.(v) <- i) perm;
  let pair_a = Array.map (fun (a, _) -> pos.(a)) pairs
  and pair_b = Array.map (fun (_, b) -> pos.(b)) pairs in
  let both = Array.make (Array.length pairs) 0 in
  let class_chunks k =
    (class_off.(k + 1) - class_off.(k) + chunk_size - 1) / chunk_size
  in
  (* Global chunk ids, in schedule order. *)
  let chunk_id0 = Array.make n_colors 0 in
  for k = 1 to n_colors - 1 do
    chunk_id0.(k) <- chunk_id0.(k - 1) + class_chunks (k - 1)
  done;
  let class_names = Array.init n_colors (Printf.sprintf "class %d") in
  (* The starting state is drawn from one stream in ascending original
     variable order, so it — and hence the whole chain — is a
     deterministic function of the seed.  The chain keeps it as the
     kernel's 0/1 [int] state. *)
  let init_rng = Random.State.make [| options.seed |] in
  let initial = Array.init n (fun _ -> Random.State.bool init_rng) in
  let st = Gibbs.state n (fun v -> initial.(perm.(v))) in
  let acc = Array.make n 0. in
  let sweep_no = ref 0 in
  let sweep estimate =
    incr sweep_no;
    let s = !sweep_no in
    (* Refetched per sweep: a segment roll in [begin_sweep] swaps the
       accumulator arrays behind the view. *)
    let dview =
      match (estimate, diag) with
      | true, Some o -> Some (Diagnostics.Online.view o)
      | _ -> None
    in
    (* Spans share the name "sweep"/"class k" on purpose: the summary
       aggregates by path, so the tree stays bounded by the colour count
       while still timing every class of every sweep. *)
    Obs.with_span obs "sweep" ~cat:"inference" (fun () ->
        for k = 0 to n_colors - 1 do
          (* Variables of a colour class share no factor, so their
             conditionals are mutually independent: neither the
             conditional of [v] nor its flip touches any state another
             variable of the class reads, and the class could be swept
             in any order, or in parallel.  It is swept here, on the
             calling domain, chunk after chunk: a pool region per class
             costs more than the largest class's sweep. *)
          Obs.with_span obs class_names.(k) ~cat:"inference" (fun () ->
              let base = class_off.(k) and last = class_off.(k + 1) in
              for j = 0 to class_chunks k - 1 do
                let lo = base + (j * chunk_size) in
                let hi = min last (lo + chunk_size) in
                let rng =
                  Random.State.make [| options.seed; s; chunk_id0.(k) + j |]
                in
                let out = { Gibbs.value = 0. } in
                (* Three copies of the inner loop so the estimate and
                   diagnostics tests happen once per chunk, not once
                   per variable, and the Welford + lag-1 update is
                   inlined through the view rather than paying a
                   cross-module call per variable.  Diagnostics stay
                   keyed by the original variable [perm.(v)]. *)
                match (estimate, dview) with
                | true, Some vw ->
                  let mean = vw.Diagnostics.Online.v_mean
                  and m2 = vw.Diagnostics.Online.v_m2
                  and ic = vw.Diagnostics.Online.v_inv_count
                  and prev = vw.Diagnostics.Online.v_prev
                  and cross = vw.Diagnostics.Online.v_cross in
                  for v = lo to hi - 1 do
                    Gibbs.conditional kernel st v out;
                    let p = out.value in
                    st.(v) <- Bool.to_int (Random.State.float rng 1. < p);
                    acc.(v) <- acc.(v) +. p;
                    let u = perm.(v) in
                    let d = p -. mean.(u) in
                    let m = mean.(u) +. (d *. ic) in
                    mean.(u) <- m;
                    m2.(u) <- m2.(u) +. (d *. (p -. m));
                    cross.(u) <- cross.(u) +. (p *. prev.(u));
                    prev.(u) <- p
                  done
                | true, None ->
                  for v = lo to hi - 1 do
                    Gibbs.conditional kernel st v out;
                    let p = out.value in
                    st.(v) <- Bool.to_int (Random.State.float rng 1. < p);
                    acc.(v) <- acc.(v) +. p
                  done
                | false, _ ->
                  for v = lo to hi - 1 do
                    Gibbs.conditional kernel st v out;
                    let p = out.value in
                    st.(v) <- Bool.to_int (Random.State.float rng 1. < p)
                  done
              done)
        done)
  in
  (* Checkpoint emission: volatile rates are computed only when a sink is
     installed, so a metrics-off run pays nothing for the plumbing. *)
  let last_snap_t = ref (Obs.now ()) in
  let last_snap_sweep = ref 0 in
  let snap ~phase ~step data =
    if Obs.snapshots_enabled obs then begin
      let t = Obs.now () in
      let dt = t -. !last_snap_t in
      let swept = !sweep_no - !last_snap_sweep in
      let rate =
        if dt > 0. then float_of_int (swept * n) /. dt else 0.
      in
      last_snap_t := t;
      last_snap_sweep := !sweep_no;
      Obs.snapshot obs ~stage:"gibbs" ~point:"checkpoint" ~step
        ~perf:(("samples_per_sec", Obs.F rate) :: Obs.mem_stats ())
        (("phase", Obs.S phase)
        :: ("vars", Obs.I n)
        :: ("colors", Obs.I n_colors)
        :: data)
    end
  in
  Obs.with_span obs "burn_in" ~cat:"inference" (fun () ->
      for s = 1 to options.burn_in do
        sweep false;
        if s mod checkpoint = 0 || s = options.burn_in then
          snap ~phase:"burn_in" ~step:s []
      done);
  let stopped = ref None in
  let est_sweeps = ref 0 in
  let final_report = ref None in
  Obs.with_span obs "sampling" ~cat:"inference" (fun () ->
      try
        for s = 1 to options.samples do
          Option.iter Diagnostics.Online.begin_sweep diag;
          sweep true;
          for k = 0 to Array.length both - 1 do
            both.(k) <- both.(k) + (st.(pair_a.(k)) land st.(pair_b.(k)))
          done;
          est_sweeps := s;
          if s mod checkpoint = 0 || s = options.samples then begin
            let rep = Option.map Diagnostics.Online.report diag in
            final_report := rep;
            snap ~phase:"sampling" ~step:s
              (match rep with
              | Some r ->
                [
                  ("max_r_hat", Obs.F r.Diagnostics.Online.max_r_hat);
                  ("min_ess", Obs.F r.Diagnostics.Online.min_ess);
                ]
              | None -> []);
            match (early_stop, rep) with
            | Some crit, Some r
              when s < options.samples
                   && Diagnostics.Online.satisfied crit r ->
              stopped := Some s;
              raise Exit
            | _ -> ()
          end
        done
      with Exit -> ());
  let diag_report =
    match !final_report with
    | Some _ as r -> r
    | None -> Option.map Diagnostics.Online.report diag
  in
  if Obs.enabled obs then begin
    let elapsed = Obs.now () -. t_start in
    Obs.add obs "gibbs.sweeps" !sweep_no;
    Obs.add obs "gibbs.variables" n;
    Obs.gauge obs "gibbs.colors" (float_of_int n_colors);
    (match !stopped with
    | Some s -> Obs.gauge obs "gibbs.stopped_at_sweep" (float_of_int s)
    | None -> ());
    if elapsed > 0. then
      Obs.gauge obs "gibbs.samples_per_sec"
        (float_of_int (!sweep_no * n) /. elapsed)
  end;
  let marg = Array.make n 0. in
  Array.iteri
    (fun v a -> marg.(perm.(v)) <- a /. float_of_int (max 1 !est_sweeps))
    acc;
  ( marg,
    Array.map
      (fun k -> float_of_int k /. float_of_int (max 1 !est_sweeps))
      both,
    {
      sweeps_run = !est_sweeps;
      stopped_at_sweep = !stopped;
      diag = diag_report;
    } )

let marginals_info ?options ?obs ?checkpoint ?early_stop c =
  let marg, _, info =
    marginals_joints ?options ?obs ?checkpoint ?early_stop ~pairs:[||] c
  in
  (marg, info)
