module Fgraph = Factor_graph.Fgraph

type stats = { n_colors : int; ideal_speedup : float }

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

let classes colors =
  let n_colors = 1 + Array.fold_left max (-1) colors in
  let by_color = Array.make n_colors [] in
  Array.iteri (fun v k -> by_color.(k) <- v :: by_color.(k)) colors;
  Array.map (fun l -> Array.of_list (List.rev l)) by_color

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

(* Fixed chunking of a colour class, independent of the pool size: the RNG
   stream of a chunk is derived from (seed, sweep, global chunk id), so the
   Markov chain — and hence the marginals — is bit-identical for any
   PROBKB_DOMAINS. *)
let chunk_size = 256

type run_info = {
  sweeps_run : int;
  stopped_at_sweep : int option;
  diag : Diagnostics.Online.report option;
  assignment : bool array;
}

let default_checkpoint = 20

let marginals_info ?(options = Gibbs.default_options) ?(obs = Obs.null) ?pool
    ?(checkpoint = default_checkpoint) ?online ?early_stop ?init c =
  if checkpoint < 1 then invalid_arg "Chromatic.marginals: checkpoint < 1";
  let n = Fgraph.nvars c in
  let t_start = if Obs.enabled obs then Obs.now () else 0. in
  let colors = color c in
  if Obs.debug && not (verify_coloring c colors) then
    invalid_arg "Chromatic.marginals: improper coloring";
  let by_color = classes colors in
  let pool = match pool with Some p -> p | None -> Pool.get_default () in
  (* Online diagnostics are on whenever an early-stop criterion needs
     them; [~online:true] turns them on for reporting alone. *)
  let diag =
    let requested =
      match online with Some b -> b | None -> early_stop <> None
    in
    if requested then Some (Diagnostics.Online.create ~segment:checkpoint n)
    else None
  in
  (* Chunks of each class, with schedule-order global ids. *)
  let class_chunks =
    Array.map
      (fun cls ->
        let len = Array.length cls in
        let nc = (len + chunk_size - 1) / chunk_size in
        Array.init nc (fun j ->
            (j * chunk_size, min len ((j + 1) * chunk_size))))
      by_color
  in
  let chunk_id0 = Array.make (Array.length by_color) 0 in
  let total = ref 0 in
  Array.iteri
    (fun k chs ->
      chunk_id0.(k) <- !total;
      total := !total + Array.length chs)
    class_chunks;
  (* Warm start: [init v] supplies the starting state of dense variable
     [v]; [None] falls back to a fresh random draw.  The fallback draws
     come from the same single-threaded stream in ascending variable
     order, so the initial state — and hence the whole chain — is a
     deterministic function of (seed, init) at any pool size. *)
  let init_rng = Random.State.make [| options.seed |] in
  let assignment =
    match init with
    | None -> Array.init n (fun _ -> Random.State.bool init_rng)
    | Some f ->
      Array.init n (fun v ->
          match f v with
          | Some b -> b
          | None -> Random.State.bool init_rng)
  in
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
        Array.iteri
          (fun k cls ->
            (* One parallel step: variables of a colour class share no
               factor, so their conditionals are mutually independent —
               neither the conditional of [v] nor its flip touches any
               state another chunk of the same class reads.  Classes are
               separated by the pool barrier. *)
            Obs.with_span obs
              (Printf.sprintf "class %d" k)
              ~cat:"inference"
              (fun () ->
                let chs = class_chunks.(k) in
                Pool.parallel_for pool ~n:(Array.length chs) (fun j ->
                    let lo, hi = chs.(j) in
                    let rng =
                      Random.State.make [| options.seed; s; chunk_id0.(k) + j |]
                    in
                    let out = { Gibbs.value = 0. } in
                    (* Three copies of the inner loop so the estimate and
                       diagnostics tests happen once per chunk, not once
                       per variable, and the Welford + lag-1 update is
                       inlined through the view rather than paying a
                       cross-module call per variable. *)
                    match (estimate, dview) with
                    | true, Some vw ->
                      let mean = vw.Diagnostics.Online.v_mean
                      and m2 = vw.Diagnostics.Online.v_m2
                      and ic = vw.Diagnostics.Online.v_inv_count
                      and prev = vw.Diagnostics.Online.v_prev
                      and cross = vw.Diagnostics.Online.v_cross in
                      for i = lo to hi - 1 do
                        let v = cls.(i) in
                        Gibbs.conditional c assignment v out;
                        let p = out.value in
                        assignment.(v) <- Random.State.float rng 1. < p;
                        acc.(v) <- acc.(v) +. p;
                        let d = p -. mean.(v) in
                        let m = mean.(v) +. (d *. ic) in
                        mean.(v) <- m;
                        m2.(v) <- m2.(v) +. (d *. (p -. m));
                        cross.(v) <- cross.(v) +. (p *. prev.(v));
                        prev.(v) <- p
                      done
                    | true, None ->
                      for i = lo to hi - 1 do
                        let v = cls.(i) in
                        Gibbs.conditional c assignment v out;
                        let p = out.value in
                        assignment.(v) <- Random.State.float rng 1. < p;
                        acc.(v) <- acc.(v) +. p
                      done
                    | false, _ ->
                      for i = lo to hi - 1 do
                        let v = cls.(i) in
                        Gibbs.conditional c assignment v out;
                        let p = out.value in
                        assignment.(v) <- Random.State.float rng 1. < p
                      done)))
          by_color)
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
        :: ("colors", Obs.I (Array.length by_color))
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
  (* A checkpoint report is computed only when something consumes it — a
     stop criterion or an installed snapshot sink. *)
  let need_checkpoint_report () =
    early_stop <> None || Obs.snapshots_enabled obs
  in
  Obs.with_span obs "sampling" ~cat:"inference" (fun () ->
      try
        for s = 1 to options.samples do
          (match diag with
          | Some o -> Diagnostics.Online.begin_sweep o
          | None -> ());
          sweep true;
          est_sweeps := s;
          if s mod checkpoint = 0 || s = options.samples then begin
            let rep =
              match diag with
              | Some o when need_checkpoint_report () ->
                Some (Diagnostics.Online.report o)
              | _ -> None
            in
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
    Obs.gauge obs "gibbs.colors" (float_of_int (Array.length by_color));
    (match !stopped with
    | Some s -> Obs.gauge obs "gibbs.stopped_at_sweep" (float_of_int s)
    | None -> ());
    if elapsed > 0. then
      Obs.gauge obs "gibbs.samples_per_sec"
        (float_of_int (!sweep_no * n) /. elapsed)
  end;
  ( Array.map (fun a -> a /. float_of_int (max 1 !est_sweeps)) acc,
    {
      sweeps_run = !est_sweeps;
      stopped_at_sweep = !stopped;
      diag = diag_report;
      assignment;
    } )

let marginals ?options ?obs ?pool c =
  fst (marginals_info ?options ?obs ?pool c)

let schedule_stats c =
  let by_color = classes (color c) in
  let n_colors = Array.length by_color in
  let n = float_of_int (Fgraph.nvars c) in
  (* With unbounded processors each colour costs one step. *)
  let span = float_of_int (max 1 n_colors) in
  { n_colors; ideal_speedup = (if n = 0. then 1. else n /. span) }
