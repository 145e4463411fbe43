module Json = Obs.Json

let trajectory_point_to_json (p : Grounding.Ground.trajectory_point) =
  Json.Obj
    [
      ("iteration", Json.Int p.Grounding.Ground.iteration);
      ("new_facts", Json.Int p.Grounding.Ground.new_facts);
      ("total_facts", Json.Int p.Grounding.Ground.total_facts);
      ("violations", Json.Int p.Grounding.Ground.violations);
      ("removed", Json.Int p.Grounding.Ground.removed);
    ]

let trajectory_to_json traj = Json.List (List.map trajectory_point_to_json traj)

(* Text plot of the expansion curve: one bar per iteration, scaled to the
   largest new-fact count (the Figure 7-style quality-over-iterations
   view, in a terminal). *)
let pp_trajectory ppf (traj : Grounding.Ground.trajectory_point list) =
  match traj with
  | [] -> ()
  | _ ->
    let width = 40 in
    let peak =
      List.fold_left
        (fun m (p : Grounding.Ground.trajectory_point) ->
          max m p.Grounding.Ground.new_facts)
        1 traj
    in
    Format.fprintf ppf "@[<v>expansion trajectory (■ = new facts):@,";
    List.iter
      (fun (p : Grounding.Ground.trajectory_point) ->
        let open Grounding.Ground in
        let bar = p.new_facts * width / peak in
        let extras =
          if p.violations > 0 || p.removed > 0 then
            Printf.sprintf "  %d violations, -%d" p.violations p.removed
          else ""
        in
        Format.fprintf ppf "  %2d %s +%-6d total %d%s@," p.iteration
          (String.concat "" (List.init bar (fun _ -> "\xe2\x96\xa0")))
          p.new_facts p.total_facts extras)
      traj;
    Format.fprintf ppf "@]"

(* The residual sampler's JSON keys ([sweeps_run], [stopped_at_sweep],
   [diagnostics]) are stable: downstream consumers grep for them. *)
let chromatic_to_json (i : Inference.Chromatic.run_info) =
  [
    ("sweeps_run", Json.Int i.Inference.Chromatic.sweeps_run);
    ( "stopped_at_sweep",
      match i.Inference.Chromatic.stopped_at_sweep with
      | Some s -> Json.Int s
      | None -> Json.Null );
    ( "diagnostics",
      match i.Inference.Chromatic.diag with
      | Some d ->
        Json.Obj
          [
            ("sweeps", Json.Int d.Inference.Diagnostics.Online.sweeps);
            ("max_r_hat", Json.Float d.Inference.Diagnostics.Online.max_r_hat);
            ("min_ess", Json.Float d.Inference.Diagnostics.Online.min_ess);
          ]
      | None -> Json.Null );
  ]

let inference_to_json (Inference.Marginal.Hybrid_run r) =
  let open Inference.Hybrid in
  Json.Obj
    [
      ("method", Json.String "hybrid");
      ("total_vars", Json.Int r.total_vars);
      ("exact_vars", Json.Int r.exact_vars);
      ("sampled_vars", Json.Int r.sampled_vars);
      ("peeled_vars", Json.Int r.peeled_vars);
      ("exact_fraction", Json.Float (exact_fraction r));
      ("enumerated_components", Json.Int r.enumerated_components);
      ("eliminated_components", Json.Int r.eliminated_components);
      ("sampled_components", Json.Int r.sampled_components);
      ("max_width_solved", Json.Int r.max_width_solved);
      ("exact_seconds", Json.Float r.exact_seconds);
      ("gibbs_seconds", Json.Float r.gibbs_seconds);
      ( "sampler",
        match r.gibbs with
        | Some c -> Json.Obj (chromatic_to_json c)
        | None -> Json.Null );
    ]

let pp_chromatic ppf (i : Inference.Chromatic.run_info) =
  let open Inference.Chromatic in
  Format.fprintf ppf "sampler: %d sweeps%s" i.sweeps_run
    (match i.stopped_at_sweep with
    | Some s -> Printf.sprintf " (early stop at %d)" s
    | None -> "");
  match i.diag with
  | Some d ->
    Format.fprintf ppf ", R-hat %.4f, ESS %.0f"
      d.Inference.Diagnostics.Online.max_r_hat
      d.Inference.Diagnostics.Online.min_ess
  | None -> ()

let pp_inference ppf (Inference.Marginal.Hybrid_run r) =
  let open Inference.Hybrid in
  Format.fprintf ppf
    "hybrid: %.1f%% of %d variables settled exactly@,\
    \  components: %d enumerated, %d junction-tree (max width %d), %d \
     sampled@,\
    \  sampled: %d variables, %d peeled exactly, the chain ran on %d@,\
    \  time: %.3fs exact, %.3fs gibbs"
    (100. *. exact_fraction r)
    r.total_vars r.enumerated_components r.eliminated_components
    r.max_width_solved r.sampled_components r.sampled_vars r.peeled_vars
    (r.sampled_vars - r.peeled_vars)
    r.exact_seconds r.gibbs_seconds;
  match r.gibbs with
  | Some c -> Format.fprintf ppf "@,  %a" pp_chromatic c
  | None -> ()

let pp_expansion ppf (e : Engine.expansion) =
  Format.fprintf ppf
    "@[<v>expansion: %d iterations%s, %d rules applied@,\
     facts: +%d inferred, %d removed by constraints@,\
     factors: %d@,\
     time: %.2fs wall%s@]"
    e.Engine.iterations
    (if e.Engine.converged then " (converged)" else " (budget hit)")
    e.Engine.rules_used e.Engine.new_fact_count e.Engine.removed_by_constraints
    e.Engine.n_factors e.Engine.wall_seconds
    (match e.Engine.sim_seconds with
    | Some s -> Printf.sprintf ", %.2fs simulated cluster" s
    | None -> "")

let expansion_to_json (e : Engine.expansion) =
  Json.Obj
    [
      ("iterations", Json.Int e.Engine.iterations);
      ("converged", Json.Bool e.Engine.converged);
      ("trajectory", trajectory_to_json e.Engine.trajectory);
      ("new_fact_count", Json.Int e.Engine.new_fact_count);
      ("removed_by_constraints", Json.Int e.Engine.removed_by_constraints);
      ("n_factors", Json.Int e.Engine.n_factors);
      ("rules_used", Json.Int e.Engine.rules_used);
      ("wall_seconds", Json.Float e.Engine.wall_seconds);
      ( "sim_seconds",
        match e.Engine.sim_seconds with
        | Some s -> Json.Float s
        | None -> Json.Null );
      ("obs", Obs.Summary.to_json e.Engine.obs);
    ]

let pp_result ppf (r : Engine.result) =
  Format.fprintf ppf "@[<v>%a@,marginals stored: %d" pp_expansion
    r.Engine.expansion r.Engine.marginals_stored;
  (match r.Engine.inference with
  | Some i -> Format.fprintf ppf "@,%a" pp_inference i
  | None -> ());
  Format.fprintf ppf "@]"

let result_to_json (r : Engine.result) =
  Json.Obj
    [
      ("expansion", expansion_to_json r.Engine.expansion);
      ("marginals_stored", Json.Int r.Engine.marginals_stored);
      ( "inference",
        match r.Engine.inference with
        | Some i -> inference_to_json i
        | None -> Json.Null );
      ("obs", Obs.Summary.to_json r.Engine.obs);
    ]

let pp_kb ppf kb =
  Format.fprintf ppf "@[<v>%a@," Kb.Gamma.pp_stats (Kb.Gamma.stats kb);
  let q = Kb.Query.prepare (Kb.Gamma.pi kb) in
  let rels = Kb.Query.relations q in
  Format.fprintf ppf "top relations by fact count:@,";
  List.iteri
    (fun i (r, n) ->
      if i < 10 then
        Format.fprintf ppf "  %6d  %s@," n
          (Relational.Dict.name (Kb.Gamma.relations kb) r))
    rels;
  if List.length rels > 10 then
    Format.fprintf ppf "  ... (%d more relations)@," (List.length rels - 10);
  Format.fprintf ppf "@]"

let pp_summary = Obs.Summary.pp

let epoch_to_json (st : Engine.Session.epoch_stats) =
  Json.Obj
    [
      ("epoch", Json.Int st.Engine.Session.epoch);
      ("op", Json.String st.Engine.Session.op);
      ("inserted", Json.Int st.Engine.Session.inserted);
      ("promoted", Json.Int st.Engine.Session.promoted);
      ("derived", Json.Int st.Engine.Session.derived);
      ("retracted", Json.Int st.Engine.Session.retracted);
      ("cone", Json.Int st.Engine.Session.cone);
      ("rederived", Json.Int st.Engine.Session.rederived);
      ("violations", Json.Int st.Engine.Session.violations);
      ("facts", Json.Int st.Engine.Session.facts);
      ("factors", Json.Int st.Engine.Session.factors);
      ("wall_seconds", Json.Float st.Engine.Session.wall_seconds);
    ]
