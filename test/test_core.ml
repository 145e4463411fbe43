(* The Probkb facade: configuration plumbing and the full pipeline. *)

let check_int = Alcotest.(check int)

let test_expand_worked_example () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let engine = Probkb.Engine.create ~config:(Probkb.Config.make ~inference:None ()) kb in
  let e = Probkb.Engine.expand engine in
  Alcotest.(check bool) "converged" true e.Probkb.Engine.converged;
  check_int "new facts" 5 e.Probkb.Engine.new_fact_count;
  check_int "factors" 8 e.Probkb.Engine.n_factors;
  check_int "rules used" 6 e.Probkb.Engine.rules_used

let test_run_stores_marginals () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let engine =
    Probkb.Engine.create
      ~config:
        (Probkb.Config.make ~inference:(Some Inference.Hybrid.default_options)
           ())
      kb
  in
  let result = Probkb.Engine.run engine in
  check_int "all inferred facts got probabilities" 5
    result.Probkb.Engine.marginals_stored;
  (* Base facts keep their extraction confidence. *)
  let base_weights = ref [] in
  Kb.Storage.iter
    (fun ~id:_ ~r:_ ~x:_ ~c1:_ ~y:_ ~c2:_ ~w ->
      if not (Relational.Table.is_null_weight w) then
        base_weights := w :: !base_weights)
    (Kb.Gamma.pi kb);
  Alcotest.(check bool) "extraction confidences preserved" true
    (List.exists (fun w -> Float.abs (w -. 0.96) < 1e-9) !base_weights);
  (* No null weights remain. *)
  let nulls = ref 0 in
  Kb.Storage.iter
    (fun ~id:_ ~r:_ ~x:_ ~c1:_ ~y:_ ~c2:_ ~w ->
      if Relational.Table.is_null_weight w then incr nulls)
    (Kb.Gamma.pi kb);
  check_int "no unresolved facts" 0 !nulls

let test_rule_cleaning_config () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let engine =
    Probkb.Engine.create
      ~config:(Probkb.Config.make ~inference:None ~rule_theta:0.34 ())
      kb
  in
  let e = Probkb.Engine.expand engine in
  (* ceil(0.34 * 6) = 3 rules survive, the heaviest ones. *)
  check_int "rules used" 3 e.Probkb.Engine.rules_used;
  Alcotest.(check bool) "kb rules replaced" true
    (List.length (Kb.Gamma.rules kb) = 3)

let test_semantic_constraints_config () =
  let kb = Kb.Gamma.create () in
  ignore (Kb.Loader.load_rules kb [ "1.0 p(x:A, y:B) :- q(x, y)" ]);
  let add x y =
    ignore (Kb.Gamma.add_fact_by_name kb ~r:"q" ~x ~c1:"A" ~y ~c2:"B" ~w:0.9)
  in
  add "a" "b1";
  add "a" "b2";
  Kb.Gamma.add_funcon kb
    (Kb.Funcon.make ~rel:(Kb.Gamma.relation kb "q") ~ftype:Kb.Funcon.Type_I
       ~degree:1);
  let engine =
    Probkb.Engine.create
      ~config:(Probkb.Config.make ~inference:None ~semantic_constraints:true ())
      kb
  in
  let e = Probkb.Engine.expand engine in
  check_int "violating facts removed" 2 e.Probkb.Engine.removed_by_constraints;
  check_int "nothing inferred from removed facts" 0 e.Probkb.Engine.new_fact_count

let test_mpp_engine_config () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let engine =
    Probkb.Engine.create
      ~config:
        (Probkb.Config.make ~inference:None
           ~engine:
             (Probkb.Config.Mpp
                {
                  cluster = { Mpp.Cluster.default with Mpp.Cluster.nseg = 4 };
                  views = true;
                })
           ())
      kb
  in
  let e = Probkb.Engine.expand engine in
  check_int "same expansion on MPP" 5 e.Probkb.Engine.new_fact_count;
  check_int "same factors on MPP" 8 e.Probkb.Engine.n_factors;
  Alcotest.(check bool) "sim clock reported" true
    (Option.is_some e.Probkb.Engine.sim_seconds)

(* With Ω on, every engine route reports the same expansion: the MPP
   routes run the constraint passes through the same closure loop as the
   single-node route, so they count the same removals. *)
let test_mpp_constraints_match_single_node () =
  let kb =
    Workload.Reverb_sherlock.kb
      (Workload.Reverb_sherlock.generate
         { Workload.Reverb_sherlock.default_config with scale = 0.008; seed = 7 })
  in
  let expand engine =
    let kb = Tutil.copy_gamma kb in
    let e =
      Probkb.Engine.expand
        (Probkb.Engine.create
           ~config:
             (Probkb.Config.make ~inference:None ~semantic_constraints:true
                ~engine ())
           kb)
    in
    let keys = ref [] in
    Kb.Storage.iter
      (fun ~id:_ ~r ~x ~c1 ~y ~c2 ~w:_ -> keys := [ r; x; c1; y; c2 ] :: !keys)
      (Kb.Gamma.pi kb);
    (e, List.sort compare !keys)
  in
  let mpp views =
    Probkb.Config.Mpp
      { cluster = { Mpp.Cluster.default with Mpp.Cluster.nseg = 4 }; views }
  in
  let single, single_keys = expand Probkb.Config.Single_node in
  Alcotest.(check bool) "omega fired" true
    (single.Probkb.Engine.removed_by_constraints > 0);
  List.iter
    (fun (name, engine) ->
      let e, keys = expand engine in
      check_int (name ^ ": removed_by_constraints")
        single.Probkb.Engine.removed_by_constraints
        e.Probkb.Engine.removed_by_constraints;
      Alcotest.(check bool) (name ^ ": trajectory") true
        (single.Probkb.Engine.trajectory = e.Probkb.Engine.trajectory);
      Alcotest.(check (list (list int))) (name ^ ": fact keys") single_keys keys)
    [ ("mpp views", mpp true); ("mpp pn", mpp false) ]

let test_incremental_incorporate () =
  (* Expand once; then add a new born_in fact and check only its
     consequences are derived — and that the result equals a full
     re-expansion from scratch. *)
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let engine = Probkb.Engine.create ~config:(Probkb.Config.make ~inference:None ()) kb in
  let s = Probkb.Engine.session engine in
  let ingest facts =
    let st = Probkb.Engine.Session.ingest s facts in
    (st.Probkb.Engine.Session.inserted, st.Probkb.Engine.Session.derived)
  in
  let n_before = Kb.Storage.size (Kb.Gamma.pi kb) in
  let r = Kb.Gamma.relation kb "born_in" in
  let x = Kb.Gamma.entity kb "Phil" in
  let c1 = Kb.Gamma.cls kb "W" in
  let y = Kb.Gamma.entity kb "Queens" in
  let c2 = Kb.Gamma.cls kb "P" in
  let inserted, inferred = ingest [ (r, x, c1, y, c2, 0.8) ] in
  check_int "one inserted" 1 inserted;
  (* born_in(Phil, Queens) derives live_in and grow_up_in (P-typed
     rules). *)
  check_int "two consequences" 2 inferred;
  check_int "store grew by 3" (n_before + 3) (Kb.Storage.size (Kb.Gamma.pi kb));
  (* Compare against a from-scratch expansion with the same base facts. *)
  let kb2, _, _ = Tutil.ruth_gruber_kb () in
  ignore
    (Kb.Gamma.add_fact_by_name kb2 ~r:"born_in" ~x:"Phil" ~c1:"W" ~y:"Queens"
       ~c2:"P" ~w:0.8);
  ignore (Grounding.Ground.run kb2);
  check_int "incremental = from scratch"
    (Kb.Storage.size (Kb.Gamma.pi kb2))
    (Kb.Storage.size (Kb.Gamma.pi kb));
  (* Duplicate insertions are no-ops. *)
  let inserted, inferred = ingest [ (r, x, c1, y, c2, 0.8) ] in
  check_int "dup insert" 0 inserted;
  check_int "dup infers nothing" 0 inferred

let test_incremental_chain_reaction () =
  (* New facts can cascade through two-atom rules. *)
  let kb = Kb.Gamma.create () in
  ignore
    (Kb.Loader.load_rules kb
       [ "1.0 anc(x:P, y:P) :- par(x, y)";
         "1.0 anc(x:P, y:P) :- anc(x, z:P), anc(z, y)" ]);
  let pair a b =
    ( Kb.Gamma.relation kb "par",
      Kb.Gamma.entity kb a,
      Kb.Gamma.cls kb "P",
      Kb.Gamma.entity kb b,
      Kb.Gamma.cls kb "P",
      1.0 )
  in
  let engine = Probkb.Engine.create ~config:(Probkb.Config.make ~inference:None ()) kb in
  let s = Probkb.Engine.session engine in
  ignore (Probkb.Engine.Session.ingest s [ pair "a" "b"; pair "c" "d" ]);
  (* Two disconnected edges: anc(a,b), anc(c,d). *)
  check_int "4 facts" 4 (Kb.Storage.size (Kb.Gamma.pi kb));
  (* The bridging edge connects everything: a-b-c-d. *)
  ignore (Probkb.Engine.Session.ingest s [ pair "b" "c" ]);
  (* anc = all 6 ordered pairs along the chain. *)
  let anc = Kb.Gamma.relation kb "anc" in
  let count = ref 0 in
  Kb.Storage.iter
    (fun ~id:_ ~r ~x:_ ~c1:_ ~y:_ ~c2:_ ~w:_ -> if r = anc then incr count)
    (Kb.Gamma.pi kb);
  check_int "anc closure after bridge" 6 !count

let test_incorporate_batches_differential =
  (* Ingesting the same extractions into a session in k batches must
     reach the same closure as one from-scratch expansion over their
     union — the insert-path mirror of the retract differential in
     test_incremental.  Both sides run to the fixpoint: under the default
     15-iteration cap some generator seeds (67 and 93 of 0..100) stop the
     from-scratch closure short of it, while k batches of up to 15
     iterations each reach it. *)
  Tutil.qcheck_case ~count:10 "incorporate over batches = from-scratch expand"
    QCheck.(pair small_nat (int_range 2 5))
    (fun (seed, k) ->
      let g =
        Workload.Reverb_sherlock.generate
          { Workload.Reverb_sherlock.default_config with scale = 0.004; seed }
      in
      let proto = Workload.Reverb_sherlock.kb g in
      let base = ref [] in
      Kb.Storage.iter
        (fun ~id:_ ~r ~x ~c1 ~y ~c2 ~w ->
          base := (r, x, c1, y, c2, w) :: !base)
        (Kb.Gamma.pi proto);
      let base = List.rev !base in
      (* Deal the extractions round-robin into k arrival batches. *)
      let batches = Array.make k [] in
      List.iteri (fun i f -> batches.(i mod k) <- f :: batches.(i mod k)) base;
      let inc_kb = Kb.Gamma.create_like proto in
      List.iter (Kb.Gamma.add_rule inc_kb) (Kb.Gamma.rules proto);
      let engine =
        Probkb.Engine.create
          ~config:(Probkb.Config.make ~inference:None ~max_iterations:100 ())
          inc_kb
      in
      let s = Probkb.Engine.session engine in
      Array.iter
        (fun b -> ignore (Probkb.Engine.Session.ingest s (List.rev b)))
        batches;
      let oracle = Tutil.copy_gamma proto in
      let closed =
        Grounding.Ground.closure
          ~options:
            { Grounding.Ground.default_options with max_iterations = 100 }
          oracle
      in
      let view kb =
        let acc = ref [] in
        Kb.Storage.iter
          (fun ~id:_ ~r ~x ~c1 ~y ~c2 ~w ->
            acc := (r, x, c1, y, c2, Relational.Table.is_null_weight w) :: !acc)
          (Kb.Gamma.pi kb);
        List.sort compare !acc
      in
      closed.Grounding.Ground.converged && view inc_kb = view oracle)

(* Minimal substring search to avoid extra dependencies. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_report_rendering () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let engine =
    Probkb.Engine.create
      ~config:
        (Probkb.Config.make ~inference:(Some Inference.Hybrid.default_options)
           ())
      kb
  in
  let result = Probkb.Engine.run engine in
  let text = Fmt.str "%a" Probkb.Report.pp_result result in
  Alcotest.(check bool) "mentions convergence" true
    (contains text "converged");
  Alcotest.(check bool) "mentions marginals" true
    (contains text "marginals stored: 5");
  let kb_text = Fmt.str "%a" Probkb.Report.pp_kb kb in
  Alcotest.(check bool) "lists relations" true (contains kb_text "born_in")

let test_expansion_trajectory () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let engine =
    Probkb.Engine.create ~config:(Probkb.Config.make ~inference:None ()) kb
  in
  let e = Probkb.Engine.expand engine in
  let traj = e.Probkb.Engine.trajectory in
  (* No constraint hook: one point per closure iteration, no pre-pass. *)
  check_int "one point per iteration" e.Probkb.Engine.iterations
    (List.length traj);
  let total =
    List.fold_left
      (fun acc (p : Grounding.Ground.trajectory_point) ->
        acc + p.Grounding.Ground.new_facts)
      0 traj
  in
  check_int "trajectory sums to the new-fact count"
    e.Probkb.Engine.new_fact_count total;
  (* total_facts is non-decreasing without deletions. *)
  let rec monotone = function
    | (a : Grounding.Ground.trajectory_point)
      :: (b : Grounding.Ground.trajectory_point) :: rest ->
      a.Grounding.Ground.total_facts <= b.Grounding.Ground.total_facts
      && monotone (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "totals monotone" true (monotone traj);
  (* The bar plot renders, and both JSON encoders include the curve. *)
  let text = Fmt.str "%a" Probkb.Report.pp_trajectory traj in
  Alcotest.(check bool) "plot mentions totals" true (contains text "total");
  let json = Obs.Json.to_string (Probkb.Report.expansion_to_json e) in
  Alcotest.(check bool) "expansion JSON carries trajectory" true
    (contains json "\"trajectory\"")

let test_trajectory_with_constraints () =
  let kb = Kb.Gamma.create () in
  ignore (Kb.Loader.load_rules kb [ "1.0 p(x:A, y:B) :- q(x, y)" ]);
  let add x y =
    ignore (Kb.Gamma.add_fact_by_name kb ~r:"q" ~x ~c1:"A" ~y ~c2:"B" ~w:0.9)
  in
  add "a" "b1";
  add "a" "b2";
  Kb.Gamma.add_funcon kb
    (Kb.Funcon.make ~rel:(Kb.Gamma.relation kb "q") ~ftype:Kb.Funcon.Type_I
       ~degree:1);
  let engine =
    Probkb.Engine.create
      ~config:(Probkb.Config.make ~inference:None ~semantic_constraints:true ())
      kb
  in
  let e = Probkb.Engine.expand engine in
  match e.Probkb.Engine.trajectory with
  | (p0 : Grounding.Ground.trajectory_point) :: _ ->
    check_int "pre-pass is point 0" 0 p0.Grounding.Ground.iteration;
    check_int "pre-pass sees the violation" 1 p0.Grounding.Ground.violations;
    check_int "pre-pass removes both facts" 2 p0.Grounding.Ground.removed
  | [] -> Alcotest.fail "constraint run must record the pre-pass"

let test_run_reports_sampler_info () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  (* No enumeration and no elimination past width 0: the dispatcher must
     sample the worked example's component. *)
  let engine =
    Probkb.Engine.create
      ~config:
        (Probkb.Config.make
           ~inference:
             (Some
                {
                  Inference.Hybrid.default_options with
                  gibbs =
                    { Inference.Gibbs.burn_in = 50; samples = 200; seed = 3 };
                })
           ~exact_max_vars:0 ~max_width:0 ~target_r_hat:1.5 ~min_ess:5.
           ~checkpoint_sweeps:10 ())
      kb
  in
  let result = Probkb.Engine.run engine in
  (match result.Probkb.Engine.inference with
  | Some (Inference.Marginal.Hybrid_run { Inference.Hybrid.gibbs = Some i; _ })
    ->
    Alcotest.(check bool) "sweeps recorded" true
      (i.Inference.Chromatic.sweeps_run > 0);
    (match i.Inference.Chromatic.diag with
    | Some _ -> ()
    | None -> Alcotest.fail "early-stop config implies online diagnostics")
  | Some _ | None -> Alcotest.fail "a sampled core must report sampler info");
  let text = Fmt.str "%a" Probkb.Report.pp_result result in
  Alcotest.(check bool) "report mentions the sampler" true
    (contains text "sampler:");
  let json = Obs.Json.to_string (Probkb.Report.result_to_json result) in
  Alcotest.(check bool) "JSON carries sweeps_run" true
    (contains json "\"sweeps_run\"");
  Alcotest.(check bool) "JSON carries stopped_at_sweep" true
    (contains json "\"stopped_at_sweep\"")

let test_config_early_stop () =
  let c = Probkb.Config.make () in
  Alcotest.(check bool) "no criteria by default" true
    (Probkb.Config.early_stop_criteria c = None);
  let c' = Probkb.Config.with_early_stop ~target_r_hat:1.05 c in
  (match Probkb.Config.early_stop_criteria c' with
  | Some crit ->
    Alcotest.(check (float 1e-9)) "target carried" 1.05
      crit.Inference.Diagnostics.Online.target_r_hat;
    Alcotest.(check (float 1e-9)) "unset ESS never binds" 0.
      crit.Inference.Diagnostics.Online.min_ess
  | None -> Alcotest.fail "criterion set but not reported");
  match Probkb.Config.make ~checkpoint_sweeps:0 () with
  | _ -> Alcotest.fail "checkpoint_sweeps 0 must be rejected"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "core"
    [
      ( "engine",
        [
          Alcotest.test_case "expand worked example" `Quick
            test_expand_worked_example;
          Alcotest.test_case "run stores marginals" `Quick
            test_run_stores_marginals;
          Alcotest.test_case "rule cleaning" `Quick test_rule_cleaning_config;
          Alcotest.test_case "semantic constraints" `Quick
            test_semantic_constraints_config;
          Alcotest.test_case "mpp engine" `Quick test_mpp_engine_config;
          Alcotest.test_case "mpp constraints = single node" `Quick
            test_mpp_constraints_match_single_node;
          Alcotest.test_case "incremental incorporate" `Quick
            test_incremental_incorporate;
          Alcotest.test_case "incremental cascade" `Quick
            test_incremental_chain_reaction;
          test_incorporate_batches_differential;
          Alcotest.test_case "report rendering" `Quick test_report_rendering;
        ] );
      ( "live run health",
        [
          Alcotest.test_case "expansion trajectory" `Quick
            test_expansion_trajectory;
          Alcotest.test_case "trajectory with constraints" `Quick
            test_trajectory_with_constraints;
          Alcotest.test_case "sampler info in result" `Quick
            test_run_reports_sampler_info;
          Alcotest.test_case "early-stop config" `Quick test_config_early_stop;
        ] );
    ]
