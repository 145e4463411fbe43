(* Performance experiments: Table 2, Table 3, Figure 4, Figures 6(a)-(c). *)

open Bench_util

(* ------------------------------------------------------------------ *)
(* Table 2: KB statistics                                              *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2 — ReVerb-Sherlock KB statistics";
  let scale = scale_or 1.0 in
  let g, gen_s =
    time (fun () ->
        Workload.Reverb_sherlock.generate
          { Workload.Reverb_sherlock.default_config with scale })
  in
  let s = Kb.Gamma.stats (Workload.Reverb_sherlock.kb g) in
  paper "82,768 relations | 30,912 rules | 277,216 entities | 407,247 facts";
  measured "%d relations | %d rules | %d entities | %d facts (scale %.2f, %.1fs)"
    s.Kb.Gamma.n_relations s.Kb.Gamma.n_rules s.Kb.Gamma.n_entities
    s.Kb.Gamma.n_facts scale gen_s;
  measured "plus %d functional constraints (Leibniz found 10,374 at scale 1)"
    s.Kb.Gamma.n_constraints

(* ------------------------------------------------------------------ *)
(* Table 3: the ReVerb-Sherlock case study                             *)
(* ------------------------------------------------------------------ *)

let noisy_kb scale =
  let base =
    Workload.Reverb_sherlock.generate
      { Workload.Reverb_sherlock.default_config with scale }
  in
  Workload.Noise.make base Workload.Noise.default_config

let table3 () =
  section "Table 3 — load + 4 grounding iterations + factor construction";
  let scale = scale_or 0.1 in
  note "run at scale %.2f of the ReVerb-Sherlock KB (--full for 1.0)" scale;
  note "measured: in-process seconds, median [min, max] over %d trials" trials;
  note
    "derived: Dbms_model seconds from the medians (the per-SQL-statement \
     cost the in-process engine lacks); ProbKB-p on the simulated cluster \
     clock";
  let n = noisy_kb scale in
  let noisy = Workload.Noise.noisy n in
  let n_rules = List.length (Kb.Gamma.rules noisy) in
  (* §6.1.1: Query 3 once before inference, no further quality control. *)
  let prep () =
    let kb = copy_kb noisy in
    ignore
      (Quality.Semantic.apply ~ban:false (Kb.Gamma.pi kb) (Kb.Gamma.omega kb));
    kb
  in
  (* A row's cells are load, Query 2, then the iterations oldest first. *)
  let pp_row name pp cells result_size =
    match cells with
    | load :: q2 :: iters ->
      pf "  %-10s load %a | Query 1 iters: %s | Query 2 %a | result %d@." name
        pp load
        (String.concat " " (List.map (Format.asprintf "%a" pp) iters))
        pp q2 result_size
    | _ -> ()
  in
  let pp_derived ppf s = Format.fprintf ppf "%.2f" s in
  (* Seconds between [on_iteration] calls, oldest first; the first mark
     covers everything [run] does before its first iteration ends. *)
  let iteration_marks () =
    let marks = ref [] and last = ref (Obs.now ()) in
    let mark ~iteration:_ ~new_facts:_ =
      let now = Obs.now () in
      marks := (now -. !last) :: !marks;
      last := now
    in
    (mark, fun () -> List.rev !marks)
  in
  let statement_seconds label stats =
    List.fold_left
      (fun acc e ->
        if label e.Relational.Stats.label then acc +. e.Relational.Stats.seconds
        else acc)
      0.
      (Relational.Stats.entries stats)
  in
  pf "  (paper, minutes: ProbKB load .03 / iters .05 .12 .23 1.28 / Q2 36.28;@.";
  pf "   ProbKB-p load .25 / iters .07 .07 .15 .48 / Q2 9.75;@.";
  pf "   Tuffy-T load 18.22 / iters 1.92 9.40 22.40 44.77 / Q2 84.07;@.";
  pf "   result sizes 396K -> 1.5M facts, 592M factors)@.";

  (* --- ProbKB (single node) --- *)
  let base_facts = ref 0 and patterns = ref 0 in
  let probkb_facts = ref 0 and probkb_factors = ref 0 in
  let probkb =
    cells (fun () ->
        let kb = prep () in
        base_facts := Kb.Storage.size (Kb.Gamma.pi kb);
        let _, load_s = time (fun () -> copy_kb noisy) in
        let mark, marks = iteration_marks () in
        let r =
          Grounding.Ground.run
            ~options:
              {
                Grounding.Ground.default_options with
                max_iterations = 4;
                on_iteration = Some mark;
              }
            kb
        in
        patterns :=
          List.length
            (List.filter
               (fun p -> Mln.Partition.count (Kb.Gamma.partitions kb) p > 0)
               Mln.Pattern.all);
        probkb_facts := Kb.Storage.size (Kb.Gamma.pi kb);
        probkb_factors := Factor_graph.Fgraph.size r.Grounding.Ground.graph;
        load_s
        :: statement_seconds
             (fun l -> String.length l >= 7 && String.sub l 0 7 = "Query 2")
             r.Grounding.Ground.stats
        :: marks ())
  in
  pf "  measured (s):@.";
  pp_row "ProbKB" pp_spread probkb !probkb_facts;

  (* --- Tuffy-T --- *)
  let tuffy_tables = ref 0 and tuffy_facts = ref 0 and tuffy_factors = ref 0 in
  let tuffy =
    cells (fun () ->
        let kb = prep () in
        let db = Tuffy.load kb in
        tuffy_tables := Tuffy.n_tables db;
        let mark, marks = iteration_marks () in
        let rt = Tuffy.run ~max_iterations:4 ~on_iteration:mark kb in
        tuffy_facts := rt.Tuffy.fact_count;
        tuffy_factors := Factor_graph.Fgraph.size rt.Tuffy.graph;
        Tuffy.load_seconds_of db
        :: statement_seconds (fun l -> l = "factor query") rt.Tuffy.stats
        :: marks ())
  in
  pp_row "Tuffy-T" pp_spread tuffy !tuffy_facts;

  (* --- ProbKB-p (MPP with views): the simulated clock is deterministic,
     so one run gives its cells. --- *)
  let kb = prep () in
  let sim_marks = ref [] in
  let rp =
    Grounding.Ground_mpp.run
      ~options:
        {
          Grounding.Ground_mpp.default_options with
          max_iterations = 4;
          on_iteration =
            Some
              (fun ~iteration:_ ~new_facts:_ ~sim_elapsed ->
                sim_marks := sim_elapsed :: !sim_marks);
        }
      ~mode:Grounding.Ground_mpp.Views Mpp.Cluster.default kb
  in
  let sim_iters =
    let rec deltas prev = function
      | [] -> []
      | m :: rest -> (m -. prev) :: deltas m rest
    in
    deltas 0. (List.rev !sim_marks)
  in
  let q2_sim =
    rp.Grounding.Ground_mpp.sim_seconds -. List.fold_left max 0. !sim_marks
  in
  let median = List.map (fun c -> c.median) in
  let derived ~load ~statements cells =
    match median cells with
    | l :: rest -> load l :: List.map (modeled ~statements) rest
    | [] -> []
  in
  pf "  derived (s):@.";
  pp_row "ProbKB" pp_derived
    (derived ~load:(modeled ~statements:1 ~tables:1) ~statements:!patterns probkb)
    !probkb_facts;
  pp_row "ProbKB-p" pp_derived
    (modeled ~statements:1 ~tables:1
       ((List.hd probkb).median /. 4. +. rp.Grounding.Ground_mpp.load_sim_seconds)
    :: List.map (modeled ~statements:!patterns) (q2_sim :: sim_iters))
    (Kb.Storage.size (Kb.Gamma.pi kb));
  pp_row "Tuffy-T" pp_derived
    (derived
       ~load:(modeled ~statements:0 ~tables:!tuffy_tables)
       ~statements:n_rules tuffy)
    !tuffy_facts;
  measured "ProbKB result: %d facts (%.1fx), %d factors" !probkb_facts
    (float_of_int !probkb_facts /. float_of_int !base_facts)
    !probkb_factors;
  measured "ProbKB-p result: %d facts, %d factors (equal to ProbKB: %b)"
    (Kb.Storage.size (Kb.Gamma.pi kb))
    (Factor_graph.Fgraph.size rp.Grounding.Ground_mpp.graph)
    (Kb.Storage.size (Kb.Gamma.pi kb) = !probkb_facts
    && Factor_graph.Fgraph.size rp.Grounding.Ground_mpp.graph = !probkb_factors);
  measured "Tuffy-T result: %d facts, %d factors" !tuffy_facts !tuffy_factors;
  note
    "Tuffy applies rules sequentially, so within one iteration later rules see earlier rules' inserts;";
  note
    "at a fixed iteration budget it runs slightly ahead of Algorithm 1 — the fixpoints coincide (differential tests)";
  note "per-iteration statements: ProbKB %d, Tuffy-T %d (the paper's 6 vs 30,912)"
    !patterns n_rules

(* ------------------------------------------------------------------ *)
(* Figure 4: plans with and without redistributed materialized views   *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section "Figure 4 — M3 ⋈ TΠ plans with/without redistributed views";
  let n_facts = if options.full then 10_000_000 else 1_000_000 in
  note "synthetic TΠ with %d facts (paper: 10M; --full to match)" n_facts;
  let g =
    Workload.Synthetic.s2 ~scale:0.1
      ~seed:Workload.Reverb_sherlock.default_config.Workload.Reverb_sherlock.seed
      ~n_facts
  in
  let kb = Workload.Reverb_sherlock.kb g in
  (* Keep only the M3 rules, like the paper's sample run. *)
  let m3_rules =
    List.filter
      (fun c -> Mln.Pattern.classify c = Some Mln.Pattern.P3)
      (Kb.Gamma.rules kb)
  in
  let run mode =
    let kb' = copy_kb ~rules:m3_rules kb in
    Grounding.Ground_mpp.run
      ~options:
        {
          Grounding.Ground_mpp.default_options with
          max_iterations = 1;
          build_factors = false;
        }
      ~mode Mpp.Cluster.default kb'
  in
  let with_views = run Grounding.Ground_mpp.Views in
  let without = run Grounding.Ground_mpp.No_views in
  let qtime (r : Grounding.Ground_mpp.result) =
    r.Grounding.Ground_mpp.sim_seconds -. r.Grounding.Ground_mpp.load_sim_seconds
  in
  paper "optimized plan: Redistribute Motion 0.85s; unoptimized: Broadcast 8.06s";
  pf "  --- with redistributed views (ProbKB-p) ---@.  %a@."
    Mpp.Cost.pp_plan with_views.Grounding.Ground_mpp.cost;
  pf "  --- without (ProbKB-pn) ---@.  %a@."
    Mpp.Cost.pp_plan without.Grounding.Ground_mpp.cost;
  measured
    "steady-state query: %.3fs (views) vs %.3fs (no views), %.1fx; one-time load %.3fs vs %.3fs"
    (qtime with_views) (qtime without)
    (qtime without /. Float.max 1e-9 (qtime with_views))
    with_views.Grounding.Ground_mpp.load_sim_seconds
    without.Grounding.Ground_mpp.load_sim_seconds

(* ------------------------------------------------------------------ *)
(* Figure 6(a): time vs number of rules (S1)                           *)
(* ------------------------------------------------------------------ *)

(* One grounding iteration (as in the S1/S2 experiments) on each system:
   ProbKB and Tuffy-T measured over [trials] runs, ProbKB-p once on the
   deterministic simulated clock.  Returns the measured spreads, the
   three derived times and the inferred-fact count. *)
let one_iteration kb =
  let np =
    List.length
      (List.filter
         (fun p -> Mln.Partition.count (Kb.Gamma.partitions kb) p > 0)
         Mln.Pattern.all)
  in
  let n_rules = List.length (Kb.Gamma.rules kb) in
  let inferred = ref 0 in
  let probkb =
    measure (fun () ->
        let kb1 = copy_kb kb in
        let r, s =
          time (fun () ->
              Grounding.Ground.run
                ~options:
                  {
                    Grounding.Ground.default_options with
                    max_iterations = 1;
                    build_factors = true;
                  }
                kb1)
        in
        inferred := r.Grounding.Ground.new_fact_count;
        s)
  in
  let tuffy =
    measure (fun () ->
        let kb3 = copy_kb kb in
        snd (time (fun () -> Tuffy.run ~max_iterations:1 kb3)))
  in
  let r2 =
    Grounding.Ground_mpp.run
      ~options:
        { Grounding.Ground_mpp.default_options with max_iterations = 1 }
      ~mode:Grounding.Ground_mpp.Views Mpp.Cluster.default (copy_kb kb)
  in
  let derived =
    ( modeled ~statements:(2 * n_rules) tuffy.median,
      modeled ~statements:(2 * np) probkb.median,
      modeled ~statements:(2 * np)
        (r2.Grounding.Ground_mpp.sim_seconds
        -. r2.Grounding.Ground_mpp.load_sim_seconds) )
  in
  (tuffy, probkb, derived, !inferred)

let sweep_header what =
  note "measured: in-process seconds, median [min, max] over %d trials" trials;
  note
    "derived (*): Dbms_model seconds from the medians; ProbKB-p on the \
     simulated cluster clock";
  pf "  %10s %27s %27s | %10s %10s %10s | %10s@." what "Tuffy-T (s)"
    "ProbKB (s)" "Tuffy-T*" "ProbKB*" "ProbKB-p*" "#inferred"

let sweep_row n (tuffy, probkb, (d_tuffy, d_probkb, d_probkb_p), inferred) =
  let cell s = Format.asprintf "%a" pp_spread s in
  pf "  %10d %27s %27s | %10.1f %10.1f %10.1f | %10d@." n (cell tuffy)
    (cell probkb) d_tuffy d_probkb d_probkb_p inferred

let fig6a () =
  section "Figure 6(a) — execution time vs number of rules (S1)";
  paper "at 1M rules: Tuffy-T 16,507s; ProbKB 210s; ProbKB-p 53s (speedup 311x)";
  let scale = scale_or 0.1 in
  let points =
    if options.full then Workload.Synthetic.paper_s1_points
    else if options.quick then [ 1_000; 5_000 ]
    else [ 1_000; 10_000; 20_000; 50_000 ]
  in
  note "facts at scale %.2f; rule counts %s" scale
    (String.concat ", " (List.map string_of_int points));
  sweep_header "#rules";
  List.iter
    (fun n_rules ->
      let g =
        Workload.Synthetic.s1 ~scale
          ~seed:
            Workload.Reverb_sherlock.default_config
              .Workload.Reverb_sherlock.seed ~n_rules
      in
      let kb = Workload.Reverb_sherlock.kb g in
      sweep_row (List.length (Kb.Gamma.rules kb)) (one_iteration kb))
    points

(* ------------------------------------------------------------------ *)
(* Figure 6(b): time vs number of facts (S2)                           *)
(* ------------------------------------------------------------------ *)

let s2_points () =
  if options.full then Workload.Synthetic.paper_s2_points
  else if options.quick then [ 10_000; 50_000; 100_000 ]
  else [ 100_000; 500_000; 1_000_000; 2_000_000 ]

let fig6b () =
  section "Figure 6(b) — execution time vs number of facts (S2)";
  paper "at 10M facts: speedup of 237x for ProbKB-p over Tuffy-T";
  let scale = scale_or 0.1 in
  let points = s2_points () in
  note "rules at scale %.2f; fact counts %s" scale
    (String.concat ", " (List.map string_of_int points));
  sweep_header "#facts";
  List.iter
    (fun n_facts ->
      let g =
        Workload.Synthetic.s2 ~scale
          ~seed:
            Workload.Reverb_sherlock.default_config
              .Workload.Reverb_sherlock.seed ~n_facts
      in
      sweep_row n_facts (one_iteration (Workload.Reverb_sherlock.kb g)))
    points

(* ------------------------------------------------------------------ *)
(* Figure 6(c): PostgreSQL vs Greenplum variants                       *)
(* ------------------------------------------------------------------ *)

let fig6c () =
  section "Figure 6(c) — ProbKB vs ProbKB-pn vs ProbKB-p (S2 sweep)";
  paper "at 10M facts: ProbKB-pn 3.1x, ProbKB-p 6.3x over ProbKB";
  note
    "derived: all three on the simulated cluster clock (1 vs 32 segments), \
     nothing measured";
  let scale = scale_or 0.1 in
  let points = s2_points () in
  pf "  %12s %12s %12s %12s %10s %10s@." "#facts" "ProbKB(s)" "ProbKB-pn(s)"
    "ProbKB-p(s)" "pn speedup" "p speedup";
  List.iter
    (fun n_facts ->
      let g =
        Workload.Synthetic.s2 ~scale
          ~seed:
            Workload.Reverb_sherlock.default_config
              .Workload.Reverb_sherlock.seed ~n_facts
      in
      let kb = Workload.Reverb_sherlock.kb g in
      let run mode cluster =
        Grounding.Ground_mpp.run
          ~options:
            { Grounding.Ground_mpp.default_options with max_iterations = 1 }
          ~mode cluster (copy_kb kb)
      in
      let single = run Grounding.Ground_mpp.Views Mpp.Cluster.single_node in
      let pn = run Grounding.Ground_mpp.No_views Mpp.Cluster.default in
      let p = run Grounding.Ground_mpp.Views Mpp.Cluster.default in
      let qtime (r : Grounding.Ground_mpp.result) =
        r.Grounding.Ground_mpp.sim_seconds
        -. r.Grounding.Ground_mpp.load_sim_seconds
      in
      let s1 = qtime single and s2 = qtime pn and s3 = qtime p in
      pf "  %12d %12.2f %12.2f %12.2f %10.1f %10.1f@." n_facts s1 s2 s3
        (s1 /. s2) (s1 /. s3))
    points
