(* The Tuffy-T baseline: storage layout and differential equivalence with
   the ProbKB grounding engine. *)

module Gamma = Kb.Gamma
module Storage = Kb.Storage

let check_int = Alcotest.(check int)

let test_load_per_relation_tables () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let db = Tuffy.load kb in
  (* Only born_in has facts, so one table is created at load time. *)
  check_int "tables" 1 (Tuffy.n_tables db);
  check_int "facts" 2 (Tuffy.fact_count db)

let test_run_worked_example () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let r = Tuffy.run kb in
  Alcotest.(check bool) "converged" true r.Tuffy.converged;
  check_int "facts" 7 r.Tuffy.fact_count;
  check_int "factors" 8 (Factor_graph.Fgraph.size r.Tuffy.graph);
  check_int "singletons" 2 r.Tuffy.n_singleton_factors

let test_query_count_scales_with_rules () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let r = Tuffy.run kb in
  let n_rules = List.length (Gamma.rules kb) in
  check_int "one query per rule per iteration"
    (n_rules * r.Tuffy.iterations)
    r.Tuffy.statements

(* Differential test: on random generated KBs, Tuffy's fixpoint equals
   ProbKB's — same fact set, same number of ground factors. *)
let probkb_fact_keys kb =
  let acc = ref [] in
  Storage.iter
    (fun ~id:_ ~r ~x ~c1 ~y ~c2 ~w:_ -> acc := (r, x, c1, y, c2) :: !acc)
    (Gamma.pi kb);
  List.sort compare !acc

let test_differential_equivalence () =
  List.iter
    (fun seed ->
      let g =
        Workload.Reverb_sherlock.generate
          {
            Workload.Reverb_sherlock.default_config with
            scale = 0.008;
            seed;
          }
      in
      let kb = Workload.Reverb_sherlock.kb g in
      let kb_probkb = Tutil.copy_gamma kb in
      let r1 = Grounding.Ground.run kb_probkb in
      if not r1.Grounding.Ground.converged then
        Alcotest.failf "seed %d: ProbKB did not converge" seed;
      let kb_tuffy = Tutil.copy_gamma kb in
      let r2 = Tuffy.run ~max_iterations:30 kb_tuffy in
      if not r2.Tuffy.converged then
        Alcotest.failf "seed %d: Tuffy did not converge" seed;
      let keys1 = probkb_fact_keys kb_probkb in
      let keys2 = List.sort compare (Tuffy.fact_keys r2.Tuffy.db) in
      if keys1 <> keys2 then
        Alcotest.failf "seed %d: fact sets differ (%d vs %d)" seed
          (List.length keys1) (List.length keys2);
      Alcotest.(check int)
        (Printf.sprintf "seed %d: factor counts" seed)
        (Factor_graph.Fgraph.size r1.Grounding.Ground.graph)
        (Factor_graph.Fgraph.size r2.Tuffy.graph))
    [ 3; 17; 99 ]

let () =
  Alcotest.run "tuffy"
    [
      ( "baseline",
        [
          Alcotest.test_case "per-relation load" `Quick
            test_load_per_relation_tables;
          Alcotest.test_case "worked example" `Quick test_run_worked_example;
          Alcotest.test_case "query count" `Quick test_query_count_scales_with_rules;
          Alcotest.test_case "differential vs ProbKB" `Slow
            test_differential_equivalence;
        ] );
    ]
