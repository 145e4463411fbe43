module Table = Relational.Table
module Fgraph = Factor_graph.Fgraph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- the paper's worked example (Table 1, Figures 2-3) --- *)

let test_worked_example_closure () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let result = Grounding.Ground.run kb in
  check_bool "converged" true result.Grounding.Ground.converged;
  let facts = Tutil.fact_strings kb in
  let expected =
    List.sort compare
      [
        "born_in(Ruth Gruber, New York City) 0.96";
        "born_in(Ruth Gruber, Brooklyn) 0.93";
        "live_in(Ruth Gruber, New York City)";
        "live_in(Ruth Gruber, Brooklyn)";
        "grow_up_in(Ruth Gruber, New York City)";
        "grow_up_in(Ruth Gruber, Brooklyn)";
        "located_in(Brooklyn, New York City)";
      ]
  in
  Alcotest.(check (list string)) "closure facts" expected facts

let test_worked_example_factors () =
  let kb, f1, f2 = Tutil.ruth_gruber_kb () in
  let result = Grounding.Ground.run kb in
  (* Figure 3(e): 2 singleton + 6 clause factors. *)
  check_int "singletons" 2 result.Grounding.Ground.n_singleton_factors;
  check_int "clause factors" 6 result.Grounding.Ground.n_clause_factors;
  check_int "total" 8 (Fgraph.size result.Grounding.Ground.graph);
  (* located_in(Brooklyn, NYC) has two derivations: via born_in (0.52)
     and via live_in (0.32). *)
  let pi = Kb.Gamma.pi kb in
  let rel = Relational.Dict.find (Kb.Gamma.relations kb) in
  let ent = Relational.Dict.find (Kb.Gamma.entities kb) in
  let cls = Relational.Dict.find (Kb.Gamma.classes kb) in
  let fid r x c1 y c2 =
    Option.get
      (Kb.Storage.find pi ~r:(rel r) ~x:(ent x) ~c1:(cls c1) ~y:(ent y)
         ~c2:(cls c2))
  in
  let loc = fid "located_in" "Brooklyn" "P" "New York City" "C" in
  let lineage = Factor_graph.Lineage.build result.Grounding.Ground.graph in
  let derivs =
    Factor_graph.Lineage.derivations lineage loc
    |> List.map (fun (_, _, w) -> w)
    |> List.sort compare
  in
  Alcotest.(check (list (float 1e-9))) "derivation weights" [ 0.32; 0.52 ] derivs;
  (* Depths: extracted facts 0, direct inferences 1, located_in 2 via
     live_in but also 1 via born_in, so min depth is 1. *)
  Alcotest.(check (option int)) "depth f1" (Some 0)
    (Factor_graph.Lineage.depth lineage f1);
  Alcotest.(check (option int)) "depth f2" (Some 0)
    (Factor_graph.Lineage.depth lineage f2);
  Alcotest.(check (option int)) "depth located_in" (Some 1)
    (Factor_graph.Lineage.depth lineage loc);
  let live = fid "live_in" "Ruth Gruber" "W" "Brooklyn" "P" in
  Alcotest.(check (option int)) "depth live_in" (Some 1)
    (Factor_graph.Lineage.depth lineage live)

let test_worked_example_iterations () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let sizes = ref [] in
  let options =
    {
      Grounding.Ground.default_options with
      on_iteration =
        Some (fun ~iteration:_ ~new_facts -> sizes := new_facts :: !sizes);
    }
  in
  let result = Grounding.Ground.run ~options kb in
  (* Iteration 1 adds live_in x2 and grow_up_in x2 (M1) plus
     located_in via born_in (M3) = 5; iteration 2 adds nothing new
     (located_in via live_in already exists); iteration 3 confirms the
     fixpoint. *)
  check_int "iterations" 2 result.Grounding.Ground.iterations;
  Alcotest.(check (list int)) "new facts per iter" [ 5; 0 ] (List.rev !sizes)

let test_idempotent_regrounding () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let r1 = Grounding.Ground.run kb in
  let n_facts = Kb.Storage.size (Kb.Gamma.pi kb) in
  (* Grounding an already-closed KB adds no facts and rebuilds the same
     factor graph. *)
  let r2 = Grounding.Ground.run kb in
  check_int "no new facts" n_facts (Kb.Storage.size (Kb.Gamma.pi kb));
  check_int "same factor count"
    (Fgraph.size r1.Grounding.Ground.graph)
    (Fgraph.size r2.Grounding.Ground.graph)

let test_no_duplicate_factors_within_partition () =
  (* Proposition 1: Query 2-i produces no duplicate (I1, I2, I3) when Mi
     has no duplicate rules. *)
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let result = Grounding.Ground.run kb in
  let g = result.Grounding.Ground.graph in
  let seen = Hashtbl.create 16 in
  let dup = ref false in
  Fgraph.iter
    (fun _ (i1, i2, i3, w) ->
      (* Across partitions duplicates are legitimate (different rules);
         within this example every (I1,I2,I3,w) quadruple is unique. *)
      if Hashtbl.mem seen (i1, i2, i3, w) then dup := true;
      Hashtbl.add seen (i1, i2, i3, w) ())
    g;
  check_bool "no duplicates" false !dup

(* --- pattern coverage: each of the six shapes fires correctly --- *)

let single_pattern_kb rule facts =
  let kb = Kb.Gamma.create () in
  ignore (Kb.Loader.load_rules kb [ rule ]);
  List.iter
    (fun (r, x, c1, y, c2) ->
      ignore (Kb.Gamma.add_fact_by_name kb ~r ~x ~c1 ~y ~c2 ~w:0.9))
    facts;
  kb

let inferred kb =
  (* Facts with a null weight are the inferred ones. *)
  let acc = ref [] in
  Kb.Storage.iter
    (fun ~id ~r:_ ~x:_ ~c1:_ ~y:_ ~c2:_ ~w ->
      if Table.is_null_weight w then
        acc := Fmt.str "%a" (Kb.Gamma.pp_fact kb) id :: !acc)
    (Kb.Gamma.pi kb);
  List.sort compare !acc

let test_pattern_1 () =
  let kb =
    single_pattern_kb "1.0 p(x:A, y:B) :- q(x, y)"
      [ ("q", "a", "A", "b", "B"); ("q", "b", "B", "c", "C") ]
  in
  ignore (Grounding.Ground.run kb);
  Alcotest.(check (list string)) "P1" [ "p(a, b)" ] (inferred kb)

let test_pattern_2 () =
  let kb =
    single_pattern_kb "1.0 p(x:A, y:B) :- q(y, x)"
      [ ("q", "b", "B", "a", "A"); ("q", "a", "A", "b", "B") ]
  in
  ignore (Grounding.Ground.run kb);
  Alcotest.(check (list string)) "P2" [ "p(a, b)" ] (inferred kb)

let test_pattern_3 () =
  let kb =
    single_pattern_kb "1.0 p(x:A, y:B) :- q(z:Z, x), r(z, y)"
      [
        ("q", "z1", "Z", "a", "A");
        ("r", "z1", "Z", "b", "B");
        ("r", "z2", "Z", "b", "B");
      ]
  in
  ignore (Grounding.Ground.run kb);
  Alcotest.(check (list string)) "P3" [ "p(a, b)" ] (inferred kb)

let test_pattern_4 () =
  let kb =
    single_pattern_kb "1.0 p(x:A, y:B) :- q(x, z:Z), r(z, y)"
      [ ("q", "a", "A", "z1", "Z"); ("r", "z1", "Z", "b", "B") ]
  in
  ignore (Grounding.Ground.run kb);
  Alcotest.(check (list string)) "P4" [ "p(a, b)" ] (inferred kb)

let test_pattern_5 () =
  let kb =
    single_pattern_kb "1.0 p(x:A, y:B) :- q(z:Z, x), r(y, z)"
      [ ("q", "z1", "Z", "a", "A"); ("r", "b", "B", "z1", "Z") ]
  in
  ignore (Grounding.Ground.run kb);
  Alcotest.(check (list string)) "P5" [ "p(a, b)" ] (inferred kb)

let test_pattern_6 () =
  let kb =
    single_pattern_kb "1.0 p(x:A, y:B) :- q(x, z:Z), r(y, z)"
      [ ("q", "a", "A", "z1", "Z"); ("r", "b", "B", "z1", "Z") ]
  in
  ignore (Grounding.Ground.run kb);
  Alcotest.(check (list string)) "P6" [ "p(a, b)" ] (inferred kb)

let test_class_mismatch_blocks_rule () =
  (* The same relation name with a different class signature must not
     fire the rule: typing is part of the join key. *)
  let kb =
    single_pattern_kb "1.0 p(x:A, y:B) :- q(x, y)"
      [ ("q", "a", "A2", "b", "B") ]
  in
  ignore (Grounding.Ground.run kb);
  Alcotest.(check (list string)) "no inference" [] (inferred kb)

let test_z_join_requires_equal_entities () =
  let kb =
    single_pattern_kb "1.0 p(x:A, y:B) :- q(z:Z, x), r(z, y)"
      [ ("q", "z1", "Z", "a", "A"); ("r", "z2", "Z", "b", "B") ]
  in
  ignore (Grounding.Ground.run kb);
  Alcotest.(check (list string)) "no inference" [] (inferred kb)

let test_transitive_chain () =
  (* located_in chains: a rule whose output feeds itself. *)
  let kb = Kb.Gamma.create () in
  ignore
    (Kb.Loader.load_rules kb
       [ "1.0 anc(x:P, y:P) :- par(x, y)";
         "1.0 anc(x:P, y:P) :- anc(x, z:P), anc(z, y)" ]);
  let pair a b = ignore (Kb.Gamma.add_fact_by_name kb ~r:"par" ~x:a ~c1:"P" ~y:b ~c2:"P" ~w:1.0) in
  pair "a" "b";
  pair "b" "c";
  pair "c" "d";
  pair "d" "e";
  let result = Grounding.Ground.run kb in
  Alcotest.(check bool) "converged" true result.Grounding.Ground.converged;
  (* anc = transitive closure over 5 nodes in a chain: 4+3+2+1 = 10. *)
  Alcotest.(check int) "anc facts" 10 (List.length (inferred kb))

let test_constraints_hook_runs_each_iteration () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let calls = ref 0 in
  let options =
    {
      Grounding.Ground.default_options with
      apply_constraints =
        Some
          (fun _ ->
            incr calls;
            (0, 0));
    }
  in
  let result = Grounding.Ground.run ~options kb in
  (* once up-front plus once per iteration *)
  check_int "hook calls" (result.Grounding.Ground.iterations + 1) !calls

let test_max_iterations_budget () =
  let kb = Kb.Gamma.create () in
  ignore
    (Kb.Loader.load_rules kb
       [ "1.0 anc(x:P, y:P) :- par(x, y)";
         "1.0 anc(x:P, y:P) :- anc(x, z:P), anc(z, y)" ]);
  for i = 0 to 40 do
    ignore
      (Kb.Gamma.add_fact_by_name kb ~r:"par"
         ~x:(Printf.sprintf "n%d" i)
         ~c1:"P"
         ~y:(Printf.sprintf "n%d" (i + 1))
         ~c2:"P" ~w:1.0)
  done;
  let options =
    { Grounding.Ground.default_options with max_iterations = 2 }
  in
  let result = Grounding.Ground.run ~options kb in
  Alcotest.(check bool) "not converged" false result.Grounding.Ground.converged;
  check_int "iterations" 2 result.Grounding.Ground.iterations

let test_singletons_only_for_weighted () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let result = Grounding.Ground.run kb in
  (* 2 extracted facts are weighted; the 5 inferred facts must not get
     singleton factors. *)
  check_int "singletons" 2 result.Grounding.Ground.n_singleton_factors

let test_closure_skips_factor_phase () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let result = Grounding.Ground.closure kb in
  check_int "no factors" 0 (Fgraph.size result.Grounding.Ground.graph);
  check_int "facts still inferred" 7 (Kb.Storage.size (Kb.Gamma.pi kb))

(* --- semi-naive (delta) evaluation --- *)

let closure_keys kb =
  let acc = ref [] in
  Kb.Storage.iter
    (fun ~id:_ ~r ~x ~c1 ~y ~c2 ~w:_ -> acc := (r, x, c1, y, c2) :: !acc)
    (Kb.Gamma.pi kb);
  List.sort compare !acc

let test_semi_naive_equivalence () =
  List.iter
    (fun seed ->
      let g =
        Workload.Reverb_sherlock.generate
          { Workload.Reverb_sherlock.default_config with scale = 0.008; seed }
      in
      let kb = Workload.Reverb_sherlock.kb g in
      let naive = Tutil.copy_gamma kb in
      let r1 = Grounding.Ground.run naive in
      let semi = Tutil.copy_gamma kb in
      let r2 =
        Grounding.Ground.run
          ~options:{ Grounding.Ground.default_options with semi_naive = true }
          semi
      in
      if not (r1.Grounding.Ground.converged && r2.Grounding.Ground.converged)
      then Alcotest.failf "seed %d: no convergence" seed;
      if closure_keys naive <> closure_keys semi then
        Alcotest.failf "seed %d: closures differ (%d vs %d facts)" seed
          (Kb.Storage.size (Kb.Gamma.pi naive))
          (Kb.Storage.size (Kb.Gamma.pi semi));
      check_int
        (Printf.sprintf "seed %d: factor counts" seed)
        (Fgraph.size r1.Grounding.Ground.graph)
        (Fgraph.size r2.Grounding.Ground.graph))
    [ 5; 23; 71 ]

let test_semi_naive_with_constraints_worked () =
  (* The constraint hook fires mid-closure: over a 7-node par-chain the
     transitive anc rule gives n0 four ancestors by round 3, tripping a
     Type I degree-3 funcon.  Semi-naive evaluation must survive that —
     the deleted rows are filtered out of the saved delta instead of
     falling back to naive evaluation — and land on the same fixpoint. *)
  let build () =
    let kb = Kb.Gamma.create () in
    ignore
      (Kb.Loader.load_rules kb
         [ "1.0 anc(x:P, y:P) :- par(x, y)";
           "1.0 anc(x:P, y:P) :- anc(x, z:P), anc(z, y)" ]);
    for i = 0 to 6 do
      ignore
        (Kb.Gamma.add_fact_by_name kb ~r:"par"
           ~x:(Printf.sprintf "n%d" i)
           ~c1:"P"
           ~y:(Printf.sprintf "n%d" (i + 1))
           ~c2:"P" ~w:1.0)
    done;
    Kb.Gamma.add_funcon kb
      (Kb.Funcon.make ~rel:(Kb.Gamma.relation kb "anc")
         ~ftype:Kb.Funcon.Type_I ~degree:3);
    kb
  in
  let run ~semi_naive kb =
    Grounding.Ground.run
      ~options:
        {
          Grounding.Ground.default_options with
          semi_naive;
          apply_constraints =
            Some (Quality.Semantic.hook (Kb.Gamma.omega kb));
        }
      kb
  in
  let naive_kb = build () in
  let r1 = run ~semi_naive:false naive_kb in
  let semi_kb = build () in
  let r2 = run ~semi_naive:true semi_kb in
  Alcotest.(check bool) "naive converged" true r1.Grounding.Ground.converged;
  Alcotest.(check bool) "semi converged" true r2.Grounding.Ground.converged;
  Alcotest.(check bool)
    "constraints fired" true
    (r1.Grounding.Ground.removed_by_constraints > 0);
  check_int "same removals" r1.Grounding.Ground.removed_by_constraints
    r2.Grounding.Ground.removed_by_constraints;
  Alcotest.(check (list (list int)))
    "same closure"
    (List.map
       (fun (a, b, c, d, e) -> [ a; b; c; d; e ])
       (closure_keys naive_kb))
    (List.map
       (fun (a, b, c, d, e) -> [ a; b; c; d; e ])
       (closure_keys semi_kb));
  check_int "same factor count"
    (Fgraph.size r1.Grounding.Ground.graph)
    (Fgraph.size r2.Grounding.Ground.graph)

let test_semi_naive_with_constraints_differential () =
  (* Workload KBs carry generated funcons; with Ω enforced through the
     hook, naive and semi-naive closures must still agree. *)
  let fired = ref false in
  List.iter
    (fun seed ->
      let g =
        Workload.Reverb_sherlock.generate
          { Workload.Reverb_sherlock.default_config with scale = 0.008; seed }
      in
      let kb = Workload.Reverb_sherlock.kb g in
      let run ~semi_naive kb =
        Grounding.Ground.run
          ~options:
            {
              Grounding.Ground.default_options with
              semi_naive;
              apply_constraints =
                Some (Quality.Semantic.hook (Kb.Gamma.omega kb));
            }
          kb
      in
      let naive = Tutil.copy_gamma kb in
      let r1 = run ~semi_naive:false naive in
      let semi = Tutil.copy_gamma kb in
      let r2 = run ~semi_naive:true semi in
      if r1.Grounding.Ground.removed_by_constraints > 0 then fired := true;
      check_int
        (Printf.sprintf "seed %d: removals" seed)
        r1.Grounding.Ground.removed_by_constraints
        r2.Grounding.Ground.removed_by_constraints;
      if closure_keys naive <> closure_keys semi then
        Alcotest.failf "seed %d: closures differ (%d vs %d facts)" seed
          (Kb.Storage.size (Kb.Gamma.pi naive))
          (Kb.Storage.size (Kb.Gamma.pi semi));
      check_int
        (Printf.sprintf "seed %d: factor counts" seed)
        (Fgraph.size r1.Grounding.Ground.graph)
        (Fgraph.size r2.Grounding.Ground.graph))
    [ 5; 23; 71 ];
  Alcotest.(check bool) "hook fired for at least one seed" true !fired

let test_pool_size_equivalence () =
  (* The whole grounding pipeline — parallel per-pattern queries, parallel
     partitioned joins, parallel distinct — must yield the same facts (same
     ids, same insertion order) and the same factor graph for any pool
     size. *)
  let facts_in_order kb =
    let acc = ref [] in
    Kb.Storage.iter
      (fun ~id ~r ~x ~c1 ~y ~c2 ~w -> acc := (id, r, x, c1, y, c2, w) :: !acc)
      (Kb.Gamma.pi kb);
    List.rev !acc
  in
  let g =
    Workload.Reverb_sherlock.generate
      { Workload.Reverb_sherlock.default_config with scale = 0.008; seed = 5 }
  in
  let kb = Workload.Reverb_sherlock.kb g in
  let run_with d =
    Pool.set_default_size d;
    let kb' = Tutil.copy_gamma kb in
    let r = Grounding.Ground.run kb' in
    (facts_in_order kb', Fgraph.size r.Grounding.Ground.graph)
  in
  Fun.protect
    ~finally:(fun () -> Pool.set_default_size (Pool.env_domains ()))
    (fun () ->
      let facts1, nf1 = run_with 1 in
      let facts4, nf4 = run_with 4 in
      (* [compare], not [=]: derived facts carry the null weight (a NaN),
         and [nan = nan] is false while [compare nan nan = 0]. *)
      Alcotest.(check bool)
        "facts identical (ids, order, weights)" true
        (compare facts1 facts4 = 0);
      check_int "factor counts" nf1 nf4)

let test_semi_naive_worked_example () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let r =
    Grounding.Ground.run
      ~options:{ Grounding.Ground.default_options with semi_naive = true }
      kb
  in
  Alcotest.(check bool) "converged" true r.Grounding.Ground.converged;
  check_int "facts" 7 (Kb.Storage.size (Kb.Gamma.pi kb));
  check_int "factors" 8 (Fgraph.size r.Grounding.Ground.graph)

let test_semi_naive_transitive_chain () =
  (* The chain needs several delta rounds — the case naive evaluation
     recomputes from scratch each time. *)
  let kb = Kb.Gamma.create () in
  ignore
    (Kb.Loader.load_rules kb
       [ "1.0 anc(x:P, y:P) :- par(x, y)";
         "1.0 anc(x:P, y:P) :- anc(x, z:P), anc(z, y)" ]);
  for i = 0 to 15 do
    ignore
      (Kb.Gamma.add_fact_by_name kb ~r:"par"
         ~x:(Printf.sprintf "n%d" i)
         ~c1:"P"
         ~y:(Printf.sprintf "n%d" (i + 1))
         ~c2:"P" ~w:1.0)
  done;
  let r =
    Grounding.Ground.run
      ~options:{ Grounding.Ground.default_options with semi_naive = true }
      kb
  in
  Alcotest.(check bool) "converged" true r.Grounding.Ground.converged;
  (* anc over a 17-node chain: 17*16/2 = 136 pairs. *)
  check_int "anc facts" 136 r.Grounding.Ground.new_fact_count

(* Every grounding route pinned end to end on one ReVerb-Sherlock KB
   (scale 0.008, seed 7): TΠ rows in order (id, key, weight bits), TΦ
   rows in table order (ids, weight bits) and the trajectory; an MPP
   route also digests the bits of its simulated clock, its load share
   and its motion bytes.  The digests were recorded before the
   single-node and MPP drivers became two executors of one closure loop
   (x86-64 Linux); every route must reproduce them bit for bit at pool
   sizes 1 and 4, and each spilled route its resident route's. *)
let route_digests () =
  let g =
    Workload.Reverb_sherlock.generate
      { Workload.Reverb_sherlock.default_config with scale = 0.008; seed = 7 }
  in
  let kb = Workload.Reverb_sherlock.kb g in
  let digest ?mpp kb graph trajectory =
    let b = Buffer.create 4096 in
    let add_int i = Buffer.add_int64_le b (Int64.of_int i) in
    let add_float w = Buffer.add_int64_le b (Int64.bits_of_float w) in
    Kb.Storage.iter
      (fun ~id ~r ~x ~c1 ~y ~c2 ~w ->
        List.iter add_int [ id; r; x; c1; y; c2 ];
        add_float w)
      (Kb.Gamma.pi kb);
    Fgraph.iter
      (fun _ (i1, i2, i3, w) ->
        List.iter add_int [ i1; i2; i3 ];
        add_float w)
      graph;
    List.iter
      (fun (p : Grounding.Ground.trajectory_point) ->
        List.iter add_int
          [ p.iteration; p.new_facts; p.total_facts; p.violations; p.removed ])
      trajectory;
    Option.iter
      (fun (r : Grounding.Ground_mpp.result) ->
        add_float r.Grounding.Ground_mpp.sim_seconds;
        add_float r.Grounding.Ground_mpp.load_sim_seconds;
        add_int r.Grounding.Ground_mpp.motion_bytes)
      mpp;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let hook kb = Some (Quality.Semantic.hook (Kb.Gamma.omega kb)) in
  let fired omega trajectory =
    if omega then
      check_bool "omega removed facts" true
        (List.exists
           (fun (p : Grounding.Ground.trajectory_point) -> p.removed > 0)
           trajectory)
  in
  (* [f] under a zero-threshold spill policy in a fresh directory, which
     must have received segments. *)
  let with_spill spilled f =
    if not spilled then f None
    else begin
      let dir = Filename.temp_dir "probkb-routes" "" in
      let d =
        f (Some (Storage.Spill.create ~segment_rows:128 ~threshold_bytes:0 ~root:dir ()))
      in
      check_bool "segments written" true (Array.length (Sys.readdir dir) > 0);
      ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ]));
      d
    end
  in
  let single ?(spilled = false) ?(semi_naive = false) ?(omega = false) () =
    let kb = Tutil.copy_gamma kb in
    with_spill spilled @@ fun spill ->
    let r =
      Grounding.Ground.run
        ~options:
          {
            Grounding.Ground.default_options with
            semi_naive;
            spill;
            apply_constraints = (if omega then hook kb else None);
          }
        kb
    in
    fired omega r.Grounding.Ground.trajectory;
    digest kb r.Grounding.Ground.graph r.Grounding.Ground.trajectory
  in
  let incremental () =
    let kb = Tutil.copy_gamma kb in
    ignore (Grounding.Ground.closure kb);
    let pi = Kb.Gamma.pi kb in
    let before = Kb.Storage.size pi in
    let rng = Workload.Rng.create 11 in
    for i = 1 to 6 do
      let r, x, c1, y, c2 = Workload.Reverb_sherlock.random_fact g rng in
      ignore (Kb.Gamma.add_fact kb ~r ~x ~c1 ~y ~c2 ~w:(0.5 +. (0.05 *. float i)))
    done;
    let facts = Kb.Storage.table pi in
    let delta =
      Table.sub facts (Array.init (Table.nrows facts - before) (( + ) before))
    in
    let r =
      Grounding.Ground.closure
        ~options:
          { Grounding.Ground.default_options with initial_delta = Some delta }
        kb
    in
    check_bool "delta derived facts" true (r.Grounding.Ground.new_fact_count > 0);
    digest kb r.Grounding.Ground.graph r.Grounding.Ground.trajectory
  in
  let mpp ?(spilled = false) ?(omega = false) mode =
    let kb = Tutil.copy_gamma kb in
    with_spill spilled @@ fun spill ->
    let r =
      Grounding.Ground_mpp.run
        ~options:
          {
            Grounding.Ground_mpp.default_options with
            spill;
            apply_constraints = (if omega then hook kb else None);
          }
        ~mode
        { Mpp.Cluster.default with Mpp.Cluster.nseg = 4 }
        kb
    in
    let trajectory = r.Grounding.Ground_mpp.ground.Grounding.Ground.trajectory in
    fired omega trajectory;
    digest ~mpp:r kb r.Grounding.Ground_mpp.graph trajectory
  in
  [
    ("single-node", single ());
    ("single-node + omega", single ~omega:true ());
    ("semi-naive + omega", single ~semi_naive:true ~omega:true ());
    ("initial delta", incremental ());
    ("single-node spilled", single ~spilled:true ());
    ("mpp views", mpp Grounding.Ground_mpp.Views);
    ("mpp pn", mpp Grounding.Ground_mpp.No_views);
    ("mpp pn spilled", mpp ~spilled:true Grounding.Ground_mpp.No_views);
    ("mpp pn + omega", mpp ~omega:true Grounding.Ground_mpp.No_views);
  ]

let pinned_route_digests =
  [
    ("single-node", "f6834a99dfaa0dfafe6429dcb7ae81dd");
    ("single-node + omega", "d4ae831b87b13d19ec511026c76e02cc");
    ("semi-naive + omega", "adadb2ad58f01bfd94bb30b47e436150");
    ("initial delta", "9b2e4563d6d863323ca270f57d82b13c");
    ("single-node spilled", "f6834a99dfaa0dfafe6429dcb7ae81dd");
    ("mpp views", "0d7d9a50866ef7c8b344172937502853");
    ("mpp pn", "1477da9a09082a9e18452fe5cf084ae1");
    ("mpp pn spilled", "1477da9a09082a9e18452fe5cf084ae1");
    ("mpp pn + omega", "f1aa2c4e6cbf3454bbc8d2a9a000d1d3");
  ]

let test_route_digests_pinned () =
  List.iter
    (fun d ->
      Pool.set_default_size d;
      Fun.protect
        ~finally:(fun () -> Pool.set_default_size (Pool.env_domains ()))
        (fun () ->
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "route digests at pool %d" d)
            pinned_route_digests (route_digests ())))
    [ 1; 4 ]

let test_monotonicity =
  (* Adding facts never removes conclusions: closure(F1) ⊆ closure(F1∪F2). *)
  Tutil.qcheck_case ~count:30 "grounding is monotone"
    QCheck.(pair small_nat small_nat)
    (fun (seed, extra) ->
      let g =
        Workload.Reverb_sherlock.generate
          {
            Workload.Reverb_sherlock.default_config with
            scale = 0.004;
            seed = 1 + seed;
          }
      in
      let kb = Workload.Reverb_sherlock.kb g in
      let small = Tutil.copy_gamma kb in
      ignore (Grounding.Ground.closure small);
      let big = Tutil.copy_gamma kb in
      let rng = Workload.Rng.create (seed + 1000) in
      for _ = 1 to 1 + (extra mod 5) do
        let r, x, c1, y, c2 = Workload.Reverb_sherlock.random_fact g rng in
        ignore (Kb.Gamma.add_fact big ~r ~x ~c1 ~y ~c2 ~w:0.9)
      done;
      ignore (Grounding.Ground.closure big);
      let keys kb =
        let acc = ref [] in
        Kb.Storage.iter
          (fun ~id:_ ~r ~x ~c1 ~y ~c2 ~w:_ -> acc := (r, x, c1, y, c2) :: !acc)
          (Kb.Gamma.pi kb);
        !acc
      in
      let big_set = Hashtbl.create 1024 in
      List.iter (fun k -> Hashtbl.replace big_set k ()) (keys big);
      List.for_all (Hashtbl.mem big_set) (keys small))

(* --- index-probed delta terms ≡ the scan-probed oracle --- *)

(* Step 2 of every two-atom delta term walks J and probes TΠ's maintained
   partial-key index; {!Join_oracle} runs the same terms the way they
   used to run, indexing J and scanning TΠ.  Atom rows (after the shared
   dedup) and factor rows (after head resolution) must agree in content,
   order and weight bits, at pools 1 and 4. *)

let two_atom_patterns = Mln.Pattern.[ P3; P4; P5; P6 ]

let same_table a b =
  Table.nrows a = Table.nrows b
  && List.for_all
       (fun r -> Table.equal_rows a r b r)
       (List.init (Table.nrows a) Fun.id)

let graph_rows g =
  let acc = ref [] in
  Fgraph.iter
    (fun _ (i1, i2, i3, w) ->
      acc := (i1, i2, i3, Int64.bits_of_float w) :: !acc)
    g;
  List.rev !acc

(* Every two-atom pattern's delta terms on [delta], index-probed and
   scan-probed, at pools 1 and 4. *)
let delta_terms_agree kb ~delta ~watermark =
  let p = Grounding.Queries.prepare (Kb.Gamma.partitions kb) in
  let pi = Kb.Gamma.pi kb in
  List.for_all
    (fun d ->
      Pool.set_default_size d;
      Fun.protect
        ~finally:(fun () -> Pool.set_default_size (Pool.env_domains ()))
        (fun () ->
          List.for_all
            (fun pat ->
              let atoms = Grounding.Queries.ground_atoms_delta p pat pi ~delta
              and atoms' = Join_oracle.atoms_delta p pat pi ~delta in
              let g = Fgraph.create () and g' = Fgraph.create () in
              let n =
                Grounding.Queries.ground_factors_delta p pat pi ~delta
                  ~watermark g
              and n' =
                Join_oracle.factors_delta p pat pi ~delta ~watermark g'
              in
              same_table atoms atoms' && n = n'
              && graph_rows g = graph_rows g')
            two_atom_patterns))
    [ 1; 4 ]

(* A dense random KB: two relations, mostly one class and four
   entities, so J rows share their step-2 keys and TΠ keys repeat across
   rules. *)
let dense_kb st =
  let pick a = a.(Random.State.int st (Array.length a)) in
  let rel () = pick [| "p"; "q" |] and cls () = pick [| "C"; "C"; "C"; "D" |] in
  let ent () = pick [| "a"; "b"; "c"; "d" |] in
  let rule () =
    let w = pick [| "0.5"; "1.25"; "-0.75"; "2" |] in
    let h = rel () and q = rel () and r = rel () in
    let c1 = cls () and c2 = cls () and c3 = cls () in
    match Random.State.int st 5 with
    | 0 -> Printf.sprintf "%s %s(x:%s, y:%s) :- %s(x, y)" w h c1 c2 q
    | 1 ->
      Printf.sprintf "%s %s(x:%s, y:%s) :- %s(z:%s, x), %s(z, y)" w h c1 c2 q
        c3 r
    | 2 ->
      Printf.sprintf "%s %s(x:%s, y:%s) :- %s(x, z:%s), %s(z, y)" w h c1 c2 q
        c3 r
    | 3 ->
      Printf.sprintf "%s %s(x:%s, y:%s) :- %s(z:%s, x), %s(y, z)" w h c1 c2 q
        c3 r
    | _ ->
      Printf.sprintf "%s %s(x:%s, y:%s) :- %s(x, z:%s), %s(y, z)" w h c1 c2 q
        c3 r
  in
  let kb = Kb.Gamma.create () in
  ignore
    (Kb.Loader.load_rules kb
       (List.init (4 + Random.State.int st 8) (fun _ -> rule ())));
  let fact () =
    ( Kb.Gamma.relation kb (rel ()), Kb.Gamma.entity kb (ent ()),
      Kb.Gamma.cls kb (cls ()), Kb.Gamma.entity kb (ent ()),
      Kb.Gamma.cls kb (cls ()) )
  in
  for _ = 1 to 8 + Random.State.int st 12 do
    let r, x, c1, y, c2 = fact () in
    ignore (Kb.Gamma.add_fact kb ~r ~x ~c1 ~y ~c2 ~w:(Random.State.float st 1.))
  done;
  (kb, fact)

let tpi_cols = [| "I"; "R"; "x"; "C1"; "y"; "C2" |]

(* Rows [rows] of TΠ as a delta table. *)
let delta_of kb rows =
  let t = Kb.Storage.table (Kb.Gamma.pi kb) in
  let d = Table.create ~weighted:true ~name:"delta" tpi_cols in
  List.iter (fun r -> Table.append_from d t r) rows;
  d

let prop_delta_terms_match_scan =
  Tutil.qcheck_case ~count:60 "index-probed delta terms = scan oracle"
    QCheck.(pair small_nat bool)
    (fun (seed, ingest) ->
      let st = Tutil.rng (seed + 1) in
      let kb, fact = dense_kb st in
      ignore (Grounding.Ground.run kb);
      let pi = Kb.Gamma.pi kb in
      if ingest then begin
        (* The ingest shape: the indexes exist (and are extended by the
           appends), Δ is the suffix of new facts, the watermark its first
           id — both-new instances hit the residual. *)
        Kb.Storage.build_partial_indexes pi;
        let watermark = Kb.Storage.next_id pi in
        let before = Kb.Storage.size pi in
        let added () =
          delta_of kb (List.init (Kb.Storage.size pi - before) (( + ) before))
        in
        for _ = 1 to 1 + Random.State.int st 4 do
          let r, x, c1, y, c2 = fact () in
          ignore (Kb.Gamma.add_fact kb ~r ~x ~c1 ~y ~c2 ~w:0.5)
        done;
        ignore
          (Grounding.Ground.closure
             ~options:
               {
                 Grounding.Ground.default_options with
                 initial_delta = Some (added ());
               }
             kb);
        delta_terms_agree kb ~delta:(added ()) ~watermark
      end
      else begin
        (* The overdelete shape: an arbitrary frontier (duplicates
           included), after a compaction rebuilt the indexes, and a
           watermark anywhere in the id range. *)
        Kb.Storage.build_partial_indexes pi;
        let n = Kb.Storage.size pi in
        if n > 2 then
          ignore
            (Kb.Storage.delete_ids pi
               [ Table.get (Kb.Storage.table pi) (Random.State.int st n) 0 ]);
        let n = Kb.Storage.size pi in
        let rows =
          List.init (1 + Random.State.int st 8) (fun _ ->
              Random.State.int st (max 1 n))
          |> List.filter (fun r -> r < n)
        in
        let watermark = Random.State.int st (Kb.Storage.next_id pi + 1) in
        delta_terms_agree kb ~delta:(delta_of kb rows) ~watermark
      end)

(* The workload KB: TΠ above the parallel probe threshold, so the
   scan-probed oracle partitions its probe at pool 4. *)
let test_delta_terms_match_scan_workload () =
  let g =
    Workload.Reverb_sherlock.generate
      { Workload.Reverb_sherlock.default_config with scale = 0.004; seed = 3 }
  in
  let kb = Workload.Reverb_sherlock.kb g in
  ignore (Grounding.Ground.run kb);
  let pi = Kb.Gamma.pi kb in
  let n = Kb.Storage.size pi in
  check_bool "TΠ above the parallel threshold" true (n > 2048);
  let st = Tutil.rng 5 in
  for _ = 1 to 4 do
    let rows = List.init 8 (fun _ -> Random.State.int st n) in
    let watermark = Random.State.int st (Kb.Storage.next_id pi + 1) in
    check_bool "terms agree" true
      (delta_terms_agree kb ~delta:(delta_of kb rows) ~watermark)
  done

(* --- the SQL of Figure 3 --- *)

let normalize s =
  String.split_on_char ' ' (String.map (function '\n' -> ' ' | c -> c) s)
  |> List.filter (fun w -> w <> "")
  |> String.concat " "

let test_sql_query_1_1 () =
  (* Figure 3 of the paper, verbatim up to whitespace. *)
  let paper =
    "SELECT M1.R1 AS R, T.x AS x, M1.C1 AS C1, T.y AS y, M1.C2 AS C2 \
     FROM M1 JOIN T ON M1.R2 = T.R AND M1.C1 = T.C1 AND M1.C2 = T.C2;"
  in
  Alcotest.(check string) "Query 1-1" (normalize paper)
    (normalize (Grounding.Sql.ground_atoms Mln.Pattern.P1))

let test_sql_query_1_3 () =
  let paper =
    "SELECT M3.R1 AS R, T2.y AS x, M3.C1 AS C1, T3.y AS y, M3.C2 AS C2 \
     FROM M3 JOIN T T2 ON M3.R2 = T2.R AND M3.C3 = T2.C1 AND M3.C1 = T2.C2 \
     JOIN T T3 ON M3.R3 = T3.R AND M3.C3 = T3.C1 AND M3.C2 = T3.C2 \
     WHERE T2.x = T3.x;"
  in
  Alcotest.(check string) "Query 1-3" (normalize paper)
    (normalize (Grounding.Sql.ground_atoms Mln.Pattern.P3))

let test_sql_query_2_3 () =
  let paper =
    "SELECT T1.I AS I1, T2.I AS I2, T3.I AS I3, M3.w AS w \
     FROM M3 JOIN T T1 ON M3.R1 = T1.R AND M3.C1 = T1.C1 AND M3.C2 = T1.C2 \
     JOIN T T2 ON M3.R2 = T2.R AND M3.C3 = T2.C1 AND M3.C1 = T2.C2 \
     JOIN T T3 ON M3.R3 = T3.R AND M3.C3 = T3.C1 AND M3.C2 = T3.C2 \
     WHERE T1.x = T2.y AND T1.y = T3.y AND T2.x = T3.x;"
  in
  Alcotest.(check string) "Query 2-3" (normalize paper)
    (normalize (Grounding.Sql.ground_factors Mln.Pattern.P3))

let test_sql_all_patterns_render () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "atoms renders" true
        (String.length (Grounding.Sql.ground_atoms p) > 0);
      Alcotest.(check bool) "factors renders" true
        (String.length (Grounding.Sql.ground_factors p) > 0))
    Mln.Pattern.all

(* --- query counts: the headline batching claim --- *)

let test_query_count_independent_of_rule_count () =
  (* With k=2 active partitions (M1, M3) the closure phase must issue
     2 queries per iteration regardless of how many rules each holds. *)
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let result = Grounding.Ground.run kb in
  let entries = Relational.Stats.entries result.Grounding.Ground.stats in
  let q1 =
    List.filter
      (fun e ->
        String.length e.Relational.Stats.label >= 7
        && String.sub e.Relational.Stats.label 0 7 = "Query 1")
      entries
  in
  check_int "Query 1 executions = partitions x iterations"
    (2 * result.Grounding.Ground.iterations)
    (List.length q1)

let () =
  Alcotest.run "grounding"
    [
      ( "worked-example",
        [
          Alcotest.test_case "closure facts" `Quick test_worked_example_closure;
          Alcotest.test_case "factor graph" `Quick test_worked_example_factors;
          Alcotest.test_case "iteration trace" `Quick
            test_worked_example_iterations;
          Alcotest.test_case "idempotent regrounding" `Quick
            test_idempotent_regrounding;
          Alcotest.test_case "proposition 1" `Quick
            test_no_duplicate_factors_within_partition;
        ] );
      ( "patterns",
        [
          Alcotest.test_case "P1" `Quick test_pattern_1;
          Alcotest.test_case "P2" `Quick test_pattern_2;
          Alcotest.test_case "P3" `Quick test_pattern_3;
          Alcotest.test_case "P4" `Quick test_pattern_4;
          Alcotest.test_case "P5" `Quick test_pattern_5;
          Alcotest.test_case "P6" `Quick test_pattern_6;
          Alcotest.test_case "class mismatch blocks" `Quick
            test_class_mismatch_blocks_rule;
          Alcotest.test_case "z join needs equal entities" `Quick
            test_z_join_requires_equal_entities;
        ] );
      ( "driver",
        [
          Alcotest.test_case "transitive chain" `Quick test_transitive_chain;
          Alcotest.test_case "constraint hook cadence" `Quick
            test_constraints_hook_runs_each_iteration;
          Alcotest.test_case "iteration budget" `Quick
            test_max_iterations_budget;
          Alcotest.test_case "singleton factors" `Quick
            test_singletons_only_for_weighted;
          Alcotest.test_case "closure-only mode" `Quick
            test_closure_skips_factor_phase;
          Alcotest.test_case "semi-naive worked example" `Quick
            test_semi_naive_worked_example;
          Alcotest.test_case "semi-naive chain" `Quick
            test_semi_naive_transitive_chain;
          Alcotest.test_case "semi-naive differential" `Slow
            test_semi_naive_equivalence;
          Alcotest.test_case "semi-naive + constraints worked" `Quick
            test_semi_naive_with_constraints_worked;
          Alcotest.test_case "semi-naive + constraints differential" `Slow
            test_semi_naive_with_constraints_differential;
          Alcotest.test_case "pool-size differential" `Quick
            test_pool_size_equivalence;
          Alcotest.test_case "grounding routes pinned" `Quick
            test_route_digests_pinned;
          test_monotonicity;
        ] );
      ( "delta-probe",
        [
          prop_delta_terms_match_scan;
          Alcotest.test_case "workload KB, pools 1 and 4" `Quick
            test_delta_terms_match_scan_workload;
        ] );
      ( "figure-3-sql",
        [
          Alcotest.test_case "Query 1-1 verbatim" `Quick test_sql_query_1_1;
          Alcotest.test_case "Query 1-3 verbatim" `Quick test_sql_query_1_3;
          Alcotest.test_case "Query 2-3 verbatim" `Quick test_sql_query_2_3;
          Alcotest.test_case "all patterns render" `Quick
            test_sql_all_patterns_render;
          Alcotest.test_case "query count batching" `Quick
            test_query_count_independent_of_rule_count;
        ] );
    ]
