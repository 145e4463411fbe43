(* Bechamel micro-benchmarks and ablations.

   These isolate the mechanisms behind the macro results: the cost of one
   batch join versus per-rule application on the same engine, dictionary
   encoding versus string keys, the incremental cost of DISTINCT before
   merging, and the inference-side kernels. *)

open Bechamel
open Toolkit

let small_kb =
  lazy
    (let g =
       Workload.Reverb_sherlock.generate
         { Workload.Reverb_sherlock.default_config with scale = 0.02 }
     in
     Workload.Reverb_sherlock.kb g)

let random_table seed n kmax =
  let rng = Workload.Rng.create seed in
  let t = Relational.Table.create ~name:"t" [| "k"; "v" |] in
  for _ = 1 to n do
    Relational.Table.append t
      [| Workload.Rng.int rng kmax; Workload.Rng.int rng 1000 |]
  done;
  t

let string_table seed n kmax =
  (* Realistic surface forms: long URIs with a shared prefix, the kind of
     key dictionary encoding replaces. *)
  let rng = Workload.Rng.create seed in
  Array.init n (fun _ ->
      ( Printf.sprintf "http://example.org/resource/entity/surface_form_%06d"
          (Workload.Rng.int rng kmax),
        Workload.Rng.int rng 1000 ))

let test_dict_intern =
  Test.make ~name:"dict: intern 10k strings"
    (Staged.stage (fun () ->
         let d = Relational.Dict.create () in
         for i = 0 to 9_999 do
           ignore (Relational.Dict.intern d (string_of_int (i land 4095)))
         done))

let test_hash_join =
  let a = random_table 1 100_000 5_000 and b = random_table 2 10_000 5_000 in
  Test.make ~name:"join: hash join 100k x 10k (int keys)"
    (Staged.stage (fun () ->
         ignore
           (Relational.Join.hash_join ~name:"j" ~cols:[| "k"; "v" |]
              ~out:
                [| Relational.Join.Col (Relational.Join.Build, 0);
                   Relational.Join.Col (Relational.Join.Probe, 1) |]
              ~oweight:Relational.Join.No_weight (b, [| 0 |]) (a, [| 0 |]))))

let test_string_join =
  (* Ablation: the same join on raw string keys — what dictionary encoding
     avoids (paper, Section 4.2: integer IDs "to avoid string comparison
     during joins"). *)
  let a = string_table 1 100_000 5_000 and b = string_table 2 10_000 5_000 in
  Test.make ~name:"join: same join on string keys (ablation)"
    (Staged.stage (fun () ->
         (* Same work as the hash join: build, probe, materialize. *)
         let idx = Hashtbl.create (Array.length b) in
         Array.iter (fun (k, v) -> Hashtbl.add idx k v) b;
         let out = ref [] in
         Array.iter
           (fun (k, va) ->
             List.iter
               (fun vb -> out := (k, va, vb) :: !out)
               (Hashtbl.find_all idx k))
           a;
         ignore !out))

let test_merge_join =
  (* Ablation: sort-merge join on the same inputs as the hash join. *)
  let a = random_table 1 100_000 5_000 and b = random_table 2 10_000 5_000 in
  Test.make ~name:"join: sort-merge join 100k x 10k (ablation)"
    (Staged.stage (fun () ->
         let sa = Relational.Sort.sort a [| 0 |] in
         let sb = Relational.Sort.sort b [| 0 |] in
         ignore
           (Relational.Sort.merge_join ~name:"m" ~cols:[| "k"; "v" |]
              ~out:
                [| Relational.Join.Col (Relational.Join.Build, 0);
                   Relational.Join.Col (Relational.Join.Probe, 1) |]
              ~oweight:Relational.Join.No_weight (sb, [| 0 |]) (sa, [| 0 |]))))

let test_batch_iteration =
  Test.make ~name:"grounding: one batched iteration (6 queries)"
    (Staged.stage (fun () ->
         let kb = Lazy.force small_kb in
         let kb2 = Kb.Gamma.create_like kb in
         Kb.Storage.iter
           (fun ~id:_ ~r ~x ~c1 ~y ~c2 ~w ->
             ignore (Kb.Gamma.add_fact kb2 ~r ~x ~c1 ~y ~c2 ~w))
           (Kb.Gamma.pi kb);
         List.iter (Kb.Gamma.add_rule kb2) (Kb.Gamma.rules kb);
         ignore
           (Grounding.Ground.closure
              ~options:
                { Grounding.Ground.default_options with max_iterations = 1 }
              kb2)))

let test_per_rule_iteration =
  Test.make ~name:"grounding: one per-rule iteration (Tuffy-T, raw engine)"
    (Staged.stage (fun () ->
         let kb = Lazy.force small_kb in
         ignore (Tuffy.run ~max_iterations:1 ~build_factors:false kb)))

let test_closure =
  Test.make ~name:"grounding: full closure (Algorithm 1, delta iterations)"
    (Staged.stage (fun () ->
         let kb = Lazy.force small_kb in
         let kb2 = Kb.Gamma.create_like kb in
         Kb.Storage.iter
           (fun ~id:_ ~r ~x ~c1 ~y ~c2 ~w ->
             ignore (Kb.Gamma.add_fact kb2 ~r ~x ~c1 ~y ~c2 ~w))
           (Kb.Gamma.pi kb);
         List.iter (Kb.Gamma.add_rule kb2) (Kb.Gamma.rules kb);
         ignore (Grounding.Ground.closure kb2)))

let test_constraints =
  Test.make ~name:"quality: batch constraint check (Query 3)"
    (Staged.stage (fun () ->
         let kb = Lazy.force small_kb in
         ignore (Quality.Semantic.violations (Kb.Gamma.pi kb) (Kb.Gamma.omega kb))))

let compiled_graph =
  lazy
    (let kb = Lazy.force small_kb in
     let kb2 = Kb.Gamma.create_like kb in
     Kb.Storage.iter
       (fun ~id:_ ~r ~x ~c1 ~y ~c2 ~w ->
         ignore (Kb.Gamma.add_fact kb2 ~r ~x ~c1 ~y ~c2 ~w))
       (Kb.Gamma.pi kb);
     List.iter (Kb.Gamma.add_rule kb2) (Kb.Gamma.rules kb);
     let r =
       Grounding.Ground.run
         ~options:{ Grounding.Ground.default_options with max_iterations = 2 }
         kb2
     in
     Factor_graph.Fgraph.compile r.Grounding.Ground.graph)

let test_chromatic_sweeps =
  Test.make ~name:"inference: 10 chromatic sweeps"
    (Staged.stage (fun () ->
         let c = Lazy.force compiled_graph in
         ignore
           (Inference.Chromatic.marginals_info
              ~options:{ burn_in = 0; samples = 10; seed = 1 }
              c)))

(* The components Hybrid enumerates: those of at most [enum_cutoff]
   variables. *)
let enumerated_components =
  lazy
    (List.filter
       (fun comp ->
         Inference.Decompose.nvars comp <= Inference.Hybrid.enum_cutoff)
       (Array.to_list
          (Inference.Decompose.components (Lazy.force compiled_graph))))

let test_enumeration =
  Test.make ~name:"inference: enumerate the exact components"
    (Staged.stage (fun () ->
         List.iter
           (fun comp -> ignore (Inference.Exact.enumerate comp))
           (Lazy.force enumerated_components)))

let test_chromatic_color =
  Test.make ~name:"inference: chromatic colouring"
    (Staged.stage (fun () ->
         ignore (Inference.Chromatic.color (Lazy.force compiled_graph))))

let tests =
  [
    test_dict_intern;
    test_hash_join;
    test_string_join;
    test_merge_join;
    test_batch_iteration;
    test_per_rule_iteration;
    test_closure;
    test_constraints;
    test_chromatic_sweeps;
    test_enumeration;
    test_chromatic_color;
  ]

let run () =
  Bench_util.section "Micro-benchmarks (Bechamel)";
  (* Force the shared fixtures outside the timed region. *)
  ignore (Lazy.force small_kb);
  ignore (Lazy.force enumerated_components);
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.8) ~kde:(Some 256) ()
  in
  let grouped = Test.make_grouped ~name:"probkb" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols (List.hd instances) raw in
  let names = ref [] in
  Hashtbl.iter (fun name _ -> names := name :: !names) results;
  List.iter
    (fun name ->
      let est = Hashtbl.find results name in
      match Analyze.OLS.estimates est with
      | Some [ ns ] ->
        Format.printf "  %-55s %12.1f ns/run@." name ns
      | _ -> Format.printf "  %-55s (no estimate)@." name)
    (List.sort compare !names)
