(* Every metric the benchmark reports, with its unit and direction.
   BENCHMARK.json at the repository root lists the same names; the smoke
   check (perfbench/smoke.py) holds the two in step. *)

(* The gated metrics count CPU seconds, not wall seconds: see Clock.cpu.
   Wall-clock latency and throughput are reported per layer. *)
let end_to_end =
  [
    ("setup_s", "s", "lower");
    ("op_cpu_s", "s", "lower");
    ("peak_rss_bytes", "B", "lower");
  ]

let ms = List.map (fun m -> "M" ^ string_of_int m) [ 1; 2; 3; 4; 5; 6 ]
let iters prefix = List.map (fun i -> Printf.sprintf "%s.%d" prefix i) [ 1; 2; 3; 4 ]
let s names = List.map (fun n -> (n, "s", "lower")) names
let count names = List.map (fun n -> (n, "count", "lower")) names
let ratio better names = List.map (fun n -> (n, "ratio", better)) names

(* Stages whose GC work is reported as gc.minor_words.<stage> and
   gc.major_collections.<stage> (span names). *)
let gc_stages =
  [
    "kb.load"; "grounding.ground"; "factor_graph.compile"; "inference.solve";
    "expand"; "inference.setup_refresh"; "core.freeze"; "incremental.ingest";
    "incremental.retract"; "mpp.ground";
  ]

let per_layer =
  List.concat
    [
      (* wall-clock figures: every workload's op, then the workload-specific
         ones where a workload has them *)
      s [ "setup_wall_s"; "op_p50_s" ];
      [ ("ops_per_s", "1/s", "higher") ];
      s [ "pipeline_s"; "expand_s"; "infer_s" ];
      ratio "higher" [ "exact_fraction" ];
      s [ "local_p50_s"; "local_p99_s"; "lookup_p99_s" ];
      [ ("read_qps", "1/s", "higher") ];
      s [ "ingest_p50_s"; "retract_p50_s"; "write_p90_s"; "refresh_s" ];
      (* tracing itself *)
      s [ "trace.overhead_s" ];
      ratio "higher" [ "trace.coverage" ];
      (* kb, quality *)
      s [ "kb.load_s"; "quality.omega_s" ];
      count [ "quality.omega_removed" ];
      (* grounding: the batch closure and the relational join work *)
      s ([ "grounding.closure_s"; "grounding.factor_phase_s" ] @ iters "grounding.iter_s");
      count (iters "grounding.new_facts");
      s (List.map (( ^ ) "grounding.atoms_s.") ms);
      count (List.map (( ^ ) "grounding.atoms_rows.") ms);
      s (List.map (( ^ ) "grounding.factors_s.") ms);
      s [ "grounding.singletons_s" ];
      count [ "grounding.factor_rows" ];
      (* grounding: the local walk *)
      s [ "grounding.local_walk_p50_s"; "grounding.local_walk_p99_s" ];
      count [ "grounding.local_interior_mean"; "grounding.local_boundary_mean" ];
      ratio "lower" [ "grounding.local_truncated_share" ];
      (* factor graph, inference *)
      s [ "factor_graph.compile_s" ];
      count [ "factor_graph.vars" ];
      s
        [
          "inference.solve_s"; "inference.decompose_s"; "inference.exact_s";
          "inference.gibbs_s"; "inference.setup_refresh_s"; "inference.refresh_s";
          "inference.local_solve_p50_s"; "inference.local_solve_p99_s";
        ];
      count
        [
          "inference.components"; "inference.exact_vars"; "inference.sampled_vars";
          "inference.max_width_solved";
        ];
      ratio "higher" [ "inference.refresh_exact_fraction"; "inference.local_exact_share" ];
      (* core *)
      s [ "core.store_marginals_s"; "core.freeze_s"; "core.publish_s" ];
      count [ "core.marginals_stored"; "core.epoch_lag_max" ];
      (* incremental *)
      s [ "incremental.ingest_p50_s"; "incremental.retract_p50_s" ];
      count [ "incremental.derived"; "incremental.cone_mean"; "incremental.rederived" ];
      ratio "higher" [ "incremental.cone_yield" ];
      (* serve *)
      s
        [
          "serve.start_s"; "serve.lookup_p50_s"; "serve.local_overhead_p50_s";
          "serve.generator_late_p99_s";
        ];
      [ ("serve.peak_rss_bytes", "B", "lower") ];
      (* mpp *)
      s (iters "mpp.iter_s" @ [ "mpp.measured_s"; "mpp.sim_s" ]);
      [ ("mpp.motion_bytes", "B", "lower") ];
      (* storage *)
      [ ("storage.disk_bytes", "B", "lower") ];
      ratio "lower" [ "storage.bytes_per_logical_byte" ];
      count [ "storage.segments" ];
      s [ "storage.write_s"; "storage.read_s"; "storage.scan_s" ];
      (* GC work per stage *)
      List.concat_map
        (fun st ->
          [
            ("gc.minor_words." ^ st, "words", "lower");
            ("gc.major_collections." ^ st, "count", "lower");
          ])
        gc_stages;
    ]
