(* The probkb command-line tool.

   Subcommands:
     generate   synthesize a ReVerb-Sherlock-shaped KB to TSV files
     expand     load a KB, run knowledge expansion, save the result
     infer      expand + marginal inference, print the top inferred facts
     stats      print KB statistics (the Table 2 row)
     demo       the paper's Ruth Gruber worked example *)

open Cmdliner

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

(* Progress chatter goes to stderr so [--metrics json] leaves stdout as a
   single machine-readable document. *)
let load_kb facts rules constraints =
  let kb = Kb.Gamma.create () in
  let n_facts = Kb.Loader.load_facts_file kb facts in
  let n_rules = Kb.Loader.load_rules_file kb rules in
  let n_cons =
    match constraints with
    | Some path -> Kb.Loader.load_constraints_file kb path
    | None -> 0
  in
  Format.eprintf "loaded %d facts, %d rules, %d constraints@." n_facts n_rules
    n_cons;
  kb

(* --- common arguments --- *)

let facts_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "facts" ] ~docv:"FILE" ~doc:"Tab-separated facts file.")

let rules_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "rules" ] ~docv:"FILE" ~doc:"Rules file (one Horn clause per line).")

let constraints_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "constraints" ] ~docv:"FILE"
        ~doc:"Functional constraints file (relation, I|II, degree).")

let sc_arg =
  Arg.(
    value & flag
    & info [ "sc" ] ~doc:"Apply semantic constraints during expansion.")

let theta_arg =
  Arg.(
    value & opt float 1.0
    & info [ "theta" ] ~docv:"T"
        ~doc:"Rule-cleaning threshold: keep the top T fraction of rules.")

let mpp_arg =
  Arg.(
    value & flag
    & info [ "mpp" ]
        ~doc:"Ground on the simulated MPP cluster (ProbKB-p configuration).")

let iterations_arg =
  Arg.(
    value & opt int 15
    & info [ "max-iterations" ] ~docv:"N" ~doc:"Grounding iteration budget.")

let spill_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spill-dir" ] ~docv:"DIR"
        ~doc:
          "Out-of-core storage root: once the fact table outgrows the \
           spill threshold (64 MiB), grounding keeps an mmap-backed \
           columnar copy under DIR and probes its joins from it. Results \
           are identical to the fully in-memory run.")

let segment_rows_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "segment-rows" ] ~docv:"N"
        ~doc:
          "Rows per on-disk column segment for $(b,--spill-dir) \
           (default 65536).")

let spill_threshold_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "spill-threshold" ] ~docv:"BYTES"
        ~doc:
          "Resident byte size at which a table spills to \
           $(b,--spill-dir) (default 64 MiB).")

let config ?(obs = Probkb.Obs.Config.default) ?target_r_hat ?min_ess
    ?(hybrid = false) ?exact_max_vars ?max_width ?spill_dir ?segment_rows
    ?spill_threshold_bytes ~sc ~theta ~mpp ~iterations ~inference () =
  (* [Config.make] rejects out-of-range knobs (--max-width, \
     --exact-max-vars, --segment-rows) with [Invalid_argument]; surface \
     those as a clean usage error instead of an "internal error" crash. *)
  try
    Probkb.Config.make
      ~engine:
        (if mpp then
           Probkb.Config.Mpp { cluster = Mpp.Cluster.default; views = true }
         else Probkb.Config.Single_node)
      ~semantic_constraints:sc ~rule_theta:theta ~max_iterations:iterations
      ~inference ~obs ?target_r_hat ?min_ess ~hybrid ?exact_max_vars
      ?max_width ?spill_dir ?segment_rows ?spill_threshold_bytes ()
  with Invalid_argument msg ->
    Format.eprintf "probkb: %s@." msg;
    exit 2

(* --- hybrid-dispatch arguments (infer / query / session / serve) --- *)

let hybrid_arg =
  Arg.(
    value & flag
    & info [ "hybrid" ]
        ~doc:
          "Per-component hybrid inference: enumerate or junction-tree-solve \
           low-treewidth components exactly, sample only the high-treewidth \
           cores with chromatic Gibbs.")

let max_width_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-width" ] ~docv:"W"
        ~doc:
          "Induced-width bound for junction-tree variable elimination in \
           the per-component dispatcher (default 12, max 27 — elimination \
           cliques hold W+1 variables).")

let exact_max_vars_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "exact-max-vars" ] ~docv:"N"
        ~doc:
          "Per-component variable cap for exact enumeration (default 25, \
           max 30).")

(* --- observability arguments (expand / infer) --- *)

type metrics = Mjson | Mtext

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the pipeline trace in Chrome trace_event format (open in \
           chrome://tracing or Perfetto).")

let metrics_arg =
  Arg.(
    value
    & opt (some (enum [ ("json", Mjson); ("text", Mtext) ])) None
    & info [ "metrics" ] ~docv:"json|text"
        ~doc:
          "Print stage metrics (span tree, counters, timers, gauges). With \
           $(b,json), stdout carries a single JSON document.")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "After expansion, run each grounding query (Query 1-i) as a \
           logical plan and print EXPLAIN ANALYZE output: estimated vs. \
           observed cardinalities per operator.")

let obs_config ~trace ~metrics =
  if trace <> None || metrics <> None then Probkb.Obs.Config.enabled
  else Probkb.Obs.Config.default

(* --- live-run snapshots (expand / infer) --- *)

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Print a live progress line per grounding iteration and sampler \
           checkpoint to stderr.")

let snapshots_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshots" ] ~docv:"FILE"
        ~doc:
          "Stream progress snapshots to FILE as NDJSON (one JSON document \
           per line, flushed as the run advances).")

(* Installs the snapshot sinks on the engine's trace; returns the cleanup
   that detaches them and closes the file. *)
let install_snapshots engine ~progress ~snapshots =
  let trace = Probkb.Engine.trace engine in
  let sinks = if progress then [ Obs.Snapshot.ticker Format.err_formatter ] else [] in
  let oc = Option.map open_out snapshots in
  let sinks =
    match oc with Some oc -> Obs.Snapshot.ndjson oc :: sinks | None -> sinks
  in
  if sinks <> [] then
    Probkb.Obs.set_snapshot_sink trace (Some (Obs.Snapshot.tee sinks));
  fun () ->
    Probkb.Obs.set_snapshot_sink trace None;
    match oc with
    | Some oc ->
      close_out oc;
      Format.eprintf "snapshots written to %s@."
        (Option.get snapshots)
    | None -> ()

let write_trace engine = function
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Probkb.Obs.write_chrome_trace (Probkb.Engine.trace engine) oc;
    close_out oc;
    Format.eprintf "trace written to %s@." path

(* EXPLAIN ANALYZE of the active grounding queries over the (expanded)
   fact table. *)
let explain_plans kb =
  let prepared = Grounding.Queries.prepare (Kb.Gamma.partitions kb) in
  let pi = Kb.Gamma.pi kb in
  List.filter_map
    (fun pat ->
      if Mln.Partition.count (Grounding.Queries.partitions prepared) pat = 0
      then None
      else
        let plan = Grounding.Queries.atoms_plan prepared pat pi in
        let _, analysis = Relational.Plan.analyze plan in
        Some (pat, analysis))
    Mln.Pattern.all

let print_explain plans =
  List.iter
    (fun (pat, a) ->
      Format.printf "--- EXPLAIN ANALYZE Query 1-%d (%s) ---@.%a@."
        (Mln.Pattern.index pat + 1)
        (Mln.Pattern.to_string pat)
        Relational.Plan.pp_analysis a)
    plans

let explain_json plans =
  Obs.Json.List
    (List.map
       (fun (pat, a) ->
         Obs.Json.Obj
           [
             ("pattern", Obs.Json.String (Mln.Pattern.to_string pat));
             ("query", Obs.Json.Int (Mln.Pattern.index pat + 1));
             ("plan", Relational.Plan.analysis_to_json a);
           ])
       plans)

(* --- generate --- *)

let generate scale seed out =
  let g =
    Workload.Reverb_sherlock.generate
      { Workload.Reverb_sherlock.default_config with scale; seed }
  in
  let kb = Workload.Reverb_sherlock.kb g in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let write name f =
    let oc = open_out (Filename.concat out name) in
    f oc;
    close_out oc
  in
  write "facts.tsv" (Kb.Loader.save_facts kb);
  write "rules.mln" (Kb.Loader.save_rules kb);
  write "constraints.tsv" (fun oc ->
      let rel = Relational.Dict.name (Kb.Gamma.relations kb) in
      List.iter
        (fun (fc : Kb.Funcon.t) ->
          Printf.fprintf oc "%s\t%s\t%d\n" (rel fc.Kb.Funcon.rel)
            (match fc.Kb.Funcon.ftype with
            | Kb.Funcon.Type_I -> "I"
            | Kb.Funcon.Type_II -> "II")
            fc.Kb.Funcon.degree)
        (Kb.Gamma.omega kb));
  Format.printf "%a@.written to %s/@." Kb.Gamma.pp_stats (Kb.Gamma.stats kb) out;
  0

let generate_cmd =
  let scale =
    Arg.(
      value & opt float 0.05
      & info [ "scale" ] ~docv:"S" ~doc:"Scale factor (1.0 = Table 2 sizes).")
  in
  let seed =
    Arg.(value & opt int 20140622 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.")
  in
  let out =
    Arg.(
      value & opt string "kb-out"
      & info [ "out"; "o" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesize a ReVerb-Sherlock-shaped KB.")
    Term.(const generate $ scale $ seed $ out)

(* --- expand --- *)

let lint_report kb =
  let issues = Quality.Lint.check ~kb (Kb.Gamma.rules kb) in
  if issues <> [] then begin
    Format.eprintf "rule lint: %d issues@." (List.length issues);
    List.iteri
      (fun i issue ->
        if i < 8 then
          Format.eprintf "  %s@."
            (Quality.Lint.describe
               ~rel_name:(Relational.Dict.name (Kb.Gamma.relations kb))
               ~cls_name:(Relational.Dict.name (Kb.Gamma.classes kb))
               issue))
      issues
  end

let expand facts rules constraints sc theta mpp iterations spill_dir
    segment_rows spill_threshold_bytes out trace metrics explain progress
    snapshots verbose =
  setup_logs verbose;
  let kb = load_kb facts rules constraints in
  lint_report kb;
  let engine =
    Probkb.Engine.create
      ~config:
        (config ~obs:(obs_config ~trace ~metrics) ?spill_dir ?segment_rows
           ?spill_threshold_bytes ~sc ~theta ~mpp ~iterations ~inference:None
           ())
      kb
  in
  let detach = install_snapshots engine ~progress ~snapshots in
  let e = Probkb.Engine.expand engine in
  detach ();
  let plans = if explain then explain_plans kb else [] in
  (match metrics with
  | Some Mjson ->
    let doc =
      Obs.Json.Obj
        (("expansion", Probkb.Report.expansion_to_json e)
        :: (if explain then [ ("explain", explain_json plans) ] else []))
    in
    print_endline (Obs.Json.to_string doc)
  | Some Mtext ->
    Format.printf "%a@." Probkb.Report.pp_expansion e;
    Format.printf "%a@." Probkb.Report.pp_trajectory e.Probkb.Engine.trajectory;
    if explain then print_explain plans;
    Format.printf "%a@." Probkb.Report.pp_summary e.Probkb.Engine.obs
  | None ->
    Format.printf "%a@." Probkb.Report.pp_expansion e;
    if explain then print_explain plans);
  write_trace engine trace;
  (match out with
  | Some path ->
    let oc = open_out path in
    Kb.Loader.save_facts kb oc;
    close_out oc;
    Format.eprintf "expanded facts written to %s@." path
  | None -> ());
  0

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the expanded facts here.")

let expand_cmd =
  Cmd.v
    (Cmd.info "expand" ~doc:"Run knowledge expansion over a KB.")
    Term.(
      const expand $ facts_arg $ rules_arg $ constraints_arg $ sc_arg
      $ theta_arg $ mpp_arg $ iterations_arg $ spill_dir_arg
      $ segment_rows_arg $ spill_threshold_arg $ out_arg $ trace_arg
      $ metrics_arg $ explain_arg $ progress_arg $ snapshots_arg
      $ verbose_arg)

(* --- infer --- *)

let infer facts rules constraints sc theta iterations top samples target_r_hat
    min_ess hybrid max_width exact_max_vars trace metrics progress snapshots =
  let kb = load_kb facts rules constraints in
  let inference =
    Some
      (Inference.Marginal.Chromatic
         { Inference.Gibbs.default_options with samples })
  in
  let engine =
    Probkb.Engine.create
      ~config:
        (config ~obs:(obs_config ~trace ~metrics) ?target_r_hat ?min_ess
           ~hybrid ?exact_max_vars ?max_width ~sc ~theta ~mpp:false
           ~iterations ~inference ())
      kb
  in
  let detach = install_snapshots engine ~progress ~snapshots in
  let e = Probkb.Engine.expand engine in
  let marginals, run_info = Probkb.Engine.infer_full engine e in
  detach ();
  let marginals_stored = Probkb.Engine.store_marginals engine marginals in
  let result =
    {
      Probkb.Engine.expansion = e;
      marginals_stored;
      inference = run_info;
      obs = Probkb.Engine.summary engine;
    }
  in
  let inferred = ref [] in
  Kb.Storage.iter
    (fun ~id ~r:_ ~x:_ ~c1:_ ~y:_ ~c2:_ ~w:_ ->
      match Hashtbl.find_opt marginals id with
      | Some p -> inferred := (p, id) :: !inferred
      | None -> ())
    (Kb.Gamma.pi kb);
  let top_facts =
    List.sort (fun (a, _) (b, _) -> compare b a) !inferred
    |> List.filteri (fun i _ -> i < top)
  in
  (match metrics with
  | Some Mjson ->
    let doc =
      Obs.Json.Obj
        [
          ("result", Probkb.Report.result_to_json result);
          ( "top",
            Obs.Json.List
              (List.map
                 (fun (p, id) ->
                   Obs.Json.Obj
                     [
                       ("p", Obs.Json.Float p);
                       ( "fact",
                         Obs.Json.String
                           (Format.asprintf "%a" (Kb.Gamma.pp_fact kb) id) );
                     ])
                 top_facts) );
        ]
    in
    print_endline (Obs.Json.to_string doc)
  | (Some Mtext | None) as m ->
    Format.printf
      "expansion: %d new facts; showing the top %d by probability@."
      e.Probkb.Engine.new_fact_count top;
    (match run_info with
    | Some i -> Format.printf "%a@." Probkb.Report.pp_inference i
    | None -> ());
    List.iter
      (fun (p, id) ->
        Format.printf "  %.3f  %a@." p (Kb.Gamma.pp_fact kb) id)
      top_facts;
    if m = Some Mtext then begin
      Format.printf "%a@." Probkb.Report.pp_trajectory
        e.Probkb.Engine.trajectory;
      Format.printf "%a@." Probkb.Report.pp_summary result.Probkb.Engine.obs
    end);
  write_trace engine trace;
  0

let infer_cmd =
  let top =
    Arg.(
      value & opt int 20
      & info [ "top" ] ~docv:"N" ~doc:"How many facts to print.")
  in
  let samples =
    Arg.(
      value & opt int 500
      & info [ "samples" ] ~docv:"N" ~doc:"Gibbs estimation sweeps.")
  in
  let target_r_hat =
    Arg.(
      value
      & opt (some float) None
      & info [ "target-rhat" ] ~docv:"R"
          ~doc:
            "Stop sampling early once the online split-R-hat falls to R \
             (checked every checkpoint; see also $(b,--min-ess)).")
  in
  let min_ess =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-ess" ] ~docv:"N"
          ~doc:
            "Stop sampling early once every variable's effective sample \
             size reaches N.")
  in
  Cmd.v
    (Cmd.info "infer" ~doc:"Expand a KB and compute marginal probabilities.")
    Term.(
      const infer $ facts_arg $ rules_arg $ constraints_arg $ sc_arg
      $ theta_arg $ iterations_arg $ top $ samples $ target_r_hat $ min_ess
      $ hybrid_arg $ max_width_arg $ exact_max_vars_arg $ trace_arg
      $ metrics_arg $ progress_arg $ snapshots_arg)

(* --- stats --- *)

let stats facts rules constraints =
  let kb = load_kb facts rules constraints in
  Format.printf "%a@." Probkb.Report.pp_kb kb;
  0

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Print knowledge-base statistics.")
    Term.(const stats $ facts_arg $ rules_arg $ constraints_arg)

(* --- sql --- *)

let sql () =
  List.iter
    (fun p ->
      Format.printf "--- Query 1-%d (groundAtoms, %s) ---@.%s@.@."
        (Mln.Pattern.index p + 1)
        (Mln.Pattern.to_string p)
        (Grounding.Sql.ground_atoms p);
      Format.printf "--- Query 2-%d (groundFactors, %s) ---@.%s@.@."
        (Mln.Pattern.index p + 1)
        (Mln.Pattern.to_string p)
        (Grounding.Sql.ground_factors p))
    Mln.Pattern.all;
  Format.printf "--- Query 3 (applyConstraints) ---@.%s@."
    Grounding.Sql.apply_constraints;
  0

let sql_cmd =
  Cmd.v
    (Cmd.info "sql"
       ~doc:"Print the grounding queries as SQL (the paper's Figure 3).")
    Term.(const sql $ const ())

(* --- analyze --- *)

let analyze facts rules constraints iterations =
  let kb = load_kb facts rules constraints in
  let engine =
    Probkb.Engine.create
      ~config:
        (config ~sc:false ~theta:1.0 ~mpp:false ~iterations ~inference:None ())
      kb
  in
  let e = Probkb.Engine.expand engine in
  Format.printf "expanded: %d new facts, %d factors@.@."
    e.Probkb.Engine.new_fact_count e.Probkb.Engine.n_factors;
  let omega = Kb.Gamma.omega kb in
  let vs = Quality.Semantic.violations (Kb.Gamma.pi kb) omega in
  Format.printf "%d functional-constraint violations@." (List.length vs);
  let entity_name = Relational.Dict.name (Kb.Gamma.entities kb) in
  let rel_name = Relational.Dict.name (Kb.Gamma.relations kb) in
  List.iteri
    (fun i v ->
      if i < 15 then
        Format.printf "  %a@."
          (Quality.Semantic.pp_violation ~entity_name ~rel_name)
          v)
    vs;
  if List.length vs > 15 then Format.printf "  ... (%d more)@." (List.length vs - 15);
  (* Rule blame via lineage. *)
  let bad =
    List.concat_map
      (fun v ->
        Quality.Semantic.violation_group (Kb.Gamma.pi kb) v
        |> List.filter_map (fun ((r, x, c1, y, c2), _) ->
               Kb.Storage.find (Kb.Gamma.pi kb) ~r ~x ~c1 ~y ~c2))
      vs
  in
  let reports =
    Quality.Rule_feedback.attribute ~kb ~graph:e.Probkb.Engine.graph
      ~bad_facts:bad
  in
  let worst =
    List.filter (fun r -> Quality.Rule_feedback.penalty r > 0.) reports
    |> List.sort (fun a b ->
           compare
             (Quality.Rule_feedback.penalty b)
             (Quality.Rule_feedback.penalty a))
  in
  Format.printf "@.%d rules implicated; worst offenders:@." (List.length worst);
  let cls_name = Relational.Dict.name (Kb.Gamma.classes kb) in
  List.iteri
    (fun i (rep : Quality.Rule_feedback.report) ->
      if i < 10 then
        Format.printf "  penalty %.2f (%d/%d)  %s@."
          (Quality.Rule_feedback.penalty rep)
          rep.Quality.Rule_feedback.blamed rep.Quality.Rule_feedback.derived
          (Mln.Pretty.clause ~rel_name ~cls_name rep.Quality.Rule_feedback.clause))
    worst;
  0

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Expand a KB, report constraint violations and attribute them to \
          rules via lineage.")
    Term.(const analyze $ facts_arg $ rules_arg $ constraints_arg $ iterations_arg)

(* --- session --- *)

(* NDJSON op stream on stdin, one JSON result per line on stdout.  The
   op codec ([Serve.Protocol]) is shared with the [serve] subcommand —
   the wire schema is defined once (see DESIGN.md §13):

     {"op":"ingest","facts":[["r","x","C1","y","C2",0.93], ...]}
     {"op":"retract","keys":[["r","x","C1","y","C2"], ...],"ban":true}
     {"op":"retract_rules","head":"r"}
     {"op":"add_rules","rules":["1.4 r(x:C, y:D) :- q(x, y)"]}
     {"op":"reexpand"}
     {"op":"refresh"}
     {"op":"query","key":["r","x","C1","y","C2"]}
     {"op":"query_local","key":[...],"budget":64}
     {"op":"stats"}

   Epoch ops answer with the epoch ledger entry; query answers with the
   fact view.  Malformed input answers {"error": ...} and the stream
   continues. *)

let session_run facts rules constraints sc theta iterations samples hybrid
    max_width exact_max_vars verbose =
  setup_logs verbose;
  let kb = load_kb facts rules constraints in
  let inference =
    Some
      (Inference.Marginal.Chromatic
         { Inference.Gibbs.default_options with samples })
  in
  let engine =
    Probkb.Engine.create
      ~config:
        (config ~hybrid ?exact_max_vars ?max_width ~sc ~theta ~mpp:false
           ~iterations ~inference ())
      kb
  in
  let s = Probkb.Engine.session engine in
  Format.eprintf "session open: %d facts, %d factors@."
    (Kb.Storage.size (Kb.Gamma.pi kb))
    (Factor_graph.Fgraph.size (Probkb.Engine.Session.graph s));
  (try
     while true do
       let line = input_line stdin in
       if String.trim line <> "" then begin
         print_endline (Obs.Json.to_string (Serve.Protocol.step kb s line));
         flush stdout
       end
     done
   with End_of_file -> ());
  0

let session_cmd =
  let samples =
    Arg.(
      value & opt int 200
      & info [ "samples" ] ~docv:"N" ~doc:"Gibbs estimation sweeps per refresh.")
  in
  Cmd.v
    (Cmd.info "session"
       ~doc:
         "Open a live session over an expanded KB: read NDJSON \
          ingest/retract/refresh/query ops from stdin, answer one JSON \
          document per op on stdout.")
    Term.(
      const session_run $ facts_arg $ rules_arg $ constraints_arg $ sc_arg
      $ theta_arg $ iterations_arg $ samples $ hybrid_arg $ max_width_arg
      $ exact_max_vars_arg $ verbose_arg)

(* --- serve --- *)

(* The concurrent front-end: expand the KB, open a session, wrap it in a
   Writer (single mutable arm) and serve the NDJSON protocol over a
   socket — reads answered concurrently from the published epoch
   snapshot by a pool of reader domains, writes serialized through the
   writer domain.  With --connect, act as a client instead: pipe NDJSON
   stdin → server → stdout. *)

let connect_addr target =
  if String.contains target '/' then Unix.ADDR_UNIX target
  else
    match String.rindex_opt target ':' with
    | Some i ->
      let host = String.sub target 0 i in
      let port =
        int_of_string (String.sub target (i + 1) (String.length target - i - 1))
      in
      let inet =
        if host = "" || host = "localhost" then Unix.inet_addr_loopback
        else Unix.inet_addr_of_string host
      in
      Unix.ADDR_INET (inet, port)
    | None -> Unix.ADDR_UNIX target

let serve_client target =
  let addr = connect_addr target in
  let fd =
    Unix.socket
      (match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET)
      Unix.SOCK_STREAM 0
  in
  Unix.connect fd addr;
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (try
     while true do
       let line = input_line stdin in
       if String.trim line <> "" then begin
         output_string oc line;
         output_char oc '\n';
         flush oc;
         print_endline (input_line ic);
         flush stdout
       end
     done
   with End_of_file -> ());
  (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
  0

let serve_run facts rules constraints sc theta iterations samples hybrid
    max_width exact_max_vars pool port socket connect admin_port access_log
    slow_ms metrics verbose =
  setup_logs verbose;
  match (connect, facts, rules) with
  | Some target, _, _ -> serve_client target
  | None, None, _ | None, _, None ->
    Format.eprintf "serve: --facts and --rules are required (unless --connect)@.";
    2
  | None, Some facts, Some rules ->
    let kb = load_kb facts rules constraints in
    let inference =
      Some
        (Inference.Marginal.Chromatic
           { Inference.Gibbs.default_options with samples })
    in
    (* The serving trace is always on: request histograms and counters
       are the server's runtime surface (/metrics, /statusz, the metrics
       op).  Span history is capped per domain — the cumulative metrics
       are unaffected, only explain-style span aggregation forgets old
       requests. *)
    let obs = Probkb.Obs.Config.make ~enabled:true ~retain_spans:4096 () in
    let engine =
      Probkb.Engine.create
        ~config:
          (config ~obs ~hybrid ?exact_max_vars ?max_width ~sc ~theta
             ~mpp:false ~iterations ~inference ())
        kb
    in
    let s = Probkb.Engine.session engine in
    let writer = Probkb.Engine.Writer.of_session s in
    let addr =
      match socket with
      | Some path -> Unix.ADDR_UNIX path
      | None -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
    in
    let access_oc = Option.map open_out access_log in
    let srv =
      Serve.Server.start ~pool ~obs:(Probkb.Engine.trace engine)
        ?access_log:(Option.map Serve.Server.ndjson_sink access_oc)
        ?slow_ms ~kb ~writer ~addr ()
    in
    (match (Serve.Server.port srv, socket) with
    | Some p, _ ->
      Format.eprintf "serving on 127.0.0.1:%d (pool %d): %d facts, %d factors@."
        p pool
        (Kb.Storage.size (Kb.Gamma.pi kb))
        (Factor_graph.Fgraph.size (Probkb.Engine.Session.graph s))
    | None, Some path ->
      Format.eprintf "serving on %s (pool %d): %d facts, %d factors@." path pool
        (Kb.Storage.size (Kb.Gamma.pi kb))
        (Factor_graph.Fgraph.size (Probkb.Engine.Session.graph s))
    | None, None -> ());
    let admin =
      match admin_port with
      | None -> None
      | Some p ->
        let a =
          Serve.Admin.start
            ~addr:(Unix.ADDR_INET (Unix.inet_addr_loopback, p))
            ~routes:
              [
                ( "/metrics",
                  Serve.Admin.route ~content_type:"text/plain; version=0.0.4"
                    (fun () -> Serve.Server.metrics_text srv) );
                ( "/statusz",
                  Serve.Admin.route ~content_type:"application/json" (fun () ->
                      Obs.Json.to_string (Serve.Server.status_json srv) ^ "\n")
                );
              ]
            ()
        in
        (match Serve.Admin.port a with
        | Some ap ->
          Format.eprintf "admin on 127.0.0.1:%d (/metrics, /statusz)@." ap
        | None -> ());
        Some a
    in
    (* The handler may run on any domain under OCaml 5 — an atomic flag,
       not a plain ref, so the main loop is guaranteed to observe it. *)
    let stop_requested = Atomic.make false in
    let on_signal _ = Atomic.set stop_requested true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    while not (Atomic.get stop_requested) do
      try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Format.eprintf "shutting down@.";
    Option.iter Serve.Admin.stop admin;
    Serve.Server.stop srv;
    (* Shutdown summary: the final merged telemetry, after every domain
       has been joined (so nothing is still recording). *)
    let summary = Obs.Summary.of_trace (Probkb.Engine.trace engine) in
    (match metrics with
    | Some Mjson -> print_endline (Obs.Json.to_string (Obs.Summary.to_json summary))
    | Some Mtext | None ->
      Format.eprintf
        "served %d requests (%d reads, %d writes), final epoch %d@."
        (Obs.Summary.counter summary "serve.requests")
        (Obs.Summary.counter summary "serve.reads")
        (Obs.Summary.counter summary "serve.writes")
        (match Obs.Summary.gauge summary "serve.epoch" with
        | Some e -> int_of_float e
        | None -> 0);
      Format.eprintf "%a@." Obs.Summary.pp summary);
    Option.iter close_out access_oc;
    0

let serve_cmd =
  let samples =
    Arg.(
      value & opt int 200
      & info [ "samples" ] ~docv:"N" ~doc:"Gibbs estimation sweeps per refresh.")
  in
  let pool =
    Arg.(
      value & opt int 4
      & info [ "pool" ] ~docv:"N"
          ~doc:"Reader domains serving queries concurrently.")
  in
  let port =
    Arg.(
      value & opt int 7474
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port to listen on (loopback only); 0 picks a free port.")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket instead of TCP.")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"TARGET"
          ~doc:
            "Client mode: connect to a running server (HOST:PORT, or a \
             Unix-socket path) and pipe NDJSON ops from stdin, one reply \
             per line on stdout.  No KB is loaded.")
  in
  let facts_opt =
    Arg.(
      value
      & opt (some file) None
      & info [ "facts" ] ~docv:"FILE"
          ~doc:"Tab-separated facts file (server mode).")
  in
  let rules_opt =
    Arg.(
      value
      & opt (some file) None
      & info [ "rules" ] ~docv:"FILE"
          ~doc:"Rules file, one Horn clause per line (server mode).")
  in
  let admin_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "admin-port" ] ~docv:"PORT"
          ~doc:
            "Expose GET /metrics (Prometheus text) and GET /statusz (JSON) \
             on this loopback TCP port; 0 picks a free port (printed on \
             stderr).")
  in
  let access_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:
            "Append one NDJSON record per request: \
             {ts, id, op, kind, seconds, epoch, slow}.")
  in
  let slow_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-query threshold in milliseconds: slower requests are \
             counted, marked in the access log, and logged with their full \
             span subtree (grounding hops, boundary, pruned mass).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the knowledge base over a socket: concurrent reads against \
          the published epoch snapshot, writes committed behind it by a \
          single writer domain (NDJSON protocol, one op per line).  \
          Telemetry: $(b,--admin-port) for HTTP scraping, the in-band \
          $(b,metrics) op, $(b,--access-log)/$(b,--slow-ms) for structured \
          request logs, and a shutdown summary on SIGINT/SIGTERM (to stderr, \
          or as JSON on stdout with $(b,--metrics) json).")
    Term.(
      const serve_run $ facts_opt $ rules_opt $ constraints_arg $ sc_arg
      $ theta_arg $ iterations_arg $ samples $ hybrid_arg $ max_width_arg
      $ exact_max_vars_arg $ pool $ port $ socket $ connect $ admin_port
      $ access_log $ slow_ms $ metrics_arg $ verbose_arg)

(* --- query --- *)

(* Answer one point query.  With --local, ground only the query's
   neighbourhood backward from the fact (no factor graph is ever
   materialized); without it, run the full pipeline for comparison.
   Stdout carries a single JSON document either way. *)

let query_run facts rules constraints sc theta iterations samples hybrid
    max_width exact_max_vars key local budget max_hops decay min_influence
    verbose =
  setup_logs verbose;
  let kb = load_kb facts rules constraints in
  match String.split_on_char ',' key with
  | [ r; x; c1; y; c2 ] ->
    let r = Kb.Gamma.relation kb (String.trim r)
    and x = Kb.Gamma.entity kb (String.trim x)
    and c1 = Kb.Gamma.cls kb (String.trim c1)
    and y = Kb.Gamma.entity kb (String.trim y)
    and c2 = Kb.Gamma.cls kb (String.trim c2) in
    let inference =
      Some
        (Inference.Marginal.Chromatic
           { Inference.Gibbs.default_options with samples })
    in
    let engine =
      Probkb.Engine.create
        ~config:
          (config ~hybrid ?exact_max_vars ?max_width ~sc ~theta ~mpp:false
             ~iterations ~inference ())
        kb
    in
    let seconds_json ~ground ~infer =
      Obs.Json.Obj
        [
          ("ground", Obs.Json.Float ground); ("infer", Obs.Json.Float infer);
        ]
    in
    let doc =
      if local then begin
        (* Fact closure only — the backward walk needs the fact table
           closed under the rules, but no factor graph. *)
        let hook =
          if sc then Some (Quality.Semantic.hook (Kb.Gamma.omega kb))
          else None
        in
        ignore
          (Grounding.Ground.closure
             ~options:
               {
                 Grounding.Ground.default_options with
                 max_iterations = iterations;
                 apply_constraints = hook;
                 obs = Probkb.Engine.trace engine;
               }
             kb);
        let budget =
          match (budget, max_hops, decay, min_influence) with
          | None, None, 1.0, 0.0 -> None
          | _ ->
            Some
              (Grounding.Local.budget ?max_facts:budget ?max_hops ~decay
                 ~min_influence ())
        in
        match Probkb.Engine.query_local ?budget engine ~r ~x ~c1 ~y ~c2 with
        | None -> Obs.Json.Obj [ ("found", Obs.Json.Bool false) ]
        | Some a ->
          Obs.Json.Obj
            [
              ("found", Obs.Json.Bool true);
              ("id", Obs.Json.Int a.Probkb.Engine.id);
              ("marginal", Obs.Json.Float a.Probkb.Engine.marginal);
              ( "method",
                Obs.Json.String
                  (if a.Probkb.Engine.enumerated then "local-exact"
                   else "local-gibbs") );
              ("interior", Obs.Json.Int a.Probkb.Engine.interior);
              ("boundary", Obs.Json.Int a.Probkb.Engine.boundary);
              ("hops", Obs.Json.Int a.Probkb.Engine.hops);
              ("factors", Obs.Json.Int a.Probkb.Engine.factors);
              ("pruned_mass", Obs.Json.Float a.Probkb.Engine.pruned_mass);
              ("truncated", Obs.Json.Bool a.Probkb.Engine.truncated);
              ( "seconds",
                seconds_json ~ground:a.Probkb.Engine.ground_seconds
                  ~infer:a.Probkb.Engine.infer_seconds );
            ]
      end
      else begin
        let t0 = Obs.now () in
        let e = Probkb.Engine.expand engine in
        let ground_seconds = Obs.now () -. t0 in
        let t1 = Obs.now () in
        let marginals = Probkb.Engine.infer engine e in
        let infer_seconds = Obs.now () -. t1 in
        match Kb.Storage.find (Kb.Gamma.pi kb) ~r ~x ~c1 ~y ~c2 with
        | None -> Obs.Json.Obj [ ("found", Obs.Json.Bool false) ]
        | Some id ->
          let marginal =
            match Hashtbl.find_opt marginals id with
            | Some p -> Some p
            | None -> (
              (* A fact outside the factor graph: its stored weight (the
                 extraction confidence) is the best available estimate. *)
              match Kb.Storage.row_of_id (Kb.Gamma.pi kb) id with
              | Some row ->
                let w =
                  Relational.Table.weight
                    (Kb.Storage.table (Kb.Gamma.pi kb))
                    row
                in
                if Relational.Table.is_null_weight w then None else Some w
              | None -> None)
          in
          Obs.Json.Obj
            [
              ("found", Obs.Json.Bool true);
              ("id", Obs.Json.Int id);
              ( "marginal",
                match marginal with
                | Some p -> Obs.Json.Float p
                | None -> Obs.Json.Null );
              ("method", Obs.Json.String "full");
              ("factors", Obs.Json.Int e.Probkb.Engine.n_factors);
              ("seconds", seconds_json ~ground:ground_seconds ~infer:infer_seconds);
            ]
      end
    in
    print_endline (Obs.Json.to_string doc);
    0
  | _ ->
    Format.eprintf "--key must be \"relation,x,C1,y,C2\" (comma-separated)@.";
    1

let query_cmd =
  let key =
    Arg.(
      required
      & opt (some string) None
      & info [ "key" ] ~docv:"KEY"
          ~doc:"The queried fact, as \"relation,x,C1,y,C2\" (comma-separated).")
  in
  let local =
    Arg.(
      value & flag
      & info [ "local" ]
          ~doc:
            "Answer by backward local grounding: walk the rules in reverse \
             from the queried fact and solve only its neighbourhood, \
             instead of grounding the whole KB.")
  in
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Local-grounding frontier cap: expand at most N facts (query \
             included); facts beyond the cap are clamped at the boundary.")
  in
  let max_hops =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-hops" ] ~docv:"N"
          ~doc:"Stop the backward walk after N hops from the query.")
  in
  let decay =
    Arg.(
      value & opt float 1.0
      & info [ "decay" ] ~docv:"D"
          ~doc:
            "Per-hop influence decay in (0, 1]; combined with \
             $(b,--min-influence) it prunes low-influence frontier facts.")
  in
  let min_influence =
    Arg.(
      value & opt float 0.0
      & info [ "min-influence" ] ~docv:"I"
          ~doc:"Stop expanding once the hop influence D^hops falls below I.")
  in
  let samples =
    Arg.(
      value & opt int 500
      & info [ "samples" ] ~docv:"N"
          ~doc:
            "Gibbs estimation sweeps (used when the neighbourhood is too \
             large for exact enumeration).")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Answer a point query; with $(b,--local), ground only the query's \
          neighbourhood.")
    Term.(
      const query_run $ facts_arg $ rules_arg $ constraints_arg $ sc_arg
      $ theta_arg $ iterations_arg $ samples $ hybrid_arg $ max_width_arg
      $ exact_max_vars_arg $ key $ local $ budget $ max_hops $ decay
      $ min_influence $ verbose_arg)

(* --- demo --- *)

let demo () =
  let kb = Kb.Gamma.create () in
  ignore
    (Kb.Loader.load_rules kb
       [
         "1.40 live_in(x:Writer, y:Place) :- born_in(x, y)";
         "1.53 live_in(x:Writer, y:City) :- born_in(x, y)";
         "0.52 located_in(x:Place, y:City) :- born_in(z:Writer, x), born_in(z, y)";
       ]);
  ignore
    (Kb.Gamma.add_fact_by_name kb ~r:"born_in" ~x:"Ruth Gruber" ~c1:"Writer"
       ~y:"New York City" ~c2:"City" ~w:0.96);
  ignore
    (Kb.Gamma.add_fact_by_name kb ~r:"born_in" ~x:"Ruth Gruber" ~c1:"Writer"
       ~y:"Brooklyn" ~c2:"Place" ~w:0.93);
  let engine =
    Probkb.Engine.create
      ~config:(Probkb.Config.make ~inference:(Some Inference.Marginal.Exact) ())
      kb
  in
  ignore (Probkb.Engine.run engine);
  Kb.Storage.iter
    (fun ~id ~r:_ ~x:_ ~c1:_ ~y:_ ~c2:_ ~w ->
      Format.printf "  P = %s  %a@."
        (if Relational.Table.is_null_weight w then " ?? "
         else Printf.sprintf "%.2f" w)
        (Kb.Gamma.pp_fact kb) id)
    (Kb.Gamma.pi kb);
  0

let demo_cmd =
  Cmd.v
    (Cmd.info "demo" ~doc:"Run the paper's worked example.")
    Term.(const demo $ const ())

let () =
  let info =
    Cmd.info "probkb" ~version:"1.0.0"
      ~doc:"Knowledge expansion over probabilistic knowledge bases."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            generate_cmd; expand_cmd; infer_cmd; query_cmd; stats_cmd;
            sql_cmd; analyze_cmd; session_cmd; serve_cmd; demo_cmd;
          ]))
