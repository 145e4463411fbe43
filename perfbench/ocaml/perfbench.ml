(* The repository benchmark: four workloads over one generated KB, timed
   end to end through the program's user-facing entry points, with a
   separate traced run that times each layer from benchmark code.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   --work-dir DIR [--scale X] [--git-rev REV]

   The process generates the inputs from the seed under DIR, then runs
   every timed trial or server in a fresh child process (itself, with
   --child), so set-up and peak RSS are measured from a clean heap.  The
   last line of standard output is the result object; a report with
   run metadata, every sample and the span trace is written to DIR. *)

module Json = Obs.Json

let workloads = [ "table3_batch"; "point_reads"; "live_epochs"; "spilled_mpp" ]
let min_trials = 3
let serving_setups = 3

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable scale : float;
  mutable work_dir : string;
  mutable git_rev : string;
  mutable child : string;
  mutable inputs : string;
  mutable reference : string;
  mutable port : int;
}

let args =
  {
    workload = ""; seed = 0; seconds = 10.; trace = false;
    scale = Inputs.default_scale; work_dir = ".bench_build/runs"; git_rev = "";
    child = ""; inputs = ""; reference = ""; port = 0;
  }

let spec =
  [
    ("--workload", Arg.String (fun s -> args.workload <- s), "W one of the workloads");
    ("--seed", Arg.Int (fun n -> args.seed <- n), "N input seed");
    ("--seconds", Arg.Float (fun f -> args.seconds <- f), "S measuring time");
    ("--trace", Arg.Int (fun n -> args.trace <- n = 1), "0|1 per-layer run");
    ("--scale", Arg.Float (fun f -> args.scale <- f), "X generator scale");
    ("--work-dir", Arg.String (fun s -> args.work_dir <- s), "DIR inputs and reports");
    ("--git-rev", Arg.String (fun s -> args.git_rev <- s), "REV recorded revision");
    ("--child", Arg.String (fun s -> args.child <- s), "KIND (internal)");
    ("--inputs", Arg.String (fun s -> args.inputs <- s), "DIR (internal)");
    ("--reference", Arg.String (fun s -> args.reference <- s), "FACTS,FACTORS (internal)");
    ("--port", Arg.Int (fun p -> args.port <- p), "PORT (internal)");
  ]

(* --- child processes ------------------------------------------------- *)

let spill_root () = Filename.concat args.inputs (Printf.sprintf "spill-%d" (Unix.getpid ()))

let child_main () =
  Pool.set_default_size Serving.pool;
  let traced =
    match args.child with "traced" -> true | "run" | "client" -> args.trace | _ -> false
  in
  let o = Outcome.create ~traced in
  let dir = args.inputs in
  let batch_trial body =
    let kb, cpu = Clock.cpu_time (fun () -> Outcome.stage o "kb.load" (fun () -> Inputs.load dir)) in
    Outcome.set o "setup_cpu_s" cpu;
    Outcome.set o "setup_s" (Option.get (Outcome.metric o "kb.load_s"));
    body kb;
    Outcome.set o "peak_rss_bytes" (Outcome.peak_rss ())
  in
  let reference () =
    Scanf.sscanf args.reference "%d,%d" (fun f g -> (f, g))
  in
  let with_spill f =
    let spill_dir = spill_root () in
    Fun.protect ~finally:(fun () -> Inputs.rm_rf spill_dir) (fun () -> f spill_dir)
  in
  (match (args.workload, args.child) with
  | "table3_batch", ("trial" | "traced") ->
    batch_trial (fun kb ->
        if traced then Batch.table3_traced o ~scale:args.scale kb
        else Batch.table3_untraced o ~scale:args.scale kb)
  | "spilled_mpp", ("trial" | "traced") ->
    with_spill (fun spill_dir ->
        batch_trial (fun kb ->
            if traced then Batch.mpp_traced o kb ~spill_dir ~reference:(reference ())
            else Batch.mpp_untraced o kb ~spill_dir ~reference:(reference ())))
  | ("point_reads" | "live_epochs"), "setup" -> Serving.setup_only o dir
  | "point_reads", "run" ->
    Serving.point_reads o dir ~seed:args.seed ~seconds:args.seconds ~traced:args.trace
  | "point_reads", "client" ->
    Serving.point_reads_client o dir ~port:args.port ~seconds:args.seconds
  | "live_epochs", "run" ->
    Serving.live_epochs o dir ~seed:args.seed ~seconds:args.seconds ~traced:args.trace
  | w, k -> failwith (Printf.sprintf "no child %s for %s" k w));
  Outcome.print o

(* [spawn kind] runs one child and returns what it measured; a child
   that fails counts as one failed operation. *)
let spawn ?(extra = []) kind =
  let argv =
    Array.of_list
      ([
         Sys.executable_name; "--child"; kind; "--workload"; args.workload;
         "--seed"; string_of_int args.seed; "--seconds"; Printf.sprintf "%.17g" args.seconds;
         "--trace"; (if args.trace then "1" else "0"); "--scale"; Printf.sprintf "%.17g" args.scale;
         "--inputs"; args.inputs;
       ]
      @ extra)
  in
  match Outcome.run argv with
  | Some o -> o
  | None ->
    prerr_endline (Printf.sprintf "perfbench: child %s failed" kind);
    let o = Outcome.create ~traced:false in
    Outcome.check o false;
    o

(* --- aggregation ----------------------------------------------------- *)

let values outs name = List.filter_map (fun o -> Outcome.metric o name) outs
let med outs name = Stats.median (values outs name)

let tail xs =
  match Stats.tail xs with
  | Some (_, v) -> v
  | None -> List.fold_left Float.max 0. xs

let p99 xs = match Stats.percentile 99. xs with Some v -> v | None -> tail xs

(* GC work per stage: per process, summed over that stage's spans. *)
let gc_metrics outs =
  List.concat_map
    (fun st ->
      let per f =
        Stats.median
          (List.map
             (fun o ->
               List.fold_left
                 (fun acc (s : Spans.span) -> if s.Spans.name = st then acc +. f s else acc)
                 0. (Spans.spans o.Outcome.spans))
             outs)
      in
      [
        ("gc.minor_words." ^ st, per (fun s -> s.Spans.minor_words));
        ("gc.major_collections." ^ st, per (fun s -> float_of_int s.Spans.major_collections));
      ])
    Metrics.gc_stages

(* Batch workloads: one child per trial until the time is up; traced
   runs alternate untraced and traced trials so the tracing overhead is
   measured within the run. *)
let run_batch ~extra =
  let t0 = Clock.now () in
  let outs = ref [] in
  let i = ref 0 in
  while Clock.now () -. t0 < args.seconds || !i < min_trials * if args.trace then 2 else 1 do
    let kind = if args.trace && !i land 1 = 1 then "traced" else "trial" in
    outs := (kind, spawn ~extra kind) :: !outs;
    incr i
  done;
  let all = List.map snd !outs in
  let of_kind k = List.filter_map (fun (k', o) -> if k = k' then Some o else None) !outs in
  let plain = of_kind "trial" and traced = of_kind "traced" in
  let ops = values plain "op_s" in
  let e2e =
    [
      ("setup_s", med all "setup_cpu_s");
      ("op_cpu_s", med plain "op_cpu_s");
      ("peak_rss_bytes", med plain "peak_rss_bytes");
    ]
  in
  let layer () =
    let names = List.sort_uniq compare (List.concat_map (fun o -> List.map fst o.Outcome.metrics) traced) in
    let traced_layer = List.map (fun n -> (n, med traced n)) names in
    let ops_traced = values traced "op_s" in
    [
      ("setup_wall_s", med all "setup_s");
      ("op_p50_s", Stats.median ops);
      ("ops_per_s", float_of_int (List.length ops) /. List.fold_left ( +. ) 0. ops);
      ("pipeline_s", if args.workload = "table3_batch" then Stats.median ops else 0.);
      ("expand_s", med plain "expand_s");
      ("infer_s", med plain "infer_s");
      ("exact_fraction", med plain "exact_fraction");
      ("trace.overhead_s", Stats.median ops_traced -. Stats.median ops);
    ]
    @ traced_layer @ gc_metrics traced
  in
  (all, e2e, layer, ops)

(* Serving workloads: fresh set-up processes for the set-up time, then
   one process that sets up once more and serves the measured window;
   set-up time and RSS are medians over all [serving_setups] of them. *)
let run_serving () =
  let live = args.workload = "live_epochs" in
  let setups = List.init (serving_setups - 1) (fun _ -> spawn "setup") in
  let run = spawn "run" in
  let all = run :: setups in
  let sm = Outcome.samples run in
  let ops = sm "op" in
  let e2e =
    [
      ("setup_s", med all "setup_cpu_s");
      ("op_cpu_s", Option.value (Outcome.metric run "op_cpu_s") ~default:0.);
      ("peak_rss_bytes", med all "setup_rss_bytes");
    ]
  in
  let layer () =
    let locals = sm "local" in
    (* client request spans cover the traced half of the window, on
       each of the two connections *)
    let traced_half = Spans.seconds run.Outcome.spans "window" /. 2. in
    let coverage = Spans.covered run.Outcome.spans "window" /. (2. *. traced_half) in
    [
        ("setup_wall_s", med all "setup_s");
        ("op_p50_s", Stats.median ops);
        ("expand_s", med all "expand_s");
        ("kb.load_s", med all "kb.load_s");
        ("core.freeze_s", med all "core.freeze_s");
        ("inference.setup_refresh_s", med all "inference.setup_refresh_s");
        ("serve.start_s", med all "serve.start_s");
        ("local_p50_s", Stats.median locals);
        ("local_p99_s", p99 locals);
        ("trace.overhead_s", Stats.median (sm "op_traced") -. Stats.median (sm "op_untraced"));
        ("trace.coverage", coverage);
      ]
    @ (if live then
         [
           ("read_qps", float_of_int (List.length locals) /. args.seconds);
           ("ingest_p50_s", Stats.median ops);
           ("retract_p50_s", Stats.median (sm "retract"));
           ("write_p90_s",
             let writes = ops @ sm "retract" in
             Option.value (Stats.percentile 90. writes) ~default:(tail writes));
           ("refresh_s", Stats.median (sm "refresh"));
           ("incremental.ingest_p50_s", Stats.median (sm "replay_ingest"));
           ("incremental.retract_p50_s", Stats.median (sm "replay_retract"));
           ("inference.refresh_s", Stats.median (sm "replay_refresh"));
           ("core.publish_s", Stats.median (sm "publish"));
           ("serve.generator_late_p99_s", p99 (sm "late"));
         ]
       else
         [
           ("read_qps", Option.value (Outcome.metric run "ops_per_s") ~default:0.);
           ("lookup_p99_s", p99 (sm "lookup"));
           ("serve.lookup_p50_s", Stats.median (sm "lookup"));
           ("serve.local_overhead_p50_s",
             Stats.median locals -. Stats.median (sm "local_in_process"));
           ("grounding.local_walk_p50_s", Stats.median (sm "local_walk"));
           ("grounding.local_walk_p99_s", p99 (sm "local_walk"));
           ("inference.local_solve_p50_s", Stats.median (sm "local_solve"));
           ("inference.local_solve_p99_s", p99 (sm "local_solve"));
         ])
    @ run.Outcome.metrics @ gc_metrics [ run ]
  in
  (all, e2e, layer, ops)

(* --- the parent ------------------------------------------------------ *)

let meta () =
  let cores = Domain.recommended_domain_count () in
  Json.Obj
    [
      ("workload", Json.String args.workload);
      ("seed", Json.Int args.seed);
      ("seconds", Json.Float args.seconds);
      ("trace", Json.Bool args.trace);
      ("scale", Json.Float args.scale);
      ("generator_seed", Json.Int Inputs.generator_seed);
      ("nproc", Json.Int cores);
      ( "probkb_domains_env",
        match Sys.getenv_opt "PROBKB_DOMAINS" with Some v -> Json.String v | None -> Json.Null );
      ("pool", Json.Int Serving.pool);
      ("client_connections", Json.Int 2);
      (* a cell whose domain count exceeds the host's cores is not a
         measurement of parallel speed *)
      ("unmeasured", Json.Bool (Serving.pool > cores));
      ("ocaml", Json.String Sys.ocaml_version);
      ("git_rev", if args.git_rev = "" then Json.Null else Json.String args.git_rev);
    ]

let parent_main () =
  if not (List.mem args.workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ args.workload);
    exit 2
  end;
  let run_dir = Filename.concat args.work_dir (Printf.sprintf "%s-seed%d" args.workload args.seed) in
  args.inputs <- run_dir;
  Inputs.rm_rf run_dir;
  let write_epochs =
    if args.workload = "live_epochs" then 40 * int_of_float (Float.ceil args.seconds) + 40 else 0
  in
  let serving = args.workload = "point_reads" || args.workload = "live_epochs" in
  Inputs.make ~shuffle:(not serving) ~scale:args.scale ~seed:args.seed ~dir:run_dir
    ~write_epochs;
  let all, e2e, layer, ops =
    match args.workload with
    | "table3_batch" -> run_batch ~extra:[]
    | "spilled_mpp" ->
      (* the in-memory single-node expand of the same inputs is the
         reference every spilled trial must reproduce *)
      let kb = Inputs.load run_dir in
      let e =
        Probkb.Engine.expand
          (Probkb.Engine.create
             ~config:(Probkb.Config.make ~max_iterations:Batch.iterations ~inference:None ())
             kb)
      in
      let reference =
        Printf.sprintf "%d,%d" (Kb.Storage.size (Kb.Gamma.pi kb)) e.Probkb.Engine.n_factors
      in
      run_batch ~extra:[ "--reference"; reference ]
    | _ -> run_serving ()
  in
  let attempted = List.fold_left (fun n o -> n + o.Outcome.attempted) 0 all in
  let failed = List.fold_left (fun n o -> n + o.Outcome.failed) 0 all in
  let wanted = if args.trace then Metrics.per_layer else Metrics.end_to_end in
  let measured = if args.trace then layer () else e2e in
  let metrics =
    List.map
      (fun (name, unit, _) ->
        let v =
          match List.assoc_opt name measured with
          | Some v when Float.is_finite v -> v
          | _ -> 0.
        in
        (name, v, unit))
      wanted
  in
  let correct = failed = 0 && attempted > 0 && ops <> [] in
  (* the full report: metadata, samples and spans *)
  let trace = Spans.create ~enabled:true in
  List.iteri
    (fun i o ->
      let root =
        Spans.record trace ~parent:0 ~name:(Printf.sprintf "process.%d" i)
          ~start:(List.fold_left (fun m (s : Spans.span) -> Float.min m s.Spans.start) infinity
                    (Spans.spans o.Outcome.spans))
          ~stop:(List.fold_left (fun m (s : Spans.span) -> Float.max m s.Spans.stop) neg_infinity
                   (Spans.spans o.Outcome.spans))
      in
      Spans.adopt trace ~under:root (Spans.spans o.Outcome.spans))
    all;
  let report =
    Json.Obj
      [
        ("meta", meta ());
        ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ("metrics", Json.Obj (List.map (fun (n, v, _) -> (n, Json.Float v)) metrics));
        ("processes", Json.List (List.map Outcome.to_json all));
        ("spans", Spans.to_json trace);
      ]
  in
  let report_file =
    Filename.concat args.work_dir
      (Printf.sprintf "%s-seed%d-trace%d.json" args.workload args.seed
         (if args.trace then 1 else 0))
  in
  let oc = open_out report_file in
  output_string oc (Json.to_string report);
  output_char oc '\n';
  close_out oc;
  Inputs.rm_rf run_dir;
  print_endline (Json.to_string (meta ()));
  print_endline ("report: " ^ report_file);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
                   metrics) );
          ]))

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench.exe [options]";
  if args.child <> "" then child_main ()
  else parent_main ()
