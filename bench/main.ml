(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (Section 6).

   Usage:
     dune exec bench/main.exe                   # everything, scaled defaults
     dune exec bench/main.exe -- -e table3      # one experiment
     dune exec bench/main.exe -- --full         # paper-scale sweeps (slow)
     dune exec bench/main.exe -- --quick        # CI-sized runs
     dune exec bench/main.exe -- --scale 0.2    # override the KB scale

   Every experiment prints the paper's published numbers next to the
   measured ones; EXPERIMENTS.md records the comparison.  Nothing here is
   gated on time: the repository benchmark is perfbench/. *)

let all_experiments =
  [
    ("table2", Exp_perf.table2);
    ("table3", Exp_perf.table3);
    ("fig4", Exp_perf.fig4);
    ("fig6a", Exp_perf.fig6a);
    ("fig6b", Exp_perf.fig6b);
    ("fig6c", Exp_perf.fig6c);
    ("table4", Exp_quality.table4);
    ("fig7a", Exp_quality.fig7a);
    ("fig7b", Exp_quality.fig7b);
    ("micro", Exp_micro.run);
  ]

let () =
  let open Bench_util in
  let spec =
    [
      ( "-e",
        Arg.String (fun e -> options.experiments <- options.experiments @ [ e ]),
        "EXPERIMENT run one experiment (repeatable): "
        ^ String.concat ", " (List.map fst all_experiments) );
      ("--full", Arg.Unit (fun () -> options.full <- true), " paper-scale sweeps");
      ("--quick", Arg.Unit (fun () -> options.quick <- true), " CI-sized runs");
      ( "--scale",
        Arg.Float (fun s -> options.scale <- Some s),
        "S override the default KB scale" );
    ]
  in
  Arg.parse spec
    (fun anon -> options.experiments <- options.experiments @ [ anon ])
    "ProbKB experiment harness";
  let selected =
    match options.experiments with
    | [] -> all_experiments
    | names ->
      List.map
        (fun n ->
          match List.assoc_opt n all_experiments with
          | Some f -> (n, f)
          | None ->
            Printf.eprintf "unknown experiment %S\n" n;
            exit 2)
        names
  in
  let (), total =
    time (fun () ->
        List.iter
          (fun (name, f) ->
            let (), s = time f in
            Format.printf "  [%s done in %.1fs]@." name s)
          selected)
  in
  Format.printf "@.all experiments done in %.1fs@." total
