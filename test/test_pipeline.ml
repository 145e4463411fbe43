(* Differential tests for the pipelined plan executor: every generated
   plan must produce the byte-identical table the materializing oracle
   (Plan_oracle) produces.  A pipeline runs on the calling domain; the
   pool's parallelism is whole pipelines run as the tasks of one region
   (grounding runs its per-pattern queries so), so the differentials run
   their pipelines as the tasks of a 1- and a 4-domain region. *)

module Table = Relational.Table
module Batch = Relational.Batch
module Sink = Relational.Sink
module Pipeline = Relational.Pipeline
module Plan = Relational.Plan

let check_int = Alcotest.(check int)

(* Bit-exact comparison: same rows in the same order with the same
   weights. *)
let tables_identical a b =
  Table.nrows a = Table.nrows b
  && Table.width a = Table.width b
  && Table.weighted a = Table.weighted b
  &&
  let ok = ref true in
  for r = 0 to Table.nrows a - 1 do
    if not (Table.equal_rows a r b r) then ok := false;
    if Table.weighted a && compare (Table.weight a r) (Table.weight b r) <> 0
    then ok := false
  done;
  !ok

(* --- randomized plan generator --- *)

(* Base tables shared by all generated plans: a couple of small and a
   couple of join-heavy weighted/unweighted tables. *)
let base_tables st =
  let mk name ~weighted n width kmax =
    let t =
      Table.create ~weighted ~name
        (Array.init width (fun c -> Printf.sprintf "%s%d" name c))
    in
    let buf = Array.make width 0 in
    for _ = 1 to n do
      for c = 0 to width - 1 do
        buf.(c) <- Random.State.int st kmax
      done;
      if weighted then
        Table.append_w t buf (float_of_int (Random.State.int st 100) /. 10.)
      else Table.append t buf
    done;
    t
  in
  [|
    mk "e" ~weighted:false 0 2 10;
    mk "s" ~weighted:false 7 2 5;
    mk "w" ~weighted:true 500 3 12;
    mk "u" ~weighted:false 3000 2 25;
    mk "v" ~weighted:false 800 3 40;
  |]

(* A random plan of bounded depth. *)
let rec gen_plan st tables depth =
  let width p = Array.length (Plan.columns p) in
  if depth = 0 then
    Plan.Scan tables.(Random.State.int st (Array.length tables))
  else
    match Random.State.int st 8 with
    | 0 | 1 ->
      let child = gen_plan st tables (depth - 1) in
      let w = width child in
      let keep = 1 + Random.State.int st w in
      Plan.Project (Array.init keep (fun _ -> Random.State.int st w), child)
    | 2 | 3 | 4 ->
      let left = gen_plan st tables (depth - 1) in
      let right = gen_plan st tables (depth - 1) in
      let k = 1 + Random.State.int st 2 in
      let pick w = Array.init k (fun _ -> Random.State.int st w) in
      Plan.Equi_join
        { left; right; lkey = pick (width left); rkey = pick (width right) }
    | _ ->
      let child = gen_plan st tables (depth - 1) in
      let w = width child in
      let key =
        if Random.State.bool st then None
        else Some (Array.init (1 + Random.State.int st w) (fun _ ->
                       Random.State.int st w))
      in
      Plan.Distinct (key, child)

let with_pools f =
  let p1 = Pool.create 1 and p4 = Pool.create 4 in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown p1;
      Pool.shutdown p4)
    (fun () -> f p1 p4)

(* [check_in_pools labels expected f]: every [f i], run as a task of a
   1- and of a 4-domain region, is [expected.(i)] bit for bit. *)
let check_in_pools labels expected f =
  with_pools (fun p1 p4 ->
      List.iter
        (fun (pname, pool) ->
          Array.iteri
            (fun i got ->
              Alcotest.(check bool)
                (Printf.sprintf "%s identical (%s)" labels.(i) pname)
                true
                (tables_identical expected.(i) got))
            (Tutil.in_region pool (Array.length expected) f))
        [ ("pool 1", p1); ("pool 4", p4) ])

let test_random_plans_differential () =
  let st = Tutil.rng 421 in
  let tables = base_tables st in
  let plans =
    Array.init 60 (fun _ -> gen_plan st tables (1 + Random.State.int st 3))
  in
  check_in_pools
    (Array.mapi (fun i _ -> Printf.sprintf "plan %d" (i + 1)) plans)
    (Array.map Plan_oracle.run plans)
    (fun i -> Plan.run plans.(i))

(* The driver's two sources against materialized references: rows
   [lo, hi) of a table with lo > 0, whose probe residual must see the
   table's own row indices, and a segmented source of ragged segments
   (an empty one among them), whose row ids are the unspilled table's.
   Both span several batches. *)
let test_sources_differential () =
  let st = Tutil.rng 433 in
  let w = (base_tables st).(2) in
  let s = Table.create ~name:"s" [| "s0"; "s1" |] in
  for i = 0 to 2999 do
    Table.append s [| i / 4; Random.State.int st 12 |]
  done;
  let idx = Relational.Index.build w [| 0 |] in
  let out = Pipeline.[| Col (Build, 1); Col (Probe, 0); Col (Probe, 1) |] in
  let oweight = Pipeline.Weight_of Build in
  let keep br rid = (br + Table.get s rid 0) mod 3 <> 0 in
  let run source =
    let sink =
      Sink.create ~dedup_key:[| 0; 1; 2 |] ~weighted:true ~name:"out"
        [| "b"; "s0"; "s1" |]
    in
    ignore
      (Pipeline.run ~source
         (Pipeline.probe idx ~pkey:[| 1 |] ~out ~oweight ~residual:keep
            ~next:(Pipeline.into_sink sink) ()));
    Sink.table sink
  in
  let reference ~residual probe =
    Relational.Join.hash_join ~name:"ref" ~cols:[| "b"; "s0"; "s1" |] ~out
      ~oweight ~dedup:true ~residual (w, [| 0 |]) (probe, [| 1 |])
  in
  let lo = 700 and hi = 2950 in
  let rows_ref =
    reference
      ~residual:(fun br row -> keep br (lo + row))
      (Table.sub s (Array.init (hi - lo) (( + ) lo)))
  in
  let bounds = [ 0; 375; 375; 1200; 2250; 2251; 3000 ] in
  let segments = Pipeline.Segments (Tutil.segmented s bounds) in
  let sources = [| Pipeline.Rows { table = s; lo; hi }; segments |] in
  check_in_pools
    [| "rows [lo, hi)"; "segments" |]
    [| rows_ref; reference ~residual:keep s |]
    (fun i -> run sources.(i))

(* The grounding workload itself: every Query 1-i plan over a grounded
   ReVerb-Sherlock TΠ, run as grounding runs its queries, one pattern per
   task.  At scale 0.005 after 4 iterations TΠ holds 3,812 facts. *)
let test_query_plans_differential () =
  let g =
    Workload.Reverb_sherlock.generate
      { Workload.Reverb_sherlock.default_config with scale = 0.005 }
  in
  let kb = Workload.Reverb_sherlock.kb g in
  ignore
    (Grounding.Ground.run
       ~options:{ Grounding.Ground.default_options with max_iterations = 4 }
       kb);
  let pi = Kb.Gamma.pi kb in
  check_int "grounded facts" 3812 (Kb.Storage.size pi);
  let prepared = Grounding.Queries.prepare (Kb.Gamma.partitions kb) in
  let plans =
    List.filter_map
      (fun pat ->
        if Mln.Partition.count (Grounding.Queries.partitions prepared) pat > 0
        then
          Some
            ( Mln.Pattern.to_string pat,
              Grounding.Queries.atoms_plan prepared pat pi )
        else None)
      Mln.Pattern.all
    |> Array.of_list
  in
  check_int "active patterns" 6 (Array.length plans);
  check_in_pools (Array.map fst plans)
    (Array.map (fun (_, plan) -> Plan_oracle.run plan) plans)
    (fun i -> Plan.run (snd plans.(i)))

let test_analyze_matches_run () =
  (* EXPLAIN ANALYZE's metered execution must not perturb results, and
     its root row count must equal the returned table. *)
  let st = Tutil.rng 97 in
  let tables = base_tables st in
  for i = 1 to 20 do
    let plan = gen_plan st tables 2 in
    let reference = Plan_oracle.run plan in
    let table, a = Plan.analyze plan in
    Alcotest.(check bool)
      (Printf.sprintf "analyze %d identical" i)
      true
      (tables_identical reference table);
    check_int
      (Printf.sprintf "analyze %d root rows" i)
      (Table.nrows table) a.Plan.rows
  done

(* --- batch-boundary edge cases --- *)

let seq_table n =
  let t = Table.create ~name:"n" [| "a"; "b" |] in
  for i = 0 to n - 1 do
    Table.append t [| i; i mod 7 |]
  done;
  t

let boundary_sizes =
  [
    0;
    (* empty input: pipelines must flush cleanly *)
    1;
    Batch.default_capacity - 1;
    Batch.default_capacity;
    (* exactly one full batch *)
    Batch.default_capacity + 1;
    (* one full batch plus a one-row flush *)
    (2 * Batch.default_capacity) + 3;
  ]

let test_batch_boundaries () =
  List.iter
    (fun n ->
      let t = seq_table n in
      List.iter
        (fun (what, plan) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s boundary n=%d" what n)
            true
            (tables_identical (Plan_oracle.run plan) (Plan.run plan)))
        [
          ("project", Plan.Project ([| 1; 0 |], Plan.Scan t));
          ("distinct", Plan.Distinct (Some [| 1 |], Plan.Scan t));
        ])
    boundary_sizes

let test_scan_returns_base_table () =
  (* A bare scan materializes nothing on either engine. *)
  let t = seq_table 10 in
  Alcotest.(check bool) "pipelined scan" true (Plan.run (Plan.Scan t) == t);
  Alcotest.(check bool)
    "materializing scan" true
    (Plan_oracle.run (Plan.Scan t) == t)

(* --- direct kernel-level boundary checks --- *)

let test_pipeline_empty_flush () =
  (* flush with nothing buffered must still propagate to the sink and
     produce an empty, well-formed table. *)
  let t = Table.create ~name:"empty" [| "a" |] in
  let sink = Sink.create ~name:"out" [| "a" |] in
  let n = Pipeline.run ~source:(Pipeline.of_table t) (Pipeline.into_sink sink) in
  check_int "batches" 0 n;
  check_int "rows" 0 (Table.nrows (Sink.table sink))

let () =
  Alcotest.run "pipeline"
    [
      ( "differential",
        [
          Alcotest.test_case "random plans, both engines, pools 1+4" `Quick
            test_random_plans_differential;
          Alcotest.test_case "row-range and segmented sources, pools 1+4"
            `Quick test_sources_differential;
          Alcotest.test_case "analyze matches run" `Quick
            test_analyze_matches_run;
          Alcotest.test_case "Query 1-i plans, pools 1+4" `Quick
            test_query_plans_differential;
        ] );
      ( "boundaries",
        [
          Alcotest.test_case "batch-boundary row counts" `Quick
            test_batch_boundaries;
          Alcotest.test_case "scan returns base table" `Quick
            test_scan_returns_base_table;
          Alcotest.test_case "empty pipeline flush" `Quick
            test_pipeline_empty_flush;
        ] );
    ]
