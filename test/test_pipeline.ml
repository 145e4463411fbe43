(* Differential tests for the pipelined plan executor: every generated
   plan must produce, on the morsel-driven engine at any pool size, the
   byte-identical table the legacy materializing engine produces. *)

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

let gen_pred st width =
  let rec go depth =
    let c = Random.State.int st width in
    match if depth > 1 then 2 else Random.State.int st 6 with
    | 0 -> Plan.And (go (depth + 1), go (depth + 1))
    | 1 -> Plan.Or (go (depth + 1), go (depth + 1))
    | 2 | 3 -> Plan.Lt_const (c, Random.State.int st 30)
    | 4 -> Plan.Not (go (depth + 1))
    | _ -> Plan.Eq_const (c, Random.State.int st 15)
  in
  go 0

(* A random plan of bounded depth.  Order_by at the top of some plans
   keeps comparisons meaningful even where engines could legitimately
   diverge (they must not anyway — identity is checked bit-exact). *)
let rec gen_plan st tables depth =
  let width p = Array.length (Plan.columns p) in
  if depth = 0 then
    Plan.Scan tables.(Random.State.int st (Array.length tables))
  else
    match Random.State.int st 10 with
    | 0 | 1 ->
      let child = gen_plan st tables (depth - 1) in
      Plan.Select (gen_pred st (width child), child)
    | 2 | 3 ->
      let child = gen_plan st tables (depth - 1) in
      let w = width child in
      let keep = 1 + Random.State.int st w in
      Plan.Project (Array.init keep (fun _ -> Random.State.int st w), child)
    | 4 | 5 | 6 ->
      let left = gen_plan st tables (depth - 1) in
      let right = gen_plan st tables (depth - 1) in
      let k = 1 + Random.State.int st 2 in
      let pick w = Array.init k (fun _ -> Random.State.int st w) in
      Plan.Equi_join
        { left; right; lkey = pick (width left); rkey = pick (width right) }
    | 7 | 8 ->
      let child = gen_plan st tables (depth - 1) in
      let w = width child in
      let key =
        if Random.State.bool st then None
        else Some (Array.init (1 + Random.State.int st w) (fun _ ->
                       Random.State.int st w))
      in
      Plan.Distinct (key, child)
    | _ ->
      let child = gen_plan st tables (depth - 1) in
      let w = width child in
      Plan.Order_by
        (Array.init (1 + Random.State.int st w) (fun _ -> Random.State.int st w),
         child)

let with_pools f =
  let p1 = Pool.create 1 and p4 = Pool.create 4 in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown p1;
      Pool.shutdown p4)
    (fun () -> f p1 p4)

let test_random_plans_differential () =
  let st = Tutil.rng 421 in
  let tables = base_tables st in
  with_pools (fun p1 p4 ->
      for i = 1 to 60 do
        let plan = gen_plan st tables (1 + Random.State.int st 3) in
        let reference = Plan.run_materializing ~pool:p1 plan in
        List.iter
          (fun (label, pool) ->
            let got = Plan.run ~pool plan in
            Alcotest.(check bool)
              (Printf.sprintf "plan %d %s identical" i label)
              true
              (tables_identical reference got))
          [ ("pipelined/1", p1); ("pipelined/4", p4) ];
        (* The materializing engine itself must be pool-size invariant. *)
        Alcotest.(check bool)
          (Printf.sprintf "plan %d materializing/4 identical" i)
          true
          (tables_identical reference (Plan.run_materializing ~pool:p4 plan))
      done)

(* The grounding workload itself: every Query 1-i plan over a grounded
   ReVerb-Sherlock TΠ.  At scale 0.005 after 4 iterations TΠ holds 3,812
   facts, above the 2,048-row threshold where the pipelined engine splits
   scans into parallel morsels. *)
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
  in
  check_int "active patterns" 6 (List.length plans);
  with_pools (fun p1 p4 ->
      List.iter
        (fun (pat, plan) ->
          let reference = Plan.run_materializing ~pool:p1 plan in
          List.iter
            (fun (label, got) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s %s identical" pat label)
                true
                (tables_identical reference got))
            [
              ("pipelined/1", Plan.run ~pool:p1 plan);
              ("pipelined/4", Plan.run ~pool:p4 plan);
              ("materializing/4", Plan.run_materializing ~pool:p4 plan);
            ])
        plans)

let test_analyze_matches_run () =
  (* EXPLAIN ANALYZE's metered execution must not perturb results, and
     its root row count must equal the returned table. *)
  let st = Tutil.rng 97 in
  let tables = base_tables st in
  for i = 1 to 20 do
    let plan = gen_plan st tables 2 in
    let reference = Plan.run_materializing plan in
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
  with_pools (fun p1 p4 ->
      List.iter
        (fun n ->
          let t = seq_table n in
          let plan =
            Plan.Select
              (Plan.Not (Plan.Eq_const (1, 3)), Plan.Scan t)
          in
          let reference = Plan.run_materializing ~pool:p1 plan in
          List.iter
            (fun pool ->
              Alcotest.(check bool)
                (Printf.sprintf "select boundary n=%d" n)
                true
                (tables_identical reference (Plan.run ~pool plan)))
            [ p1; p4 ];
          let dplan = Plan.Distinct (Some [| 1 |], Plan.Scan t) in
          let dref = Plan.run_materializing ~pool:p1 dplan in
          List.iter
            (fun pool ->
              Alcotest.(check bool)
                (Printf.sprintf "distinct boundary n=%d" n)
                true
                (tables_identical dref (Plan.run ~pool dplan)))
            [ p1; p4 ])
        boundary_sizes)

let test_scan_returns_base_table () =
  (* A bare scan materializes nothing on either engine. *)
  let t = seq_table 10 in
  Alcotest.(check bool) "pipelined scan" true (Plan.run (Plan.Scan t) == t);
  Alcotest.(check bool)
    "materializing scan" true
    (Plan.run_materializing (Plan.Scan t) == t)

(* --- direct kernel-level boundary checks --- *)

let test_sink_absorb_dedup_order () =
  (* Absorbing morsel-local sinks must keep the global first occurrence:
     a duplicate arriving in a later local sink loses to the earlier
     global row. *)
  let mk () = Sink.create ~dedup_key:[| 0 |] ~name:"s" [| "k"; "v" |] in
  let global = mk () in
  let local1 = Sink.clone_empty global and local2 = Sink.clone_empty global in
  let push s rows =
    let b = Batch.create ~capacity:8 ~weighted:false 2 in
    List.iter
      (fun (k, v) ->
        let r = Batch.alloc_row b ~rid:0 in
        Batch.set b r 0 k;
        Batch.set b r 1 v)
      rows;
    Sink.push_batch s b
  in
  push local1 [ (1, 10); (2, 20) ];
  push local2 [ (2, 99); (3, 30) ];
  Sink.absorb global (Sink.table local1);
  Sink.absorb global (Sink.table local2);
  let t = Sink.table global in
  check_int "rows" 3 (Table.nrows t);
  check_int "winner for key 2" 20 (Table.get t 1 1);
  check_int "key 3 kept" 30 (Table.get t 2 1)

let test_pipeline_empty_flush () =
  (* flush with nothing buffered must still propagate to the sink and
     produce an empty, well-formed table. *)
  let t = Table.create ~name:"empty" [| "a" |] in
  let sink = Sink.create ~name:"out" [| "a" |] in
  let n =
    Pipeline.run ~source:t
      ~make_sink:(fun () -> Sink.clone_empty sink)
      ~chain:Pipeline.into_sink ~sink ()
  in
  check_int "batches" 0 n;
  check_int "rows" 0 (Table.nrows (Sink.table sink))

let () =
  Alcotest.run "pipeline"
    [
      ( "differential",
        [
          Alcotest.test_case "random plans, both engines, pools 1+4" `Quick
            test_random_plans_differential;
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
          Alcotest.test_case "sink absorb keeps first occurrence" `Quick
            test_sink_absorb_dedup_order;
          Alcotest.test_case "empty pipeline flush" `Quick
            test_pipeline_empty_flush;
        ] );
    ]
