(* The out-of-core columnar store: segment round-trips through the mmap
   reader, store spill/sync, zone-map pruning (results invariant, only
   counters move), corruption detection, Table_io format versioning, and
   end-to-end differentials — spilled grounding and spilled MPP shards
   must be bit-identical to the fully in-memory runs. *)

module Table = Relational.Table
module Table_io = Relational.Table_io
module Segsrc = Relational.Segsrc
module Colstats = Relational.Colstats
module Plan = Relational.Plan
module Segment = Storage.Segment
module Store = Storage.Store
module Spill = Storage.Spill
module Obs = Probkb.Obs
module Summary = Obs.Summary

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- scratch directories --- *)

let tmp_counter = ref 0

let fresh_tmp prefix =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "probkb-%s-%d-%d" prefix (Unix.getpid ()) !tmp_counter)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_tmpdir f =
  let dir = fresh_tmp "store" in
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

(* Bit-exact comparison: same rows in the same order with the same
   weights (NaN null weights compare equal under [compare]). *)
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

(* Random tables exercising every lane encoding: tiny domains (dict),
   dense ranges (FOR), negatives and near-max_int values (8-byte codes,
   frame-of-reference wraparound), and NaN null weights. *)
let random_table ?(weighted = true) rng n width =
  let t =
    Table.create ~weighted ~name:"t"
      (Array.init width (Printf.sprintf "c%d"))
  in
  let cell () =
    match Random.State.int rng 6 with
    | 0 -> Random.State.int rng 4
    | 1 -> Random.State.int rng 100_000
    | 2 -> -Random.State.int rng 100_000 - 1
    | 3 -> max_int - Random.State.int rng 1_000
    | 4 -> min_int + Random.State.int rng 1_000
    | _ -> 0
  in
  let buf = Array.make width 0 in
  for _ = 1 to n do
    for c = 0 to width - 1 do
      buf.(c) <- cell ()
    done;
    if weighted then
      Table.append_w t buf
        (if Random.State.int rng 4 = 0 then Table.null_weight
         else Random.State.float rng 1.)
    else Table.append t buf
  done;
  t

(* --- segments --- *)

let test_segment_roundtrip () =
  let rng = Tutil.rng 7 in
  with_tmpdir (fun dir ->
      List.iter
        (fun (n, width, weighted) ->
          let t = random_table ~weighted rng n width in
          let path = Filename.concat dir "seg.pkb" in
          Segment.write ~path t ~lo:0 ~hi:n;
          let s = Segment.openf path in
          check_int "rows" n (Segment.rows s);
          check_int "width" width (Segment.width s);
          check_bool "weighted" weighted (Segment.weighted s);
          for r = 0 to n - 1 do
            for c = 0 to width - 1 do
              check_int "cell" (Table.get t r c) (Segment.get s r c)
            done;
            if weighted then
              check_bool "weight" true
                (compare (Table.weight t r) (Segment.weight s r) = 0)
          done;
          (* Zone maps decode to the true column ranges. *)
          for c = 0 to width - 1 do
            let lo = ref max_int and hi = ref min_int in
            for r = 0 to n - 1 do
              lo := min !lo (Table.get t r c);
              hi := max !hi (Table.get t r c)
            done;
            check_int "min" !lo (Segment.mins s).(c);
            check_int "max" !hi (Segment.maxs s).(c)
          done;
          Sys.remove path)
        [ (1, 1, false); (200, 3, true); (500, 2, false); (64, 4, true) ])

let test_segment_ndv_exact () =
  with_tmpdir (fun dir ->
      let t = Table.create ~name:"t" [| "a"; "b" |] in
      for i = 0 to 99 do
        Table.append t [| i mod 7; i |]
      done;
      let path = Filename.concat dir "seg.pkb" in
      Segment.write ~path t ~lo:0 ~hi:100;
      let s = Segment.openf path in
      check_int "ndv col 0" 7 (Segment.ndv s).(0);
      check_int "ndv col 1" 100 (Segment.ndv s).(1))

let corrupt_file path f =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let bytes = really_input_string ic len in
  close_in ic;
  let bytes = f (Bytes.of_string bytes) in
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc

let expect_corrupt name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Corrupt" name
  | exception Segment.Corrupt _ -> ()

let test_segment_corruption_detected () =
  let rng = Tutil.rng 11 in
  with_tmpdir (fun dir ->
      let t = random_table rng 300 3 in
      let path = Filename.concat dir "seg.pkb" in
      let fresh () =
        Segment.write ~path t ~lo:0 ~hi:300;
        path
      in
      (* A flipped byte inside the checksummed header region. *)
      corrupt_file (fresh ()) (fun b ->
          Bytes.set b 40 (Char.chr (Char.code (Bytes.get b 40) lxor 0xff));
          b);
      expect_corrupt "torn header" (fun () -> Segment.openf path);
      (* Truncation: the header's file length no longer matches. *)
      corrupt_file (fresh ()) (fun b -> Bytes.sub b 0 (Bytes.length b - 16));
      expect_corrupt "truncated" (fun () -> Segment.openf path);
      (* Bad magic. *)
      corrupt_file (fresh ()) (fun b ->
          Bytes.blit_string "not a seg" 0 b 0 8;
          b);
      expect_corrupt "bad magic" (fun () -> Segment.openf path))

(* --- stores --- *)

let test_store_roundtrip () =
  let rng = Tutil.rng 23 in
  List.iter
    (fun (n, weighted) ->
      with_tmpdir (fun dir ->
          let t = random_table ~weighted rng n 3 in
          let st = Store.spill ~segment_rows:64 ~dir t in
          check_int "stored rows" n (Store.rows st);
          check_bool "round-trip" true (tables_identical t (Store.to_table st));
          (* Reopen from the manifest alone. *)
          let st2 = Store.open_dir dir in
          check_int "reopened rows" n (Store.rows st2);
          check_int "reopened segments" (Store.nsegments st) (Store.nsegments st2);
          check_bool "reopened round-trip" true
            (tables_identical t (Store.to_table st2))))
    [ (0, true); (63, false); (64, true); (777, true) ]

let test_store_stats_persisted () =
  with_tmpdir (fun dir ->
      let t = Table.create ~name:"t" [| "a"; "b" |] in
      for i = 0 to 499 do
        Table.append t [| i; 1000 - i |]
      done;
      let st = Store.open_dir (Store.dir (Store.spill ~segment_rows:100 ~dir t)) in
      let stats = Store.stats st in
      Alcotest.(check (option int)) "min a" (Some 0) (Colstats.min_value stats 0);
      Alcotest.(check (option int)) "max a" (Some 499) (Colstats.max_value stats 0);
      Alcotest.(check (option int)) "min b" (Some 501) (Colstats.min_value stats 1);
      Alcotest.(check (option int)) "max b" (Some 1000) (Colstats.max_value stats 1))

let test_store_sync_and_tail () =
  let rng = Tutil.rng 31 in
  with_tmpdir (fun dir ->
      let t = random_table rng 150 3 in
      (* Whole segments only: 150 rows at 64/segment stores 128. *)
      let st = Store.spill ~segment_rows:64 ~tail:false ~dir t in
      check_int "whole segments stored" 128 (Store.rows st);
      check_bool "prefix + tail ≡ table" true
        (tables_identical t (Segsrc.to_table (Store.source ~tail:t st)));
      (* Grow, sync, check again. *)
      let grow t n =
        let rng = Tutil.rng 37 in
        let extra = random_table rng n 3 in
        Table.iter (fun r -> Table.append_w t (Table.row extra r) (Table.weight extra r)) extra
      in
      grow t 200;
      let st = Store.sync st t in
      check_int "synced whole segments" 320 (Store.rows st);
      check_bool "synced prefix + tail ≡ table" true
        (tables_identical t (Segsrc.to_table (Store.source ~tail:t st)));
      (* Manifest survives reopen after sync. *)
      check_bool "reopen after sync" true
        (tables_identical t
           (Segsrc.to_table (Store.source ~tail:t (Store.open_dir dir)))))

let test_store_manifest_corruption () =
  with_tmpdir (fun dir ->
      let t = Table.create ~name:"t" [| "a" |] in
      Table.append t [| 1 |];
      ignore (Store.spill ~segment_rows:64 ~dir t);
      let manifest = Filename.concat dir "MANIFEST" in
      let oc = open_out manifest in
      output_string oc "pkbstore 99\n";
      close_out oc;
      match Store.open_dir dir with
      | _ -> Alcotest.fail "expected Corrupt on manifest version"
      | exception Store.Corrupt _ -> ())

(* --- segmented scans through the plan executor --- *)

let with_pools f =
  let p1 = Pool.create 1 and p4 = Pool.create 4 in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown p1;
      Pool.shutdown p4)
    (fun () -> f p1 p4)

let gen_pred rng width =
  let rec go depth =
    let c = Random.State.int rng width in
    match if depth > 1 then 2 else Random.State.int rng 6 with
    | 0 -> Plan.And (go (depth + 1), go (depth + 1))
    | 1 -> Plan.Or (go (depth + 1), go (depth + 1))
    | 2 | 3 -> Plan.Lt_const (c, Random.State.int rng 40)
    | 4 -> Plan.Not (go (depth + 1))
    | _ -> Plan.Eq_const (c, Random.State.int rng 15)
  in
  go 0

(* Small-domain tables so selections and joins actually hit. *)
let plan_table rng n width kmax =
  let t =
    Table.create ~weighted:(Random.State.bool rng) ~name:"t"
      (Array.init width (Printf.sprintf "c%d"))
  in
  let buf = Array.make width 0 in
  for _ = 1 to n do
    for c = 0 to width - 1 do
      buf.(c) <- Random.State.int rng kmax
    done;
    if Table.weighted t then Table.append_w t buf (Random.State.float rng 1.)
    else Table.append t buf
  done;
  t

let test_spilled_scan_differential () =
  let rng = Tutil.rng 101 in
  with_pools (fun p1 p4 ->
      for _ = 1 to 25 do
        with_tmpdir (fun dir ->
            let n = Random.State.int rng 900 in
            let width = 1 + Random.State.int rng 3 in
            let tbl = plan_table rng n width 50 in
            let st = Store.spill ~segment_rows:64 ~dir tbl in
            let src = Store.source st in
            let pred = gen_pred rng width in
            let mem = Plan.Select (pred, Plan.Scan tbl) in
            let spl = Plan.Select (pred, Plan.Scan_segments src) in
            let expected = Plan.run_materializing mem in
            List.iter
              (fun pool ->
                check_bool "spilled select ≡ in-memory" true
                  (tables_identical expected (Plan.run ~pool spl));
                (* Join with the spilled source on the probe side. *)
                let probe =
                  Plan.Equi_join
                    {
                      left = Plan.Scan tbl;
                      right = Plan.Scan_segments src;
                      lkey = [| 0 |];
                      rkey = [| 0 |];
                    }
                in
                let probe_mem =
                  Plan.Equi_join
                    {
                      left = Plan.Scan tbl;
                      right = Plan.Scan tbl;
                      lkey = [| 0 |];
                      rkey = [| 0 |];
                    }
                in
                check_bool "spilled probe join ≡ in-memory" true
                  (tables_identical
                     (Plan.run_materializing probe_mem)
                     (Plan.run ~pool probe)))
              [ p1; p4 ])
      done)

let test_pruning_invariant_and_counted () =
  with_tmpdir (fun dir ->
      (* Ascending key column → disjoint per-segment zone maps. *)
      let t = Table.create ~name:"t" [| "k"; "v" |] in
      for i = 0 to 999 do
        Table.append t [| i; i mod 17 |]
      done;
      let st = Store.spill ~segment_rows:64 ~dir t in
      let run plan =
        let obs = Obs.create ~config:Obs.Config.enabled () in
        let out = Obs.with_ambient obs (fun () -> Plan.run plan) in
        (out, Summary.of_trace obs)
      in
      (* 16 segments of 64 keys: k = 321 and k = 700 each fall in one
         segment, k < 100 in the first two. *)
      check_int "segments" 16 (Store.nsegments st);
      List.iter
        (fun (name, pred, skipped) ->
          let spilled, s =
            run (Plan.Select (pred, Plan.Scan_segments (Store.source st)))
          in
          let expected = Plan.run_materializing (Plan.Select (pred, Plan.Scan t)) in
          check_bool (name ^ ": pruning never changes results") true
            (tables_identical expected spilled);
          check_int (name ^ ": segments skipped") skipped
            (Summary.counter s "storage.segments_skipped");
          check_int
            (name ^ ": scanned + skipped = segments")
            (Store.nsegments st)
            (Summary.counter s "storage.segments_scanned"
            + Summary.counter s "storage.segments_skipped"))
        [
          ("eq", Plan.Eq_const (0, 321), 15);
          ("lt", Plan.Lt_const (0, 100), 14);
          ("conj", Plan.And (Plan.Eq_const (0, 700), Plan.Lt_const (1, 40)), 15);
        ];
      (* An unprunable predicate scans everything. *)
      let _, s =
        run
          (Plan.Select (Plan.Lt_const (1, 40), Plan.Scan_segments (Store.source st)))
      in
      check_int "unprunable: nothing skipped" 0
        (Summary.counter s "storage.segments_skipped"))

(* --- Table_io format versioning --- *)

let test_table_io_version_roundtrip =
  Tutil.qcheck_case "Table_io round-trip at the current format version"
    QCheck.(list (pair (pair small_int small_int) (option (float_bound_inclusive 1.0))))
    (fun rows ->
      let weighted = List.exists (fun (_, w) -> w <> None) rows in
      let t = Table.create ~weighted ~name:"t" [| "a"; "b" |] in
      List.iter
        (fun ((a, b), w) ->
          if weighted then
            Table.append_w t [| a; b |]
              (match w with Some w -> w | None -> Table.null_weight)
          else Table.append t [| a; b |])
        rows;
      let path = fresh_tmp "tio" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          Table_io.to_file t path;
          tables_identical t (Table_io.of_file path)))

let test_table_io_rejects_other_versions () =
  let reject name content =
    let path = fresh_tmp "tio" in
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        match Table_io.of_file path with
        | _ -> Alcotest.failf "%s: expected Parse_error" name
        | exception Table_io.Parse_error _ -> ())
  in
  reject "unversioned v1 header" "#table t a b\n0\t1\n";
  reject "future version" "#table:99 t a b\n0\t1\n";
  reject "not a table file" "hello\n"

(* --- spilled grounding differentials --- *)

let spilled_policy dir = Spill.create ~segment_rows:128 ~threshold_bytes:0 ~root:dir ()

let workload_kb seed =
  Workload.Reverb_sherlock.kb
    (Workload.Reverb_sherlock.generate
       { Workload.Reverb_sherlock.default_config with scale = 0.008; seed })

let test_ground_spilled_differential () =
  List.iter
    (fun seed ->
      let kb = workload_kb seed in
      let kb1 = Tutil.copy_gamma kb in
      let r1 = Grounding.Ground.run kb1 in
      with_tmpdir (fun dir ->
          let kb2 = Tutil.copy_gamma kb in
          let r2 =
            Grounding.Ground.run
              ~options:
                {
                  Grounding.Ground.default_options with
                  spill = Some (spilled_policy dir);
                }
              kb2
          in
          check_bool "a store was written" true
            (Array.length (Sys.readdir dir) > 0);
          Alcotest.(check (list string))
            "same facts"
            (Tutil.fact_strings kb1) (Tutil.fact_strings kb2);
          check_int "same factor count"
            (Factor_graph.Fgraph.size r1.Grounding.Ground.graph)
            (Factor_graph.Fgraph.size r2.Grounding.Ground.graph);
          check_int "same iterations" r1.Grounding.Ground.iterations
            r2.Grounding.Ground.iterations;
          (* Column compression pays on the grounded TΠ. *)
          let tpi = Kb.Storage.table (Kb.Gamma.pi kb1) in
          let st = Store.spill ~dir:(Filename.concat dir "tpi") tpi in
          check_int "every row stored" (Table.nrows tpi) (Store.rows st);
          check_bool "smaller on disk than in memory" true
            (Store.byte_size st < Table.byte_size tpi)))
    [ 1; 2 ]

let test_mpp_spilled_differential () =
  let cluster = { Mpp.Cluster.default with Mpp.Cluster.nseg = 4 } in
  let kb = workload_kb 3 in
  let kb1 = Tutil.copy_gamma kb in
  let r1 = Grounding.Ground.run kb1 in
  with_tmpdir (fun dir ->
      let kb2 = Tutil.copy_gamma kb in
      let r2 =
        Grounding.Ground_mpp.run
          ~options:
            {
              Grounding.Ground_mpp.default_options with
              spill = Some (spilled_policy dir);
            }
          ~mode:Grounding.Ground_mpp.No_views cluster kb2
      in
      check_bool "shards were written" true (Array.length (Sys.readdir dir) > 0);
      Alcotest.(check (list string))
        "same facts"
        (Tutil.fact_strings kb1) (Tutil.fact_strings kb2);
      check_int "same factor count"
        (Factor_graph.Fgraph.size r1.Grounding.Ground.graph)
        (Factor_graph.Fgraph.size r2.Grounding.Ground_mpp.graph))

let test_dtable_spilled_shards () =
  let cluster = { Mpp.Cluster.default with Mpp.Cluster.nseg = 4 } in
  let rng = Tutil.rng 41 in
  with_tmpdir (fun dir ->
      let t = plan_table rng 500 3 40 in
      let policy = Spill.create ~segment_rows:64 ~threshold_bytes:0 ~root:dir () in
      let resident = Mpp.Dtable.partition cluster t (Mpp.Dtable.Hash [| 0 |]) in
      let spilled =
        Mpp.Dtable.partition_spilled policy ~prefix:"t" cluster t
          (Mpp.Dtable.Hash [| 0 |])
      in
      check_int "same logical rows" (Mpp.Dtable.nrows resident)
        (Mpp.Dtable.nrows spilled);
      check_int "logical byte size is the resident size"
        (Mpp.Dtable.byte_size resident)
        (Mpp.Dtable.byte_size spilled);
      for i = 0 to Mpp.Dtable.nseg spilled - 1 do
        check_bool "shard is disk-backed" true (Mpp.Dtable.spilled spilled i);
        check_int "seg_rows without materializing"
          (Table.nrows (Mpp.Dtable.seg resident i))
          (Mpp.Dtable.seg_rows spilled i);
        check_bool "shard round-trip" true
          (tables_identical (Mpp.Dtable.seg resident i) (Mpp.Dtable.seg spilled i))
      done)

let test_engine_spill_config () =
  let kb = workload_kb 4 in
  let kb1 = Tutil.copy_gamma kb in
  let e1 =
    Probkb.Engine.expand
      (Probkb.Engine.create ~config:(Probkb.Config.make ~inference:None ()) kb1)
  in
  with_tmpdir (fun dir ->
      let kb2 = Tutil.copy_gamma kb in
      let config =
        Probkb.Config.make ~inference:None ~spill_dir:dir
          ~spill_threshold_bytes:0 ~segment_rows:128 ()
      in
      let e2 = Probkb.Engine.expand (Probkb.Engine.create ~config kb2) in
      Alcotest.(check (list string))
        "same facts through the engine"
        (Tutil.fact_strings kb1) (Tutil.fact_strings kb2);
      check_int "same factors" e1.Probkb.Engine.n_factors
        e2.Probkb.Engine.n_factors);
  (* Knob validation. *)
  (match Probkb.Config.make ~segment_rows:0 () with
  | _ -> Alcotest.fail "segment_rows 0 accepted"
  | exception Invalid_argument _ -> ());
  match Probkb.Config.with_spill ~spill_threshold_bytes:(-1) Probkb.Config.default with
  | _ -> Alcotest.fail "negative threshold accepted"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "storage"
    [
      ( "segment",
        [
          Alcotest.test_case "round-trip" `Quick test_segment_roundtrip;
          Alcotest.test_case "ndv" `Quick test_segment_ndv_exact;
          Alcotest.test_case "corruption" `Quick test_segment_corruption_detected;
        ] );
      ( "store",
        [
          Alcotest.test_case "round-trip" `Quick test_store_roundtrip;
          Alcotest.test_case "stats persisted" `Quick test_store_stats_persisted;
          Alcotest.test_case "sync + tail" `Quick test_store_sync_and_tail;
          Alcotest.test_case "manifest corruption" `Quick
            test_store_manifest_corruption;
        ] );
      ( "plan",
        [
          Alcotest.test_case "spilled scan differential" `Quick
            test_spilled_scan_differential;
          Alcotest.test_case "zone-map pruning" `Quick
            test_pruning_invariant_and_counted;
        ] );
      ( "table_io",
        [
          test_table_io_version_roundtrip;
          Alcotest.test_case "version rejection" `Quick
            test_table_io_rejects_other_versions;
        ] );
      ( "grounding",
        [
          Alcotest.test_case "spilled ≡ in-memory" `Quick
            test_ground_spilled_differential;
          Alcotest.test_case "mpp spilled shards ≡ in-memory" `Quick
            test_mpp_spilled_differential;
          Alcotest.test_case "dtable spilled shards" `Quick
            test_dtable_spilled_shards;
          Alcotest.test_case "engine spill config" `Quick
            test_engine_spill_config;
        ] );
    ]
