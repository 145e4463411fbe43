(* The out-of-core columnar store: segment round-trips through the mmap
   reader, store spill/append, corruption detection, and end-to-end
   differentials — spilled scans and joins and spilled MPP shards must
   be bit-identical to the fully in-memory runs, and only the pn MPP
   executor spills. *)

module Table = Relational.Table
module Segsrc = Relational.Segsrc
module Plan = Relational.Plan
module Pipeline = Relational.Pipeline
module Sink = Relational.Sink
module Join = Relational.Join
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

let with_tmpdir f =
  let dir = fresh_tmp "store" in
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then Tutil.rm_rf dir)
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

(* A ReVerb-Sherlock KB at scale 0.008. *)
let workload_kb seed =
  Workload.Reverb_sherlock.kb
    (Workload.Reverb_sherlock.generate
       { Workload.Reverb_sherlock.default_config with scale = 0.008; seed })

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
          Sys.remove path)
        [ (1, 1, false); (200, 3, true); (500, 2, false); (64, 4, true) ])

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

(* A spill writes its partial last segment too, and an append writes
   more rows as the segments after it. *)
let test_store_spill_tail_append () =
  let rng = Tutil.rng 31 in
  with_tmpdir (fun dir ->
      let t = random_table rng 150 3 in
      (* 150 rows at 64/segment: two whole segments and a 22-row tail. *)
      let st = Store.spill ~segment_rows:64 ~dir t in
      check_int "tail segment stored" 3 (Store.nsegments st);
      check_bool "spilled ≡ table" true
        (tables_identical t (Segsrc.to_table (Store.source st)));
      (* Append 200 more rows, check again. *)
      let extra = random_table (Tutil.rng 37) 200 3 in
      let st = Store.append st extra in
      Table.iter
        (fun r -> Table.append_w t (Table.row extra r) (Table.weight extra r))
        extra;
      check_int "appended rows stored" 350 (Store.rows st);
      check_bool "appended store ≡ table" true
        (tables_identical t (Segsrc.to_table (Store.source st)));
      (* Manifest survives reopen after append. *)
      check_bool "reopen after append" true
        (tables_identical t (Segsrc.to_table (Store.source (Store.open_dir dir)))))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* A damaged MANIFEST — a version, a negative count, a segment file the
   directory lacks — ends in [Corrupt], whether opening or reading. *)
let test_store_manifest_corruption () =
  with_tmpdir (fun dir ->
      let t = random_table (Tutil.rng 43) 200 3 in
      let manifest = Filename.concat dir "MANIFEST" in
      let edit_lines f text =
        String.concat "\n" (List.map f (String.split_on_char '\n' text))
      in
      let replace a b = edit_lines (fun l -> if l = a then b else l) in
      List.iter
        (fun (name, edit) ->
          ignore (Store.spill ~segment_rows:64 ~dir t);
          write_file manifest (edit (read_file manifest));
          expect_corrupt name (fun () -> Store.to_table (Store.open_dir dir)))
        [
          ("manifest version", fun _ -> "pkbstore 99\n");
          ("negative width", replace "width 3" "width -3");
          ("negative segment count", replace "segments 4" "segments -4");
          ( "missing segment file",
            replace "seg seg-000001.pkb 64" "seg seg-000009.pkb 64" );
        ])

(* Segments in another order than they were written end in [Corrupt]:
   each records its first row within the store.  Two [seg] lines of
   equal row counts swapped in the MANIFEST fail [open_dir]; two segment
   files swapped under an open store fail [source]. *)
let test_store_segments_out_of_order () =
  with_tmpdir (fun dir ->
      let t = random_table (Tutil.rng 47) 256 3 in
      let manifest = Filename.concat dir "MANIFEST" in
      let st = Store.spill ~segment_rows:64 ~dir t in
      let line i = Printf.sprintf "seg seg-%06d.pkb 64" i in
      let swapped =
        String.concat "\n"
          (List.map
             (fun l ->
               if l = line 1 then line 2 else if l = line 2 then line 1 else l)
             (String.split_on_char '\n' (read_file manifest)))
      in
      write_file manifest swapped;
      expect_corrupt "seg lines swapped" (fun () ->
          Store.to_table (Store.open_dir dir));
      let seg i = Filename.concat dir (Printf.sprintf "seg-%06d.pkb" i) in
      Sys.rename (seg 1) (seg 9);
      Sys.rename (seg 2) (seg 1);
      Sys.rename (seg 9) (seg 2);
      expect_corrupt "segment files swapped" (fun () -> Store.source st))

(* Any 1–3-byte edit of a spilled store's MANIFEST — a byte replaced,
   inserted or deleted — raises [Corrupt] or opens a store that reads
   exactly the spilled rows; no other exception escapes. *)
let prop_manifest_fuzz =
  Tutil.qcheck_case ~count:400 "manifest byte-fuzz: Corrupt or a store"
    QCheck.(
      pair small_nat
        (list_of_size (Gen.int_range 1 3) (triple small_nat int char)))
    (fun (seed, edits) ->
      with_tmpdir (fun dir ->
          let t = random_table (Tutil.rng (seed + 1)) 200 2 in
          ignore (Store.spill ~segment_rows:64 ~dir t);
          let manifest = Filename.concat dir "MANIFEST" in
          let text =
            List.fold_left
              (fun text (op, pos, c) ->
                let n = String.length text in
                let at = abs pos mod (n + 1) in
                match op mod 3 with
                | 0 when at < n ->
                  String.mapi (fun i x -> if i = at then c else x) text
                | 1 ->
                  String.sub text 0 at ^ String.make 1 c
                  ^ String.sub text at (n - at)
                | _ when at < n ->
                  String.sub text 0 at ^ String.sub text (at + 1) (n - at - 1)
                | _ -> text)
              (read_file manifest) edits
          in
          write_file manifest text;
          match Store.to_table (Store.open_dir dir) with
          | read -> tables_identical t read
          | exception Store.Corrupt _ -> true))

(* Any 1–3-byte edit inside the header of one of a store's spilled
   segments — a byte replaced, inserted or deleted — raises
   [Segment.Corrupt] from [Segment.openf] or opens a segment that reads
   exactly the rows written there; no other exception escapes.  Edits
   land in the header as it stands after the previous edits. *)
let prop_segment_header_fuzz =
  Tutil.qcheck_case ~count:400 "segment header byte-fuzz: Corrupt or the rows"
    QCheck.(
      pair small_nat
        (list_of_size (Gen.int_range 1 3) (triple small_nat int char)))
    (fun (seed, edits) ->
      with_tmpdir (fun dir ->
          let rng = Tutil.rng (seed + 1) in
          let weighted = Random.State.bool rng in
          let t =
            random_table ~weighted rng 200 (1 + Random.State.int rng 3)
          in
          ignore (Store.spill ~segment_rows:64 ~dir t);
          let segs =
            List.sort compare
              (List.filter
                 (String.starts_with ~prefix:"seg-")
                 (Array.to_list (Sys.readdir dir)))
          in
          let path =
            Filename.concat dir (List.nth segs (seed mod List.length segs))
          in
          let s = Segment.openf path in
          let first = Segment.first_row s and rows = Segment.rows s in
          let hlen = 72 + (40 * Table.width t) in
          let text, _ =
            List.fold_left
              (fun (text, hlen) (op, pos, c) ->
                let n = String.length text in
                match op mod 3 with
                | 0 ->
                  let at = abs pos mod hlen in
                  (String.mapi (fun i x -> if i = at then c else x) text, hlen)
                | 1 ->
                  let at = abs pos mod (hlen + 1) in
                  ( String.sub text 0 at ^ String.make 1 c
                    ^ String.sub text at (n - at),
                    hlen + 1 )
                | _ ->
                  let at = abs pos mod hlen in
                  ( String.sub text 0 at
                    ^ String.sub text (at + 1) (n - at - 1),
                    hlen - 1 ))
              (read_file path, hlen) edits
          in
          write_file path text;
          match Segment.openf path with
          | s ->
            Segment.first_row s = first
            && Segment.rows s = rows
            && Segment.width s = Table.width t
            && Segment.weighted s = weighted
            &&
            let ok = ref true in
            for r = 0 to rows - 1 do
              for c = 0 to Table.width t - 1 do
                if Segment.get s r c <> Table.get t (first + r) c then
                  ok := false
              done;
              if
                weighted
                && compare (Segment.weight s r) (Table.weight t (first + r))
                   <> 0
              then ok := false
            done;
            !ok
          | exception Segment.Corrupt _ -> true))

(* Column compression pays on a grounded TΠ. *)
let test_store_grounded_pi_smaller () =
  List.iter
    (fun seed ->
      let kb = workload_kb seed in
      ignore (Grounding.Ground.run kb);
      let tpi = Kb.Storage.table (Kb.Gamma.pi kb) in
      with_tmpdir (fun dir ->
          let st = Store.spill ~dir tpi in
          check_int "every row stored" (Table.nrows tpi) (Store.rows st);
          check_bool "smaller on disk than in memory" true
            (Store.byte_size st < Table.byte_size tpi)))
    [ 1; 2 ]

(* --- segmented scans through the pipelines --- *)

(* Small-domain tables so joins actually hit. *)
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

(* A spilled table of 2,100–4,000 rows streams through a pipeline as its
   resident copy does: its scan reads every segment and is the table
   itself, and a join probing its segments is the plan that joins the
   resident table with itself, bit for bit. *)
let test_spilled_scan_differential () =
  let rng = Tutil.rng 101 in
  for _ = 1 to 25 do
    with_tmpdir (fun dir ->
        let n = 2100 + Random.State.int rng 1900 in
        let width = 1 + Random.State.int rng 3 in
        let tbl = plan_table rng n width 500 in
        let st = Store.spill ~segment_rows:64 ~dir tbl in
        let src = Pipeline.Segments (Store.source st) in
        let sink =
          Sink.create ~weighted:(Table.weighted tbl) ~name:"scan"
            (Table.cols tbl)
        in
        let obs = Obs.create ~config:Obs.Config.enabled () in
        Obs.with_ambient obs (fun () ->
            ignore (Pipeline.run ~source:src (Pipeline.into_sink sink)));
        check_bool "spilled scan ≡ in-memory" true
          (tables_identical tbl (Sink.table sink));
        check_int "every segment scanned" (Store.nsegments st)
          (Summary.counter (Summary.of_trace obs) "storage.segments_scanned");
        (* Join with the spilled source on the probe side. *)
        let plan =
          Plan.Equi_join
            {
              left = Plan.Scan tbl;
              right = Plan.Scan tbl;
              lkey = [| 0 |];
              rkey = [| 0 |];
            }
        in
        let side s = Array.init width (fun c -> Join.Col (s, c)) in
        let probe =
          Join.hash_join_pre ~name:"join" ~cols:(Plan.columns plan)
            ~out:(Array.append (side Join.Build) (side Join.Probe))
            ~oweight:Join.No_weight
            (Join.build tbl [| 0 |])
            (src, [| 0 |])
        in
        check_bool "spilled probe join ≡ in-memory" true
          (tables_identical (Plan_oracle.run plan) probe))
  done

(* --- spilled grounding differentials --- *)

let spilled_policy dir = Spill.create ~segment_rows:128 ~threshold_bytes:0 ~root:dir ()

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
      done;
      (* A distribution of the first 300 rows, appended the other 200
         (one more segment per spilled shard), equals the partition of
         all 500, resident or spilled. *)
      let prefix = Table.sub t (Array.init 300 Fun.id) in
      let grown_resident =
        Mpp.Dtable.partition cluster prefix (Mpp.Dtable.Hash [| 0 |])
      in
      let grown_spilled =
        Mpp.Dtable.partition_spilled policy ~prefix:"g" cluster prefix
          (Mpp.Dtable.Hash [| 0 |])
      in
      Mpp.Dtable.append grown_resident t ~from:300;
      Mpp.Dtable.append grown_spilled t ~from:300;
      for i = 0 to Mpp.Dtable.nseg resident - 1 do
        check_bool "appended resident shard" true
          (tables_identical (Mpp.Dtable.seg resident i)
             (Mpp.Dtable.seg grown_resident i));
        check_bool "appended spilled shard" true
          (tables_identical (Mpp.Dtable.seg resident i)
             (Mpp.Dtable.seg grown_spilled i));
        check_bool "appended shard stays on disk" true
          (Mpp.Dtable.spilled grown_spilled i)
      done)

(* The engine spills through [Config.spill_policy] on the pn MPP route
   only: with the spill knobs set, that run grounds what the in-memory
   run grounds and leaves one [pn-*] store per shard under the spill
   root, while the single node and views mode, which never spill, leave
   the root empty. *)
let test_engine_spill_config () =
  let kb = workload_kb 4 in
  let expand config kb =
    Probkb.Engine.expand (Probkb.Engine.create ~config kb)
  in
  let kb1 = Tutil.copy_gamma kb in
  let e1 = expand (Probkb.Config.make ~inference:None ()) kb1 in
  let cluster = { Mpp.Cluster.default with Mpp.Cluster.nseg = 4 } in
  List.iter
    (fun (route, engine, stores) ->
      with_tmpdir (fun dir ->
          let kb2 = Tutil.copy_gamma kb in
          let config =
            Probkb.Config.make ~engine ~inference:None ~spill_dir:dir
              ~spill_threshold_bytes:0 ~segment_rows:128 ()
          in
          let e2 = expand config kb2 in
          Alcotest.(check (list string))
            (route ^ ": same facts through the engine")
            (Tutil.fact_strings kb1) (Tutil.fact_strings kb2);
          check_int (route ^ ": same factors") e1.Probkb.Engine.n_factors
            e2.Probkb.Engine.n_factors;
          let left = Array.to_list (Sys.readdir dir) in
          check_int (route ^ ": stores left") stores (List.length left);
          check_bool (route ^ ": every store a pn shard") true
            (List.for_all (String.starts_with ~prefix:"pn-") left)))
    [
      ( "pn",
        Probkb.Config.Mpp { cluster; views = false },
        cluster.Mpp.Cluster.nseg );
      ("single node", Probkb.Config.Single_node, 0);
      ("views", Probkb.Config.Mpp { cluster; views = true }, 0);
    ];
  (* Knob validation. *)
  (match Probkb.Config.make ~segment_rows:0 () with
  | _ -> Alcotest.fail "segment_rows 0 accepted"
  | exception Invalid_argument _ -> ());
  match Probkb.Config.make ~spill_threshold_bytes:(-1) () with
  | _ -> Alcotest.fail "negative threshold accepted"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "storage"
    [
      ( "segment",
        [
          Alcotest.test_case "round-trip" `Quick test_segment_roundtrip;
          Alcotest.test_case "corruption" `Quick test_segment_corruption_detected;
        ] );
      ( "store",
        [
          Alcotest.test_case "round-trip" `Quick test_store_roundtrip;
          Alcotest.test_case "spill + tail, append" `Quick
            test_store_spill_tail_append;
          Alcotest.test_case "manifest corruption" `Quick
            test_store_manifest_corruption;
          Alcotest.test_case "segments out of order" `Quick
            test_store_segments_out_of_order;
          prop_manifest_fuzz;
          prop_segment_header_fuzz;
          Alcotest.test_case "grounded TΠ smaller on disk" `Quick
            test_store_grounded_pi_smaller;
        ] );
      ( "plan",
        [
          Alcotest.test_case "spilled scan differential" `Quick
            test_spilled_scan_differential;
        ] );
      ( "grounding",
        [
          Alcotest.test_case "mpp spilled shards ≡ in-memory" `Quick
            test_mpp_spilled_differential;
          Alcotest.test_case "dtable spilled shards" `Quick
            test_dtable_spilled_shards;
          Alcotest.test_case "engine spill config" `Quick
            test_engine_spill_config;
        ] );
    ]
