module Table = Relational.Table
module Dtable = Mpp.Dtable
module Motion = Mpp.Motion
module Cost = Mpp.Cost
module Cluster = Mpp.Cluster
module Join = Relational.Join

let check_int = Alcotest.(check int)
let cluster = { Cluster.default with Cluster.nseg = 8 }

let random_table seed n kmax =
  let rng = Tutil.rng seed in
  let t = Table.create ~weighted:true ~name:"t" [| "k"; "v" |] in
  for _ = 1 to n do
    Table.append_w t
      [| Random.State.int rng kmax; Random.State.int rng 100 |]
      (Random.State.float rng 1.)
  done;
  t

(* --- dtable --- *)

let test_partition_gather_roundtrip =
  Tutil.qcheck_case "hash partition + gather preserves rows"
    QCheck.(list (pair (int_bound 50) (int_bound 50)))
    (fun rows ->
      let t = Table.create ~name:"t" [| "k"; "v" |] in
      List.iter (fun (k, v) -> Table.append t [| k; v |]) rows;
      let dt = Dtable.partition cluster t (Dtable.Hash [| 0 |]) in
      Tutil.table_rows_equal t (Dtable.gather dt))

let test_hash_partition_collocates () =
  let t = random_table 3 2000 40 in
  let dt = Dtable.partition cluster t (Dtable.Hash [| 0 |]) in
  (* All rows with equal key live on the same segment. *)
  let home = Hashtbl.create 64 in
  for s = 0 to Dtable.nseg dt - 1 do
    let seg = Dtable.seg dt s in
    Table.iter
      (fun r ->
        let k = Table.get seg r 0 in
        match Hashtbl.find_opt home k with
        | None -> Hashtbl.replace home k s
        | Some s' -> if s <> s' then Alcotest.failf "key %d on segments %d, %d" k s s')
      seg
  done

let test_replicated () =
  let t = random_table 4 100 10 in
  let dt = Dtable.partition cluster t Dtable.Replicated in
  check_int "logical rows" 100 (Dtable.nrows dt);
  for s = 0 to Dtable.nseg dt - 1 do
    check_int "full copy per segment" 100 (Table.nrows (Dtable.seg dt s));
    Alcotest.(check bool) "one table, held once" true (Dtable.seg dt s == t)
  done

let test_partition_rejects_unknown () =
  let t = random_table 5 10 5 in
  match Dtable.partition cluster t Dtable.Unknown with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- motions --- *)

let test_redistribute_preserves_and_charges () =
  let t = random_table 6 3000 100 in
  let cost = Cost.create () in
  let dt = Dtable.partition cluster t (Dtable.Hash [| 0 |]) in
  let dt2 = Motion.redistribute cluster cost dt [| 1 |] in
  Alcotest.(check bool) "rows preserved" true
    (Tutil.table_rows_equal t (Dtable.gather dt2));
  Alcotest.(check bool) "motion charged" true (Cost.motion_bytes cost > 0);
  Alcotest.(check bool) "time charged" true (Cost.elapsed cost > 0.)

(* A spilled shard's schema comes from its metadata, its rows from one
   decode: redistributing a spilled table equals redistributing its
   resident twin — shard names, columns, rows in order, weight bits and
   cost entries — bit for bit. *)
let test_redistribute_spilled () =
  let t = random_table 19 3000 100 in
  let dir = Filename.temp_dir "probkb-motion" "" in
  Fun.protect
    ~finally:(fun () -> Tutil.rm_rf dir)
    (fun () ->
      let policy =
        Storage.Spill.create ~segment_rows:64 ~threshold_bytes:0 ~root:dir ()
      in
      let shard_bits s =
        ( Table.name s,
          Table.cols s,
          List.init (Table.nrows s) (fun r ->
              (Table.row s r, Int64.bits_of_float (Table.weight s r))) )
      in
      let redistributed dt =
        let cost = Cost.create () in
        let out = Motion.redistribute cluster cost dt [| 1 |] in
        ( List.init (Dtable.nseg out) (fun i -> shard_bits (Dtable.seg out i)),
          List.map
            (fun (e : Cost.entry) -> (e.op, Int64.bits_of_float e.sim_seconds))
            (Cost.entries cost) )
      in
      let resident =
        redistributed (Dtable.partition cluster t (Dtable.Hash [| 0 |]))
      and spilled =
        redistributed
          (Dtable.partition_spilled policy ~prefix:"t" cluster t
             (Dtable.Hash [| 0 |]))
      in
      Alcotest.(check bool) "rows and cost entries" true (resident = spilled))

let test_broadcast () =
  let t = random_table 7 500 20 in
  let cost = Cost.create () in
  let dt = Dtable.partition cluster t (Dtable.Hash [| 0 |]) in
  let b = Motion.broadcast cluster cost dt in
  Alcotest.(check bool) "replicated" true (Dtable.dist b = Dtable.Replicated);
  for s = 0 to Dtable.nseg b - 1 do
    check_int "each segment has all rows" 500 (Table.nrows (Dtable.seg b s))
  done;
  check_int "bytes = size x (n-1)"
    (Table.byte_size t * (cluster.Cluster.nseg - 1))
    (Cost.motion_bytes cost)

let test_gather_motion () =
  let t = random_table 8 200 10 in
  let cost = Cost.create () in
  let dt = Dtable.partition cluster t (Dtable.Hash [| 0 |]) in
  let g = Motion.gather cluster cost dt in
  Alcotest.(check bool) "gathered equals original" true (Tutil.table_rows_equal t g)

(* --- distributed join --- *)

let out_spec =
  [| Join.Col (Join.Build, 0); Join.Col (Join.Build, 1); Join.Col (Join.Probe, 1) |]

let single_node_join a b =
  Join.hash_join ~name:"ref" ~cols:[| "k"; "va"; "vb" |] ~out:out_spec
    ~oweight:Join.No_weight (a, [| 0 |]) (b, [| 0 |])

let djoin_case name adist bdist =
  Alcotest.test_case name `Quick (fun () ->
      let a = random_table 9 800 30 and b = random_table 10 600 30 in
      let cost = Cost.create () in
      let da = Dtable.partition cluster a adist
      and db = Dtable.partition cluster b bdist in
      let dj =
        Mpp.Djoin.hash_join cluster cost ~name:"dj" ~cols:[| "k"; "va"; "vb" |]
          ~out:out_spec ~oweight:Join.No_weight (da, [| 0 |]) (db, [| 0 |])
      in
      let reference = single_node_join a b in
      Alcotest.(check bool) "distributed = single-node" true
        (Tutil.table_rows_equal reference (Dtable.gather dj)))

let test_collocated_join_no_motion () =
  let a = random_table 11 800 30 and b = random_table 12 600 30 in
  let cost = Cost.create () in
  let da = Dtable.partition cluster a (Dtable.Hash [| 0 |])
  and db = Dtable.partition cluster b (Dtable.Hash [| 0 |]) in
  ignore
    (Mpp.Djoin.hash_join cluster cost ~name:"dj" ~cols:[| "k"; "va"; "vb" |]
       ~out:out_spec ~oweight:Join.No_weight (da, [| 0 |]) (db, [| 0 |]));
  check_int "no motion bytes for collocated join" 0 (Cost.motion_bytes cost)

let test_misaligned_join_moves_data () =
  let a = random_table 13 800 30 and b = random_table 14 600 30 in
  let cost = Cost.create () in
  let da = Dtable.partition cluster a (Dtable.Hash [| 1 |])
  and db = Dtable.partition cluster b (Dtable.Hash [| 1 |]) in
  ignore
    (Mpp.Djoin.hash_join cluster cost ~name:"dj" ~cols:[| "k"; "va"; "vb" |]
       ~out:out_spec ~oweight:Join.No_weight (da, [| 0 |]) (db, [| 0 |]));
  Alcotest.(check bool) "motion happened" true (Cost.motion_bytes cost > 0)

let test_replicated_build_avoids_motion () =
  let a = random_table 15 100 30 and b = random_table 16 900 30 in
  let cost = Cost.create () in
  let da = Dtable.partition cluster a Dtable.Replicated in
  let db = Dtable.partition cluster b (Dtable.Hash [| 1 |]) in
  let dj =
    Mpp.Djoin.hash_join cluster cost ~name:"dj" ~cols:[| "k"; "va"; "vb" |]
      ~out:out_spec ~oweight:Join.No_weight (da, [| 0 |]) (db, [| 0 |])
  in
  check_int "replicated build side joins locally" 0 (Cost.motion_bytes cost);
  Alcotest.(check bool) "correct result" true
    (Tutil.table_rows_equal (single_node_join a b) (Dtable.gather dj))

(* --- matview --- *)

let facts_table seed n =
  let rng = Tutil.rng seed in
  let t =
    Table.create ~weighted:true ~name:"T_Pi"
      [| "I"; "R"; "x"; "C1"; "y"; "C2" |]
  in
  for i = 0 to n - 1 do
    Table.append_w t
      [|
        i; Random.State.int rng 20; Random.State.int rng 50;
        Random.State.int rng 5; Random.State.int rng 50; Random.State.int rng 5;
      |]
      (Random.State.float rng 1.)
  done;
  t

let test_matview_pick () =
  let cost = Cost.create () in
  let v = Mpp.Matview.create cluster cost (facts_table 17 500) in
  let picked = Mpp.Matview.pick v [| 1; 3; 5; 2 |] in
  Alcotest.(check bool) "picks the x view" true
    (Dtable.dist picked = Dtable.Hash [| 1; 3; 2; 5 |]);
  let base = Mpp.Matview.pick v [| 1; 3; 5 |] in
  Alcotest.(check bool) "base view for the short key" true
    (Dtable.dist base = Dtable.Hash [| 1; 3; 5 |]);
  let finest = Mpp.Matview.finest v in
  Alcotest.(check bool) "finest view" true
    (Dtable.dist finest = Dtable.Hash [| 1; 3; 2; 5; 4 |])

let test_matview_views_hold_all_facts () =
  let cost = Cost.create () in
  let facts = facts_table 18 300 in
  let v = Mpp.Matview.create cluster cost facts in
  List.iter
    (fun key ->
      Alcotest.(check bool) "view row count" true
        (Dtable.nrows (Mpp.Matview.pick v key) = 300))
    [ [| 1; 3; 5 |]; [| 1; 3; 5; 2 |]; [| 1; 3; 5; 4 |] ]

(* --- every grounding route ≡ the single node ≡ Query 2, bit for bit --- *)

(* [kb] grounded on its own copy by [Ground.run], and by [Ground_mpp.run]
   for every route — views, pn, and pn with every shard spilled from the
   start — at 1, 4 and 32 segments, with and without the Ω hook,
   converged and capped at one and two iterations: the configurations
   whose TΠ rows (ids, keys, weight bits), TΦ rows or trajectory differ
   from the single node's, and those whose single-node TΦ differs from
   the Query 2 oracle over the final TΠ ({!Tutil.query2_oracle}).  Every
   route's TΦ, built from the closure's own derivation rows, is so
   Query 2's row for row, in its order, with the same factor ids. *)
let mpp_mismatches kb =
  let hook ~omega kb =
    if omega then Some (Quality.Semantic.hook (Kb.Gamma.omega kb)) else None
  in
  let in_tmp f =
    let dir = Filename.temp_dir "probkb-mpp-oracle" "" in
    Fun.protect ~finally:(fun () -> Tutil.rm_rf dir) (fun () -> f dir)
  in
  let spill ~spilled dir =
    if spilled then
      Some (Storage.Spill.create ~segment_rows:64 ~threshold_bytes:0 ~root:dir ())
    else None
  in
  (* The single node's bits and the oracle's. *)
  let single ~omega ~max_iterations =
    let kb = Tutil.copy_gamma kb in
    let apply_constraints = hook ~omega kb in
    let r =
      Grounding.Ground.run
        ~options:
          {
            Grounding.Ground.default_options with
            max_iterations;
            apply_constraints;
          }
        kb
    in
    let trajectory = r.Grounding.Ground.trajectory in
    ( Tutil.ground_bits kb r.Grounding.Ground.graph trajectory,
      Tutil.ground_bits kb (Tutil.query2_oracle kb) trajectory )
  in
  let mpp ~omega ~max_iterations ~spilled mode nseg =
    let kb = Tutil.copy_gamma kb in
    let apply_constraints = hook ~omega kb in
    in_tmp @@ fun dir ->
    let r =
      Grounding.Ground_mpp.run
        ~options:
          {
            Grounding.Ground_mpp.default_options with
            max_iterations;
            apply_constraints;
            spill = spill ~spilled dir;
          }
        ~mode
        { Cluster.default with Cluster.nseg }
        kb
    in
    Tutil.ground_bits kb r.Grounding.Ground_mpp.graph
      r.Grounding.Ground_mpp.ground.Grounding.Ground.trajectory
  in
  List.concat_map
    (fun (omega, max_iterations) ->
      let config =
        Printf.sprintf "%smax_iterations %d"
          (if omega then "omega, " else "")
          max_iterations
      in
      let expected, oracle = single ~omega ~max_iterations in
      let differs what bits =
        if bits = expected then None else Some (what ^ ", " ^ config)
      in
      (if expected = oracle then []
       else [ "single node TΦ vs the Query 2 oracle, " ^ config ])
      @ List.concat_map
          (fun (route, mode, spilled) ->
            List.filter_map
              (fun nseg ->
                differs
                  (Printf.sprintf "%s, nseg %d" route nseg)
                  (mpp ~omega ~max_iterations ~spilled mode nseg))
              [ 1; 4; 32 ])
          [
            ("views", Grounding.Ground_mpp.Views, false);
            ("pn", Grounding.Ground_mpp.No_views, false);
            ("pn spilled", Grounding.Ground_mpp.No_views, true);
          ])
    [
      (false, 15); (true, 15); (false, 1); (true, 1); (false, 2); (true, 2);
    ]

(* [mpp_mismatches kb] at pools 1 and 4; fails naming every mismatch. *)
let check_mpp_oracle what kb =
  List.iter
    (fun d ->
      Pool.set_default_size d;
      Fun.protect
        ~finally:(fun () -> Pool.set_default_size (Pool.env_domains ()))
        (fun () ->
          match mpp_mismatches kb with
          | [] -> ()
          | bad ->
            Alcotest.failf "%s, pool %d: routes differ: %s" what d
              (String.concat "; " bad)))
    [ 1; 4 ]

(* The seed has no shrinker: a failure names its seed, and each shrink
   step would run every route again. *)
let prop_mpp_oracle =
  Tutil.qcheck_case ~count:1 "distributed = single node"
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_range 1 100_000))
    (fun seed ->
      let g =
        Workload.Reverb_sherlock.generate
          { Workload.Reverb_sherlock.default_config with scale = 0.004; seed }
      in
      check_mpp_oracle
        (Printf.sprintf "ReVerb-Sherlock seed %d" seed)
        (Workload.Reverb_sherlock.kb g);
      true)

(* Every shape a closure over one class can chain: a one-atom rule and
   the four two-atom shapes, each stated twice with different weights —
   the rows that the single node deduplicates by head while keeping
   each factor — and a funcon that fires mid-closure. *)
let duplicated_rules_kb () =
  let kb = Kb.Gamma.create () in
  ignore
    (Kb.Loader.load_rules kb
       (List.concat_map
          (fun (w1, w2, rule) ->
            [ Printf.sprintf "%s %s" w1 rule; Printf.sprintf "%s %s" w2 rule ])
          [
            ("1.0", "0.4", "p(x:E, y:E) :- q(x, y)");
            ("0.9", "0.3", "r(x:E, y:E) :- p(z:E, x), q(z, y)");
            ("0.8", "-0.5", "q(x:E, y:E) :- r(x, z:E), p(z, y)");
            ("0.7", "1.5", "p(x:E, y:E) :- q(z:E, x), r(y, z)");
            ("0.6", "0.2", "r(x:E, y:E) :- r(x, z:E), q(y, z)");
          ]));
  List.iteri
    (fun i (r, x, y) ->
      ignore
        (Kb.Gamma.add_fact_by_name kb ~r ~x ~c1:"E" ~y ~c2:"E"
           ~w:(0.5 +. (0.05 *. float_of_int i))))
    [
      ("q", "a", "b"); ("q", "b", "c"); ("q", "c", "d"); ("q", "d", "e");
      ("p", "e", "a"); ("r", "b", "d"); ("q", "a", "c"); ("r", "e", "e");
    ];
  Kb.Gamma.add_funcon kb
    (Kb.Funcon.make ~rel:(Kb.Gamma.relation kb "r") ~ftype:Kb.Funcon.Type_I
       ~degree:3);
  kb

let test_mpp_oracle_duplicated_rules () =
  check_mpp_oracle "duplicated rules" (duplicated_rules_kb ())

let test_ground_mpp_with_constraints () =
  (* The distributed driver must honor the constraint hook exactly like
     the single-node one. *)
  let kb = Kb.Gamma.create () in
  ignore (Kb.Loader.load_rules kb [ "1.0 p(x:A, y:B) :- q(x, y)" ]);
  let add x y =
    ignore (Kb.Gamma.add_fact_by_name kb ~r:"q" ~x ~c1:"A" ~y ~c2:"B" ~w:0.9)
  in
  add "a" "b1";
  add "a" "b2";
  add "c" "d";
  Kb.Gamma.add_funcon kb
    (Kb.Funcon.make ~rel:(Kb.Gamma.relation kb "q") ~ftype:Kb.Funcon.Type_I
       ~degree:1);
  let run kb2 =
    Grounding.Ground_mpp.run
      ~options:
        {
          Grounding.Ground_mpp.default_options with
          apply_constraints =
            Some (Quality.Semantic.hook (Kb.Gamma.omega kb));
        }
      cluster kb2
  in
  let kb2 = Tutil.copy_gamma kb in
  ignore (run kb2);
  (* 'a' violates and is removed before iteration 1; only q(c,d) survives
     and derives p(c,d). *)
  Alcotest.(check int) "facts after SC" 2 (Kb.Storage.size (Kb.Gamma.pi kb2));
  Alcotest.(check bool) "p(c,d) derived" true
    (Option.is_some
       (Kb.Storage.find (Kb.Gamma.pi kb2)
          ~r:(Kb.Gamma.relation kb "p")
          ~x:(Kb.Gamma.entity kb "c") ~c1:(Kb.Gamma.cls kb "A")
          ~y:(Kb.Gamma.entity kb "d") ~c2:(Kb.Gamma.cls kb "B")))

let test_views_ship_fewer_bytes () =
  let g =
    Workload.Reverb_sherlock.generate
      { Workload.Reverb_sherlock.default_config with scale = 0.02 }
  in
  let kb = Workload.Reverb_sherlock.kb g in
  let run mode = Grounding.Ground_mpp.run ~mode Cluster.default (Tutil.copy_gamma kb) in
  let p = run Grounding.Ground_mpp.Views in
  let pn = run Grounding.Ground_mpp.No_views in
  let steady (r : Grounding.Ground_mpp.result) =
    r.Grounding.Ground_mpp.sim_seconds -. r.Grounding.Ground_mpp.load_sim_seconds
  in
  Alcotest.(check bool) "views are not slower in steady state" true
    (steady p <= steady pn *. 1.05)

let () =
  Alcotest.run "mpp"
    [
      ( "dtable",
        [
          test_partition_gather_roundtrip;
          Alcotest.test_case "collocation" `Quick test_hash_partition_collocates;
          Alcotest.test_case "replicated" `Quick test_replicated;
          Alcotest.test_case "unknown rejected" `Quick test_partition_rejects_unknown;
        ] );
      ( "motion",
        [
          Alcotest.test_case "redistribute" `Quick
            test_redistribute_preserves_and_charges;
          Alcotest.test_case "redistribute spilled = resident" `Quick
            test_redistribute_spilled;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "gather" `Quick test_gather_motion;
        ] );
      ( "djoin",
        [
          djoin_case "aligned x aligned" (Dtable.Hash [| 0 |]) (Dtable.Hash [| 0 |]);
          djoin_case "misaligned x aligned" (Dtable.Hash [| 1 |]) (Dtable.Hash [| 0 |]);
          djoin_case "aligned x misaligned" (Dtable.Hash [| 0 |]) (Dtable.Hash [| 1 |]);
          djoin_case "both misaligned" (Dtable.Hash [| 1 |]) (Dtable.Hash [| 1 |]);
          djoin_case "replicated x hash" Dtable.Replicated (Dtable.Hash [| 1 |]);
          djoin_case "hash x replicated" (Dtable.Hash [| 1 |]) Dtable.Replicated;
          djoin_case "replicated x replicated" Dtable.Replicated Dtable.Replicated;
          Alcotest.test_case "collocated join has no motion" `Quick
            test_collocated_join_no_motion;
          Alcotest.test_case "misaligned join moves data" `Quick
            test_misaligned_join_moves_data;
          Alcotest.test_case "replicated build avoids motion" `Quick
            test_replicated_build_avoids_motion;
        ] );
      ( "matview",
        [
          Alcotest.test_case "pick" `Quick test_matview_pick;
          Alcotest.test_case "views complete" `Quick test_matview_views_hold_all_facts;
        ] );
      ( "grounding",
        [
          prop_mpp_oracle;
          Alcotest.test_case "distributed = single node, duplicated rules"
            `Quick test_mpp_oracle_duplicated_rules;
          Alcotest.test_case "views not slower" `Slow test_views_ship_fewer_bytes;
          Alcotest.test_case "constraints on MPP" `Quick
            test_ground_mpp_with_constraints;
        ] );
    ]
