module Fgraph = Factor_graph.Fgraph
module Lineage = Factor_graph.Lineage

let check_int = Alcotest.(check int)

let test_table_layout () =
  let g = Fgraph.create () in
  Fgraph.add_singleton g ~i:5 ~w:0.9;
  Fgraph.add_clause g ~i1:7 ~i2:5 ~w:1.2 ();
  Fgraph.add_clause g ~i1:8 ~i2:5 ~i3:7 ~w:0.4 ();
  check_int "size" 3 (Fgraph.size g);
  Alcotest.(check bool) "singleton row" true
    (Fgraph.factor g 0 = (5, Fgraph.null, Fgraph.null, 0.9));
  Alcotest.(check bool) "binary row" true (Fgraph.factor g 1 = (7, 5, Fgraph.null, 1.2));
  Alcotest.(check bool) "ternary row" true (Fgraph.factor g 2 = (8, 5, 7, 0.4))

let test_compile_dense_vars () =
  let g = Fgraph.create () in
  Fgraph.add_singleton g ~i:100 ~w:1.0;
  Fgraph.add_clause g ~i1:200 ~i2:100 ~w:0.5 ();
  let c = Fgraph.compile g in
  check_int "two variables" 2 (Fgraph.nvars c);
  check_int "id preserved" 100 c.Fgraph.var_ids.(Hashtbl.find c.Fgraph.var_of_id 100);
  check_int "id preserved 2" 200 c.Fgraph.var_ids.(Hashtbl.find c.Fgraph.var_of_id 200)

let test_satisfied_semantics () =
  let g = Fgraph.create () in
  Fgraph.add_singleton g ~i:0 ~w:1.0;
  Fgraph.add_clause g ~i1:1 ~i2:0 ~w:1.0 ();
  Fgraph.add_clause g ~i1:2 ~i2:0 ~i3:1 ~w:1.0 ();
  let c = Fgraph.compile g in
  let v id = Hashtbl.find c.Fgraph.var_of_id id in
  let a = Array.make 3 false in
  (* singleton: satisfied iff the variable is true *)
  a.(v 0) <- false;
  Alcotest.(check bool) "singleton false" false (Fgraph.satisfied c 0 a);
  a.(v 0) <- true;
  Alcotest.(check bool) "singleton true" true (Fgraph.satisfied c 0 a);
  (* clause 1 <- 0: violated only when body true, head false *)
  a.(v 0) <- true;
  a.(v 1) <- false;
  Alcotest.(check bool) "violated implication" false (Fgraph.satisfied c 1 a);
  a.(v 1) <- true;
  Alcotest.(check bool) "satisfied implication" true (Fgraph.satisfied c 1 a);
  a.(v 0) <- false;
  a.(v 1) <- false;
  Alcotest.(check bool) "false body satisfies" true (Fgraph.satisfied c 1 a);
  (* clause 2 <- 0 ∧ 1 *)
  a.(v 0) <- true;
  a.(v 1) <- true;
  a.(v 2) <- false;
  Alcotest.(check bool) "ternary violated" false (Fgraph.satisfied c 2 a);
  a.(v 1) <- false;
  Alcotest.(check bool) "half body satisfies" true (Fgraph.satisfied c 2 a)

(* The non-finite weight policy.  [Fgraph.compile] drops every factor
   whose weight is NaN (the null weight: no weight at all) or ±inf (a
   hard rule, which quality control enforces, not inference), so no
   solver ever sees one, and a fact mentioned only by such factors is
   not a variable.  TΦ itself keeps the rows, and the segment weight
   lane keeps their IEEE bits: NaN stays the null marker. *)
let test_non_finite_weights () =
  let g = Fgraph.create () in
  Fgraph.add_singleton g ~i:1 ~w:0.5;
  Fgraph.add_singleton g ~i:2 ~w:Float.nan;
  Fgraph.add_singleton g ~i:3 ~w:Float.infinity;
  Fgraph.add_clause g ~i1:1 ~i2:4 ~w:Float.neg_infinity ();
  Fgraph.add_clause g ~i1:1 ~i2:5 ~w:(-1.) ();
  check_int "TΦ keeps every row" 5 (Fgraph.size g);
  let c = Fgraph.compile g in
  check_int "only finite factors compile" 2 (Array.length c.Fgraph.head);
  Alcotest.(check (list int))
    "facts of finite factors only" [ 1; 5 ]
    (List.sort compare (Array.to_list c.Fgraph.var_ids));
  let marg, _ = Inference.Hybrid.solve c in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "a probability" true
        (Float.is_finite p && 0. <= p && p <= 1.))
    marg;
  let path = Filename.temp_file "tphi" ".seg" in
  Storage.Segment.write ~path (Fgraph.table ~g) ~lo:0 ~hi:5;
  let seg = Storage.Segment.openf path in
  Sys.remove path;
  Alcotest.(check bool) "NaN reads back as the null weight" true
    (Relational.Table.is_null_weight (Storage.Segment.weight seg 1));
  Alcotest.(check (float 0.)) "+inf survives" Float.infinity
    (Storage.Segment.weight seg 2);
  Alcotest.(check (float 0.)) "-inf survives" Float.neg_infinity
    (Storage.Segment.weight seg 3)

let test_adjacency_covers_all_mentions =
  Tutil.qcheck_case "CSR adjacency lists each factor under its variables"
    QCheck.(list (pair (int_bound 8) (pair (int_bound 8) (int_bound 8))))
    (fun clauses ->
      let g = Fgraph.create () in
      List.iter
        (fun (h, (b1, b2)) -> Fgraph.add_clause g ~i1:h ~i2:b1 ~i3:b2 ~w:1.0 ())
        clauses;
      let c = Fgraph.compile g in
      let ok = ref true in
      Array.iteri
        (fun f h ->
          let vars =
            List.sort_uniq compare
              (List.filter (fun v -> v >= 0)
                 [ h; c.Fgraph.body1.(f); c.Fgraph.body2.(f) ])
          in
          List.iter
            (fun v ->
              let found = ref false in
              for k = c.Fgraph.adj_off.(v) to c.Fgraph.adj_off.(v + 1) - 1 do
                if c.Fgraph.adj.(k) = f then found := true
              done;
              if not !found then ok := false)
            vars)
        c.Fgraph.head;
      !ok)

let test_adjacency_no_duplicates =
  Tutil.qcheck_case "factor listed once per variable"
    QCheck.(list (pair (int_bound 5) (pair (int_bound 5) (int_bound 5))))
    (fun clauses ->
      let g = Fgraph.create () in
      List.iter
        (fun (h, (b1, b2)) -> Fgraph.add_clause g ~i1:h ~i2:b1 ~i3:b2 ~w:1.0 ())
        clauses;
      let c = Fgraph.compile g in
      let ok = ref true in
      for v = 0 to Fgraph.nvars c - 1 do
        let seen = Hashtbl.create 8 in
        for k = c.Fgraph.adj_off.(v) to c.Fgraph.adj_off.(v + 1) - 1 do
          if Hashtbl.mem seen c.Fgraph.adj.(k) then ok := false;
          Hashtbl.replace seen c.Fgraph.adj.(k) ()
        done
      done;
      !ok)

(* --- serialization --- *)

let test_serialize_roundtrip () =
  let g = Fgraph.create () in
  Fgraph.add_singleton g ~i:5 ~w:0.9;
  Fgraph.add_clause g ~i1:7 ~i2:5 ~w:1.25 ();
  Fgraph.add_clause g ~i1:8 ~i2:5 ~i3:7 ~w:0.4 ();
  let path = Filename.temp_file "tphi" ".txt" in
  Factor_graph.Serialize.to_file g path;
  let g' = Factor_graph.Serialize.of_file path in
  Sys.remove path;
  check_int "same size" (Fgraph.size g) (Fgraph.size g');
  Fgraph.iter
    (fun i f -> Alcotest.(check bool) "factor preserved" true (Fgraph.factor g' i = f))
    g

let test_serialize_roundtrip_qcheck =
  Tutil.qcheck_case "serialize roundtrip (generated)"
    QCheck.(list (tup3 (int_bound 20) (option (int_bound 20)) (float_bound_inclusive 3.)))
    (fun factors ->
      let g = Fgraph.create () in
      List.iter
        (fun (i1, body, w) ->
          match body with
          | None -> Fgraph.add_singleton g ~i:i1 ~w
          | Some i2 -> Fgraph.add_clause g ~i1 ~i2 ~w ())
        factors;
      let path = Filename.temp_file "tphi" ".txt" in
      Factor_graph.Serialize.to_file g path;
      let g' = Factor_graph.Serialize.of_file path in
      Sys.remove path;
      let dump g =
        let acc = ref [] in
        Fgraph.iter (fun _ f -> acc := f :: !acc) g;
        !acc
      in
      dump g = dump g')

let test_serialize_rejects_garbage () =
  let path = Filename.temp_file "tphi" ".txt" in
  let oc = open_out path in
  output_string oc "S 1 0.5\nX what\n";
  close_out oc;
  let result =
    match Factor_graph.Serialize.of_file path with
    | _ -> false
    | exception Factor_graph.Serialize.Parse_error _ -> true
  in
  Sys.remove path;
  Alcotest.(check bool) "parse error raised" true result

(* --- lineage --- *)

let chain_graph () =
  (* 0,1 extracted; 2 <- 0,1; 3 <- 2; 4 <- 3,0. *)
  let g = Fgraph.create () in
  Fgraph.add_singleton g ~i:0 ~w:1.0;
  Fgraph.add_singleton g ~i:1 ~w:1.0;
  Fgraph.add_clause g ~i1:2 ~i2:0 ~i3:1 ~w:0.5 ();
  Fgraph.add_clause g ~i1:3 ~i2:2 ~w:0.5 ();
  Fgraph.add_clause g ~i1:4 ~i2:3 ~i3:0 ~w:0.5 ();
  Lineage.build g

let test_lineage_derivations () =
  let l = chain_graph () in
  check_int "2 has one derivation" 1 (List.length (Lineage.derivations l 2));
  check_int "0 has none" 0 (List.length (Lineage.derivations l 0))

let test_lineage_ancestors_descendants () =
  let l = chain_graph () in
  Alcotest.(check (list int)) "ancestors of 4" [ 0; 1; 2; 3 ]
    (List.sort compare (Lineage.ancestors l 4));
  Alcotest.(check (list int)) "descendants of 0 (the error cone)" [ 2; 3; 4 ]
    (List.sort compare (Lineage.descendants l 0));
  Alcotest.(check (list int)) "descendants of 3" [ 4 ]
    (Lineage.descendants l 3)

let test_lineage_depth () =
  let l = chain_graph () in
  Alcotest.(check (option int)) "base depth" (Some 0) (Lineage.depth l 0);
  Alcotest.(check (option int)) "depth 2" (Some 1) (Lineage.depth l 2);
  Alcotest.(check (option int)) "depth 3" (Some 2) (Lineage.depth l 3);
  Alcotest.(check (option int)) "depth 4" (Some 3) (Lineage.depth l 4);
  Alcotest.(check (option int)) "unknown fact" None (Lineage.depth l 99)

let test_lineage_depth_cycle () =
  (* 1 <- 2 and 2 <- 1, with 1 also extracted: the cycle must not hang and
     depths stay well-founded. *)
  let g = Fgraph.create () in
  Fgraph.add_singleton g ~i:1 ~w:1.0;
  Fgraph.add_clause g ~i1:2 ~i2:1 ~w:0.5 ();
  Fgraph.add_clause g ~i1:1 ~i2:2 ~w:0.5 ();
  let l = Lineage.build g in
  Alcotest.(check (option int)) "base" (Some 0) (Lineage.depth l 1);
  Alcotest.(check (option int)) "derived" (Some 1) (Lineage.depth l 2)

let () =
  Alcotest.run "factor_graph"
    [
      ( "graph",
        [
          Alcotest.test_case "table layout" `Quick test_table_layout;
          Alcotest.test_case "compile" `Quick test_compile_dense_vars;
          Alcotest.test_case "satisfied semantics" `Quick test_satisfied_semantics;
          Alcotest.test_case "non-finite weights" `Quick
            test_non_finite_weights;
          test_adjacency_covers_all_mentions;
          test_adjacency_no_duplicates;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "roundtrip" `Quick test_serialize_roundtrip;
          test_serialize_roundtrip_qcheck;
          Alcotest.test_case "garbage rejected" `Quick
            test_serialize_rejects_garbage;
        ] );
      ( "lineage",
        [
          Alcotest.test_case "derivations" `Quick test_lineage_derivations;
          Alcotest.test_case "ancestors/descendants" `Quick
            test_lineage_ancestors_descendants;
          Alcotest.test_case "depth" `Quick test_lineage_depth;
          Alcotest.test_case "depth with cycles" `Quick test_lineage_depth_cycle;
        ] );
    ]
