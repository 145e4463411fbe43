module Table = Relational.Table
module Dict = Relational.Dict
module Index = Relational.Index
module Join = Relational.Join
module Ops = Relational.Ops

let check_int = Alcotest.(check int)

(* --- Dict --- *)

let test_dict_roundtrip () =
  let d = Dict.create () in
  let a = Dict.intern d "alpha" in
  let b = Dict.intern d "beta" in
  check_int "stable ids" a (Dict.intern d "alpha");
  Alcotest.(check string) "name a" "alpha" (Dict.name d a);
  Alcotest.(check string) "name b" "beta" (Dict.name d b);
  check_int "size" 2 (Dict.size d);
  Alcotest.(check bool) "mem" true (Dict.mem d "alpha");
  Alcotest.(check (option int)) "find_opt" None (Dict.find_opt d "gamma")

let test_dict_dense_ids () =
  let d = Dict.create ~initial_capacity:1 () in
  for i = 0 to 999 do
    check_int "dense" i (Dict.intern d (string_of_int i))
  done;
  check_int "size" 1000 (Dict.size d);
  let count = ref 0 in
  Dict.iter (fun id name -> if string_of_int id = name then incr count) d;
  check_int "iter order" 1000 !count

(* --- Table --- *)

let test_table_append_get () =
  let t = Table.create ~name:"t" [| "a"; "b"; "c" |] in
  for i = 0 to 99 do
    Table.append t [| i; i * 2; i * 3 |]
  done;
  check_int "nrows" 100 (Table.nrows t);
  check_int "get" 42 (Table.get t 21 1);
  Table.set t 21 1 7;
  check_int "set" 7 (Table.get t 21 1);
  check_int "col_index" 2 (Table.col_index t "c");
  Alcotest.check_raises "bad col" Not_found (fun () ->
      ignore (Table.col_index t "zz"))

let test_table_weights () =
  let t = Table.create ~weighted:true ~name:"t" [| "a" |] in
  Table.append_w t [| 1 |] 0.5;
  Table.append t [| 2 |];
  Alcotest.(check (float 0.)) "weight" 0.5 (Table.weight t 0);
  Alcotest.(check bool) "null" true (Table.is_null_weight (Table.weight t 1));
  Table.set_weight t 1 0.25;
  Alcotest.(check (float 0.)) "set_weight" 0.25 (Table.weight t 1)

let test_table_filter_sub_copy () =
  let t = Table.create ~name:"t" [| "a" |] in
  for i = 0 to 9 do
    Table.append t [| i |]
  done;
  let even = Table.filter t (fun r -> Table.get t r 0 mod 2 = 0) in
  check_int "filter" 5 (Table.nrows even);
  let s = Table.sub t [| 3; 7 |] in
  check_int "sub rows" 2 (Table.nrows s);
  check_int "sub val" 7 (Table.get s 1 0);
  let c = Table.copy t in
  Table.set c 0 0 99;
  check_int "copy is deep" 0 (Table.get t 0 0)

let test_table_append_from_weight_transfer () =
  let src = Table.create ~weighted:true ~name:"s" [| "a" |] in
  Table.append_w src [| 5 |] 1.5;
  let dst = Table.create ~weighted:true ~name:"d" [| "a" |] in
  Table.append_from dst src 0;
  Alcotest.(check (float 0.)) "weight moved" 1.5 (Table.weight dst 0);
  let unw = Table.create ~name:"u" [| "a" |] in
  Table.append_from unw src 0;
  check_int "value moved" 5 (Table.get unw 0 0)

(* --- Index --- *)

let test_index_basic () =
  let t = Table.create ~name:"t" [| "k"; "v" |] in
  for i = 0 to 999 do
    Table.append t [| i mod 10; i |]
  done;
  let idx = Index.build t [| 0 |] in
  check_int "matches" 100 (Index.count_matches idx [| 3 |]);
  check_int "no match" 0 (Index.count_matches idx [| 77 |]);
  Alcotest.(check bool) "mem" true (Index.mem idx [| 0 |]);
  check_int "size" 1000 (Index.size idx)

let test_index_incremental () =
  let t = Table.create ~name:"t" [| "k" |] in
  let idx = Index.build t [| 0 |] in
  for i = 0 to 4999 do
    Table.append t [| i mod 7 |];
    Index.add idx (Table.nrows t - 1)
  done;
  check_int "incremental matches" 715 (Index.count_matches idx [| 0 |]);
  check_int "incremental matches 6" 714 (Index.count_matches idx [| 6 |])

let test_index_vs_scan_qcheck =
  Tutil.qcheck_case "index agrees with scan"
    QCheck.(pair (list (pair small_nat small_nat)) small_nat)
    (fun (rows, probe) ->
      let t = Table.create ~name:"t" [| "k"; "v" |] in
      List.iter (fun (k, v) -> Table.append t [| k; v |]) rows;
      let idx = Index.build t [| 0 |] in
      let by_index = Index.count_matches idx [| probe |] in
      let by_scan = Ops.count_where t (fun r -> Table.get t r 0 = probe) in
      by_index = by_scan)

(* --- Join --- *)

let random_table st name n kmax =
  let t = Table.create ~weighted:true ~name [| "k"; "v" |] in
  for _ = 1 to n do
    Table.append_w t
      [| Random.State.int st kmax; Random.State.int st 1000 |]
      (Random.State.float st 1.)
  done;
  t

let join_out =
  [|
    Join.Col (Join.Build, 0);
    Join.Col (Join.Build, 1);
    Join.Col (Join.Probe, 1);
  |]

let test_join_matches_nested_loop () =
  let st = Tutil.rng 7 in
  for trial = 1 to 20 do
    let a = random_table st "a" (Random.State.int st 200) 12 in
    let b = random_table st "b" (Random.State.int st 200) 12 in
    let fast =
      Join.hash_join ~name:"j" ~cols:[| "k"; "va"; "vb" |] ~out:join_out
        ~oweight:Join.No_weight (a, [| 0 |]) (b, [| 0 |])
    in
    let slow =
      Join_oracle.nested_loop ~name:"j" ~cols:[| "k"; "va"; "vb" |]
        ~out:join_out ~oweight:Join.No_weight (a, [| 0 |]) (b, [| 0 |])
    in
    if not (Tutil.table_rows_equal fast slow) then
      Alcotest.failf "join mismatch on trial %d" trial
  done

let test_join_residual () =
  let a = Table.create ~name:"a" [| "k"; "v" |] in
  let b = Table.create ~name:"b" [| "k"; "v" |] in
  Table.append a [| 1; 10 |];
  Table.append a [| 1; 20 |];
  Table.append b [| 1; 10 |];
  Table.append b [| 1; 30 |];
  let j =
    Join.hash_join ~name:"j" ~cols:[| "k"; "va"; "vb" |] ~out:join_out
      ~oweight:Join.No_weight
      ~residual:(fun br pr -> Table.get a br 1 = Table.get b pr 1)
      (a, [| 0 |]) (b, [| 0 |])
  in
  check_int "residual filters" 1 (Table.nrows j);
  check_int "kept pair" 10 (Table.get j 0 1)

let test_join_weight_propagation () =
  let a = Table.create ~weighted:true ~name:"a" [| "k" |] in
  Table.append_w a [| 1 |] 0.75;
  let b = Table.create ~name:"b" [| "k" |] in
  Table.append b [| 1 |];
  let j =
    Join.hash_join ~name:"j" ~cols:[| "k" |]
      ~out:[| Join.Col (Join.Build, 0) |]
      ~oweight:(Join.Weight_of Join.Build) (a, [| 0 |]) (b, [| 0 |])
  in
  Alcotest.(check (float 0.)) "weight" 0.75 (Table.weight j 0)

let test_join_const_output () =
  let a = Table.create ~name:"a" [| "k" |] in
  Table.append a [| 1 |];
  let b = Table.create ~name:"b" [| "k" |] in
  Table.append b [| 1 |];
  let j =
    Join.hash_join ~name:"j" ~cols:[| "c" |] ~out:[| Join.Const (-1) |]
      ~oweight:Join.No_weight (a, [| 0 |]) (b, [| 0 |])
  in
  check_int "const" (-1) (Table.get j 0 0)

let test_join_multi_column_key () =
  let st = Tutil.rng 11 in
  let mk name n =
    let t = Table.create ~name [| "k1"; "k2"; "v" |] in
    for _ = 1 to n do
      Table.append t
        [| Random.State.int st 5; Random.State.int st 5; Random.State.int st 100 |]
    done;
    t
  in
  let a = mk "a" 150 and b = mk "b" 150 in
  let out = [| Join.Col (Join.Build, 2); Join.Col (Join.Probe, 2) |] in
  let fast =
    Join.hash_join ~name:"j" ~cols:[| "va"; "vb" |] ~out
      ~oweight:Join.No_weight (a, [| 0; 1 |]) (b, [| 1; 0 |])
  in
  let slow =
    Join_oracle.nested_loop ~name:"j" ~cols:[| "va"; "vb" |] ~out
      ~oweight:Join.No_weight (a, [| 0; 1 |]) (b, [| 1; 0 |])
  in
  Alcotest.(check bool) "multi-key equal" true (Tutil.table_rows_equal fast slow)

(* A join's output is sized by the rows it holds, not by its probe side:
   a join matching 1,000 of 200,000 probe rows keeps no arena for the
   other 199,000. *)
let test_join_output_sized_by_rows () =
  let a = Table.create ~name:"a" [| "k" |] in
  for k = 0 to 999 do
    Table.append a [| k * 200 |]
  done;
  let b = Table.create ~name:"b" [| "k"; "v" |] in
  for k = 0 to 199_999 do
    Table.append b [| k; k |]
  done;
  let j =
    Join.hash_join ~name:"j" ~cols:[| "k"; "vb" |]
      ~out:[| Join.Col (Join.Build, 0); Join.Col (Join.Probe, 1) |]
      ~oweight:Join.No_weight (a, [| 0 |]) (b, [| 0 |])
  in
  check_int "matches" 1000 (Table.nrows j);
  let words = Obj.reachable_words (Obj.repr j) in
  if words > 8 * Table.width j * Table.nrows j then
    Alcotest.failf "%d rows hold %d words" (Table.nrows j) words

let test_semi_join_absent () =
  let have = Table.create ~name:"h" [| "k" |] in
  Table.append have [| 1 |];
  Table.append have [| 3 |];
  let idx = Index.build have [| 0 |] in
  let cand = Table.create ~name:"c" [| "k" |] in
  List.iter (fun k -> Table.append cand [| k |]) [ 1; 2; 3; 4 ];
  let missing = Join.semi_join_absent cand [| 0 |] idx in
  Alcotest.(check (list (list int)))
    "absent keys" [ [ 2 ]; [ 4 ] ]
    (Tutil.rows_as_sorted_lists missing)

(* --- Ops --- *)

let test_distinct () =
  let t = Table.create ~name:"t" [| "a"; "b" |] in
  List.iter (fun (a, b) -> Table.append t [| a; b |])
    [ (1, 1); (1, 2); (1, 1); (2, 1); (2, 1) ];
  let d = Ops.distinct t [| 0; 1 |] in
  check_int "distinct both" 3 (Table.nrows d);
  let d1 = Ops.distinct t [| 0 |] in
  check_int "distinct first" 2 (Table.nrows d1)

let test_distinct_keeps_first () =
  let t = Table.create ~weighted:true ~name:"t" [| "a" |] in
  Table.append_w t [| 1 |] 0.1;
  Table.append_w t [| 1 |] 0.9;
  let d = Ops.distinct t [| 0 |] in
  Alcotest.(check (float 0.)) "first kept" 0.1 (Table.weight d 0)

let test_group_count () =
  let t = Table.create ~name:"t" [| "g"; "v" |] in
  List.iter (fun (g, v) -> Table.append t [| g; v |])
    [ (1, 0); (1, 0); (2, 0); (1, 0); (3, 0); (3, 0) ];
  let g = Ops.group_count t [| 0 |] in
  let counts =
    Tutil.rows_as_sorted_lists g
  in
  Alcotest.(check (list (list int))) "counts" [ [ 1; 3 ]; [ 2; 1 ]; [ 3; 2 ] ] counts

let test_group_aggregates () =
  let t = Table.create ~name:"t" [| "g"; "v" |] in
  List.iter (fun (g, v) -> Table.append t [| g; v |])
    [ (1, 5); (1, 9); (2, 3); (1, 1); (2, 7) ];
  let g = Ops.group t [| 0 |] [ Ops.Count; Ops.Sum 1; Ops.Min 1; Ops.Max 1 ] in
  Alcotest.(check (list (list int)))
    "count/sum/min/max per group"
    [ [ 1; 3; 15; 1; 9 ]; [ 2; 2; 10; 3; 7 ] ]
    (Tutil.rows_as_sorted_lists g)

let test_group_agg_matches_group_count =
  Tutil.qcheck_case "group Count = group_count"
    QCheck.(list (pair (int_bound 8) (int_bound 50)))
    (fun rows ->
      let t = Table.create ~name:"t" [| "g"; "v" |] in
      List.iter (fun (g, v) -> Table.append t [| g; v |]) rows;
      Tutil.table_rows_equal
        (Ops.group t [| 0 |] [ Ops.Count ])
        (Ops.group_count t [| 0 |]))

let test_union_all () =
  let a = Table.create ~name:"a" [| "x" |] in
  Table.append a [| 1 |];
  let b = Table.create ~name:"b" [| "x" |] in
  Table.append b [| 2 |];
  Table.append b [| 2 |];
  let u = Ops.union_all [ a; b ] in
  check_int "bag union" 3 (Table.nrows u);
  Alcotest.check_raises "empty union" (Invalid_argument "Ops.union_all: empty list")
    (fun () -> ignore (Ops.union_all []))

let test_distinct_qcheck =
  Tutil.qcheck_case "distinct = sorted dedup"
    QCheck.(list (pair (int_bound 10) (int_bound 10)))
    (fun rows ->
      let t = Table.create ~name:"t" [| "a"; "b" |] in
      List.iter (fun (a, b) -> Table.append t [| a; b |]) rows;
      let d = Ops.distinct t [| 0; 1 |] in
      let expect = List.sort_uniq compare (List.map (fun (a, b) -> [ a; b ]) rows) in
      Tutil.rows_as_sorted_lists d = expect)

let test_group_count_qcheck =
  Tutil.qcheck_case "group_count sums to nrows"
    QCheck.(list (int_bound 20))
    (fun keys ->
      let t = Table.create ~name:"t" [| "k" |] in
      List.iter (fun k -> Table.append t [| k |]) keys;
      let g = Ops.group_count t [| 0 |] in
      let total = ref 0 in
      Table.iter (fun r -> total := !total + Table.get g r 1) g;
      !total = List.length keys)

(* --- sort-based operators --- *)

let test_sort_orders_rows () =
  let t = Table.create ~name:"t" [| "a"; "b" |] in
  List.iter (fun (a, b) -> Table.append t [| a; b |])
    [ (3, 1); (1, 2); (2, 0); (1, 1); (3, 0) ];
  let s = Relational.Sort.sort t [| 0; 1 |] in
  Alcotest.(check bool) "sorted" true (Relational.Sort.is_sorted s [| 0; 1 |]);
  Alcotest.(check (list (list int))) "order"
    [ [ 1; 1 ]; [ 1; 2 ]; [ 2; 0 ]; [ 3; 0 ]; [ 3; 1 ] ]
    (List.init (Table.nrows s) (fun r -> Array.to_list (Table.row s r)))

let test_sort_is_stable () =
  let t = Table.create ~weighted:true ~name:"t" [| "k"; "tag" |] in
  Table.append_w t [| 1; 10 |] 0.1;
  Table.append_w t [| 1; 20 |] 0.2;
  Table.append_w t [| 0; 30 |] 0.3;
  let s = Relational.Sort.sort t [| 0 |] in
  (* Equal keys keep input order (10 before 20) and weights follow. *)
  check_int "first of group" 10 (Table.get s 1 1);
  check_int "second of group" 20 (Table.get s 2 1);
  Alcotest.(check (float 0.)) "weights follow" 0.3 (Table.weight s 0)

let test_merge_join_matches_hash_join =
  Tutil.qcheck_case "merge join = hash join"
    QCheck.(pair (list (pair (int_bound 8) (int_bound 50)))
              (list (pair (int_bound 8) (int_bound 50))))
    (fun (xs, ys) ->
      let mk name rows =
        let t = Table.create ~name [| "k"; "v" |] in
        List.iter (fun (k, v) -> Table.append t [| k; v |]) rows;
        t
      in
      let a = mk "a" xs and b = mk "b" ys in
      let out = [| Join.Col (Join.Build, 1); Join.Col (Join.Probe, 1) |] in
      let hash =
        Join.hash_join ~name:"h" ~cols:[| "va"; "vb" |] ~out
          ~oweight:Join.No_weight (a, [| 0 |]) (b, [| 0 |])
      in
      let merge =
        Relational.Sort.merge_join ~name:"m" ~cols:[| "va"; "vb" |] ~out
          ~oweight:Join.No_weight
          (Relational.Sort.sort a [| 0 |], [| 0 |])
          (Relational.Sort.sort b [| 0 |], [| 0 |])
      in
      Tutil.table_rows_equal hash merge)

let test_merge_join_requires_sorted () =
  let t = Table.create ~name:"t" [| "k" |] in
  Table.append t [| 2 |];
  Table.append t [| 1 |];
  match
    Relational.Sort.merge_join ~name:"m" ~cols:[| "k" |]
      ~out:[| Join.Col (Join.Build, 0) |]
      ~oweight:Join.No_weight (t, [| 0 |]) (t, [| 0 |])
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_distinct_sorted_matches_hash_distinct =
  Tutil.qcheck_case "sorted distinct = hash distinct"
    QCheck.(list (pair (int_bound 6) (int_bound 6)))
    (fun rows ->
      let t = Table.create ~name:"t" [| "a"; "b" |] in
      List.iter (fun (a, b) -> Table.append t [| a; b |]) rows;
      let sorted = Relational.Sort.sort t [| 0; 1 |] in
      let d1 = Relational.Sort.distinct_sorted sorted [| 0; 1 |] in
      let d2 = Ops.distinct t [| 0; 1 |] in
      Tutil.rows_as_sorted_lists d1 = Tutil.rows_as_sorted_lists d2)

(* --- dbms model --- *)

let test_dbms_model () =
  let m = Relational.Dbms_model.default in
  (* The constants are derived from the paper's Table 3: Tuffy's four
     iterations over 30,912 rules should model to about 78.5 minutes. *)
  let modeled =
    Relational.Dbms_model.modeled_seconds m ~statements:(30_912 * 4)
      ~tables_created:0 ~measured:0.
  in
  Alcotest.(check bool) "within 10% of 78.5 min" true
    (Float.abs ((modeled /. 60.) -. 78.5) < 8.);
  let load =
    Relational.Dbms_model.modeled_seconds m ~statements:0 ~tables_created:83_000
      ~measured:0.
  in
  Alcotest.(check bool) "load within 10% of 18.2 min" true
    (Float.abs ((load /. 60.) -. 18.2) < 2.);
  Alcotest.(check (float 1e-9)) "zero model is identity" 1.5
    (Relational.Dbms_model.modeled_seconds Relational.Dbms_model.zero
       ~statements:1000 ~tables_created:1000 ~measured:1.5)

(* --- inline dedup --- *)

let test_join_inline_dedup () =
  let a = Table.create ~name:"a" [| "k"; "v" |] in
  let b = Table.create ~name:"b" [| "k"; "v" |] in
  (* Two build rows with the same projected output. *)
  Table.append a [| 1; 7 |];
  Table.append a [| 1; 7 |];
  Table.append b [| 1; 9 |];
  Table.append b [| 1; 9 |];
  let dup =
    Join.hash_join ~name:"j" ~cols:[| "k" |]
      ~out:[| Join.Col (Join.Build, 0) |]
      ~oweight:Join.No_weight (a, [| 0 |]) (b, [| 0 |])
  in
  check_int "without dedup: 4 rows" 4 (Table.nrows dup);
  let deduped =
    Join.hash_join ~name:"j" ~cols:[| "k" |]
      ~out:[| Join.Col (Join.Build, 0) |]
      ~oweight:Join.No_weight ~dedup:true (a, [| 0 |]) (b, [| 0 |])
  in
  check_int "with dedup: 1 row" 1 (Table.nrows deduped)

let test_join_dedup_qcheck =
  Tutil.qcheck_case "dedup join = distinct of raw join"
    QCheck.(pair (list (pair (int_bound 5) (int_bound 5)))
              (list (pair (int_bound 5) (int_bound 5))))
    (fun (xs, ys) ->
      let mk name rows =
        let t = Table.create ~name [| "k"; "v" |] in
        List.iter (fun (k, v) -> Table.append t [| k; v |]) rows;
        t
      in
      let a = mk "a" xs and b = mk "b" ys in
      let out = [| Join.Col (Join.Build, 1); Join.Col (Join.Probe, 1) |] in
      let raw =
        Join.hash_join ~name:"r" ~cols:[| "va"; "vb" |] ~out
          ~oweight:Join.No_weight (a, [| 0 |]) (b, [| 0 |])
      in
      let ded =
        Join.hash_join ~name:"d" ~cols:[| "va"; "vb" |] ~out
          ~oweight:Join.No_weight ~dedup:true (a, [| 0 |]) (b, [| 0 |])
      in
      Tutil.sorted_rows ded = Tutil.sorted_rows ~distinct:true raw)

(* --- parallel partitioned probe --- *)

(* Bit-exact comparison: same rows in the same order with the same
   weights — stronger than [Tutil.table_rows_equal]. *)
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

let with_pool4 f =
  let p4 = Pool.create 4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown p4) (fun () -> f p4)

let test_parallel_join_deterministic () =
  (* The pool runs whole joins, one per task of a region (as grounding
     runs its per-pattern queries).  Over a 6,000-row probe side, with
     and without inline dedup and weights, each join must produce on a
     worker domain the byte-identical table it produces on the calling
     domain, and the nested-loop oracle's rows. *)
  let st = Tutil.rng 23 in
  let a = random_table st "a" 500 40 in
  let b = random_table st "b" 6000 40 in
  let cases =
    Array.of_list
      (List.concat_map
         (fun dedup ->
           List.map
             (fun oweight -> (dedup, oweight))
             [ Join.No_weight; Join.Weight_of Join.Build ])
         [ false; true ])
  in
  let join (dedup, oweight) =
    Join.hash_join ~name:"j" ~cols:[| "k"; "va"; "vb" |] ~out:join_out
      ~oweight ~dedup (a, [| 0 |]) (b, [| 0 |])
  in
  let parallel =
    with_pool4 (fun p4 ->
        Tutil.in_region p4 (Array.length cases) (fun i -> join cases.(i)))
  in
  Array.iteri
    (fun i ((dedup, oweight) as case) ->
      let label = Printf.sprintf "dedup=%b weighted=%b" dedup (oweight <> Join.No_weight) in
      Alcotest.(check bool)
        (label ^ " identical")
        true
        (tables_identical (join case) parallel.(i));
      Alcotest.(check bool)
        (label ^ " = nested loop")
        true
        (Tutil.table_rows_equal parallel.(i)
           (Join_oracle.nested_loop ~name:"j" ~cols:[| "k"; "va"; "vb" |]
              ~out:join_out ~oweight ~dedup (a, [| 0 |]) (b, [| 0 |]))))
    cases

(* [hash_join_pre] over a segmented source — ragged segments, an empty
   one among them, 6,000 rows in all — is the same join over the
   resident table, bit for bit: rows, order, weights, dedup winners and
   the row ids a residual sees. *)
let test_join_segmented_source () =
  let st = Tutil.rng 31 in
  let a = random_table st "a" 500 40 in
  let b = random_table st "b" 6000 40 in
  let src = Tutil.segmented b [ 0; 1000; 1001; 1001; 3500; 6000 ] in
  let residual br prow = (Table.get b prow 1 + br) mod 3 <> 0 in
  List.iter
    (fun dedup ->
      List.iter
        (fun oweight ->
          let join source =
            Join.hash_join_pre ~name:"j" ~cols:[| "k"; "va"; "vb" |]
              ~out:join_out ~oweight ~dedup ~residual
              (Index.build a [| 0 |])
              (source, [| 0 |])
          in
          Alcotest.(check bool)
            (Printf.sprintf "dedup=%b segmented = resident" dedup)
            true
            (tables_identical
               (join (Relational.Pipeline.of_table b))
               (join (Relational.Pipeline.Segments src))))
        Join.[ No_weight; Weight_of Build; Weight_of Probe ])
    [ false; true ]

let test_parallel_distinct_deterministic () =
  (* DISTINCT over 10,000 rows, run on the calling domain and as the
     tasks of a 4-domain region, keeps exactly each key's first row, in
     row order. *)
  let st = Tutil.rng 29 in
  let t = Table.create ~name:"t" [| "k"; "v"; "u" |] in
  for i = 1 to 10_000 do
    Table.append t [| Random.State.int st 50; Random.State.int st 20; i |]
  done;
  let seen = Hashtbl.create 1024 in
  let first =
    Table.filter t (fun r ->
        let key = (Table.get t r 0, Table.get t r 1) in
        (not (Hashtbl.mem seen key)) && (Hashtbl.add seen key (); true))
  in
  let key = [| 0; 1 |] in
  let parallel =
    with_pool4 (fun p4 -> Tutil.in_region p4 4 (fun _ -> Ops.distinct t key))
  in
  Alcotest.(check bool)
    "distinct = first occurrences" true
    (tables_identical first (Ops.distinct t key));
  Array.iter
    (fun d ->
      Alcotest.(check bool)
        "distinct on a worker identical" true (tables_identical first d))
    parallel

let test_nested_loop_dedup () =
  let a = Table.create ~name:"a" [| "k"; "v" |] in
  let b = Table.create ~name:"b" [| "k"; "v" |] in
  Table.append a [| 1; 7 |];
  Table.append a [| 1; 7 |];
  Table.append b [| 1; 9 |];
  Table.append b [| 1; 9 |];
  let run dedup =
    Join_oracle.nested_loop ~name:"j" ~cols:[| "k" |]
      ~out:[| Join.Col (Join.Build, 0) |]
      ~oweight:Join.No_weight ~dedup (a, [| 0 |]) (b, [| 0 |])
  in
  check_int "without dedup: 4 rows" 4 (Table.nrows (run false));
  check_int "with dedup: 1 row" 1 (Table.nrows (run true))

(* --- colstats --- *)

let test_colstats () =
  let t = Table.create ~name:"t" [| "a"; "b" |] in
  List.iter (fun (a, b) -> Table.append t [| a; b |])
    [ (1, 5); (1, 6); (2, 5); (3, 5) ];
  let st = Relational.Colstats.analyze t in
  check_int "ndv a" 3 (Relational.Colstats.ndv st 0);
  check_int "ndv b" 2 (Relational.Colstats.ndv st 1)

(* --- plans --- *)

let plan_fixture () =
  let people = Table.create ~name:"people" [| "id"; "city" |] in
  List.iter (fun (i, c) -> Table.append people [| i; c |])
    [ (1, 10); (2, 10); (3, 20); (4, 30) ];
  let cities = Table.create ~name:"cities" [| "city"; "country" |] in
  List.iter (fun (c, k) -> Table.append cities [| c; k |])
    [ (10, 100); (20, 100); (30, 200) ];
  (people, cities)

let test_plan_join_select_project () =
  let people, cities = plan_fixture () in
  (* SELECT people.id FROM people JOIN cities ON city WHERE country = 100,
     the WHERE clause a join with the one-row table {100}, as the
     grounding queries select rules by joining the partition tables *)
  let wanted = Table.create ~name:"wanted" [| "country" |] in
  Table.append wanted [| 100 |];
  let p =
    Relational.Plan.(
      Project
        ( [| 0 |],
          Equi_join
            {
              left =
                Equi_join
                  { left = Scan people; right = Scan cities;
                    lkey = [| 1 |]; rkey = [| 0 |] };
              right = Scan wanted;
              lkey = [| 3 |];
              rkey = [| 0 |];
            } ))
  in
  Alcotest.(check (array string)) "schema" [| "id" |] (Relational.Plan.columns p);
  let result = Relational.Sort.sort (Relational.Plan.run p) [| 0 |] in
  Alcotest.(check (list (list int))) "ids in country 100"
    [ [ 1 ]; [ 2 ]; [ 3 ] ]
    (List.init (Table.nrows result) (fun r -> Array.to_list (Table.row result r)))

let test_plan_matches_direct_operators =
  Tutil.qcheck_case "plan executor = direct operators"
    QCheck.(pair (list (pair (int_bound 6) (int_bound 6)))
              (list (pair (int_bound 6) (int_bound 6))))
    (fun (xs, ys) ->
      let mk name rows =
        let t = Table.create ~name [| "k"; "v" |] in
        List.iter (fun (k, v) -> Table.append t [| k; v |]) rows;
        t
      in
      let a = mk "a" xs and b = mk "b" ys in
      let via_plan =
        Relational.Plan.(
          run
            (Distinct
               ( None,
                 Equi_join
                   { left = Scan a; right = Scan b; lkey = [| 0 |]; rkey = [| 0 |] } )))
      in
      let direct =
        Ops.distinct
          (Join.hash_join ~name:"j" ~cols:[| "k"; "v"; "k2"; "v2" |]
             ~out:
               [| Join.Col (Join.Build, 0); Join.Col (Join.Build, 1);
                  Join.Col (Join.Probe, 0); Join.Col (Join.Probe, 1) |]
             ~oweight:Join.No_weight (a, [| 0 |]) (b, [| 0 |]))
          [| 0; 1; 2; 3 |]
      in
      Tutil.table_rows_equal via_plan direct)

let test_plan_rejects_bad_columns () =
  let t = Table.create ~name:"t" [| "a" |] in
  match Relational.Plan.(columns (Project ([| 3 |], Scan t))) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_plan_estimates_join () =
  (* Uniform keys: the estimate |L|*|R|/ndv should be within 2x of the
     actual join size. *)
  let st = Tutil.rng 17 in
  let mk name n =
    let t = Table.create ~name [| "k" |] in
    for _ = 1 to n do
      Table.append t [| Random.State.int st 50 |]
    done;
    t
  in
  let a = mk "a" 500 and b = mk "b" 300 in
  let p =
    Relational.Plan.(
      Equi_join { left = Scan a; right = Scan b; lkey = [| 0 |]; rkey = [| 0 |] })
  in
  let est = Relational.Plan.estimate_rows p in
  let actual = Table.nrows (Relational.Plan.run p) in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %d within 2x of actual %d" est actual)
    true
    (est > actual / 2 && est < actual * 2)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* EXPLAIN ANALYZE as [probkb expand --explain] prints it: one line per
   node with its estimate beside the rows it produced. *)
let test_plan_explain_renders () =
  let people, cities = plan_fixture () in
  let p =
    Relational.Plan.(
      Equi_join
        { left = Scan people; right = Scan cities; lkey = [| 1 |]; rkey = [| 0 |] })
  in
  let table, a = Relational.Plan.analyze p in
  let text = Fmt.str "%a" Relational.Plan.pp_analysis a in
  Alcotest.(check bool) "mentions scans, join and observed rows" true
    (contains_sub text "Seq Scan on people"
    && contains_sub text "Hash Join"
    && contains_sub text (Printf.sprintf "rows=%d" (Table.nrows table)))

let () =
  Alcotest.run "relational"
    [
      ( "dict",
        [
          Alcotest.test_case "roundtrip" `Quick test_dict_roundtrip;
          Alcotest.test_case "dense ids" `Quick test_dict_dense_ids;
        ] );
      ( "table",
        [
          Alcotest.test_case "append/get" `Quick test_table_append_get;
          Alcotest.test_case "weights" `Quick test_table_weights;
          Alcotest.test_case "filter/sub/copy" `Quick test_table_filter_sub_copy;
          Alcotest.test_case "append_from weights" `Quick
            test_table_append_from_weight_transfer;
        ] );
      ( "index",
        [
          Alcotest.test_case "basic" `Quick test_index_basic;
          Alcotest.test_case "incremental" `Quick test_index_incremental;
          test_index_vs_scan_qcheck;
        ] );
      ( "join",
        [
          Alcotest.test_case "vs nested loop" `Quick test_join_matches_nested_loop;
          Alcotest.test_case "residual" `Quick test_join_residual;
          Alcotest.test_case "weight propagation" `Quick
            test_join_weight_propagation;
          Alcotest.test_case "const output" `Quick test_join_const_output;
          Alcotest.test_case "multi-column key" `Quick test_join_multi_column_key;
          Alcotest.test_case "anti semi join" `Quick test_semi_join_absent;
          Alcotest.test_case "output sized by its rows" `Quick
            test_join_output_sized_by_rows;
          Alcotest.test_case "parallel join deterministic" `Quick
            test_parallel_join_deterministic;
          Alcotest.test_case "parallel distinct deterministic" `Quick
            test_parallel_distinct_deterministic;
          Alcotest.test_case "segmented probe = resident probe" `Quick
            test_join_segmented_source;
          Alcotest.test_case "nested loop dedup" `Quick test_nested_loop_dedup;
        ] );
      ( "sort",
        [
          Alcotest.test_case "sort orders" `Quick test_sort_orders_rows;
          Alcotest.test_case "sort stable" `Quick test_sort_is_stable;
          test_merge_join_matches_hash_join;
          Alcotest.test_case "merge join needs sorted input" `Quick
            test_merge_join_requires_sorted;
          test_distinct_sorted_matches_hash_distinct;
        ] );
      ( "plan",
        [
          Alcotest.test_case "colstats" `Quick test_colstats;
          Alcotest.test_case "join-select-project" `Quick
            test_plan_join_select_project;
          test_plan_matches_direct_operators;
          Alcotest.test_case "bad columns rejected" `Quick
            test_plan_rejects_bad_columns;
          Alcotest.test_case "join estimate" `Quick test_plan_estimates_join;
          Alcotest.test_case "explain renders" `Quick test_plan_explain_renders;
        ] );
      ( "stats-and-model",
        [
          Alcotest.test_case "dbms model constants" `Quick test_dbms_model;
          Alcotest.test_case "inline dedup" `Quick test_join_inline_dedup;
          test_join_dedup_qcheck;
        ] );
      ( "ops",
        [
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "distinct keeps first" `Quick
            test_distinct_keeps_first;
          Alcotest.test_case "group_count" `Quick test_group_count;
          Alcotest.test_case "union_all" `Quick test_union_all;
          test_distinct_qcheck;
          test_group_count_qcheck;
          Alcotest.test_case "group aggregates" `Quick test_group_aggregates;
          test_group_agg_matches_group_count;
        ] );
    ]
