module Gamma = Kb.Gamma
module Storage = Kb.Storage
module Funcon = Kb.Funcon
module Loader = Kb.Loader
module Table = Relational.Table

let check_int = Alcotest.(check int)

(* --- storage --- *)

let test_storage_add_dedup () =
  let s = Storage.create () in
  (match Storage.add s ~r:1 ~x:2 ~c1:3 ~y:4 ~c2:5 ~w:0.5 with
  | `Added id -> check_int "first id" 0 id
  | `Dup _ -> Alcotest.fail "unexpected dup");
  (match Storage.add s ~r:1 ~x:2 ~c1:3 ~y:4 ~c2:5 ~w:0.9 with
  | `Dup id -> check_int "dup id" 0 id
  | `Added _ -> Alcotest.fail "expected dup");
  check_int "size" 1 (Storage.size s)

let test_storage_find () =
  let s = Storage.create () in
  ignore (Storage.add s ~r:1 ~x:2 ~c1:3 ~y:4 ~c2:5 ~w:0.5);
  Alcotest.(check (option int)) "found" (Some 0)
    (Storage.find s ~r:1 ~x:2 ~c1:3 ~y:4 ~c2:5);
  Alcotest.(check (option int)) "class matters" None
    (Storage.find s ~r:1 ~x:2 ~c1:9 ~y:4 ~c2:5)

let test_storage_merge_new () =
  let s = Storage.create () in
  ignore (Storage.add s ~r:1 ~x:1 ~c1:1 ~y:1 ~c2:1 ~w:0.5);
  let t = Table.create ~name:"new" [| "R"; "x"; "C1"; "y"; "C2" |] in
  Table.append t [| 1; 1; 1; 1; 1 |] (* dup *);
  Table.append t [| 2; 1; 1; 1; 1 |];
  Table.append t [| 2; 1; 1; 1; 1 |] (* dup within batch *);
  check_int "added" 1 (Storage.merge_new s t);
  check_int "size" 2 (Storage.size s);
  (* Merged facts have null weights (inferred). *)
  let nulls = ref 0 in
  Storage.iter
    (fun ~id:_ ~r:_ ~x:_ ~c1:_ ~y:_ ~c2:_ ~w ->
      if Table.is_null_weight w then incr nulls)
    s;
  check_int "inferred null weight" 1 !nulls

let test_storage_delete_preserves_ids () =
  let s = Storage.create () in
  for i = 0 to 9 do
    ignore (Storage.add s ~r:i ~x:0 ~c1:0 ~y:0 ~c2:0 ~w:1.0)
  done;
  let removed = Storage.delete_where s (fun t row -> Table.get t row 1 mod 2 = 0) in
  check_int "removed" 5 removed;
  check_int "size" 5 (Storage.size s);
  (* Surviving facts keep their ids, and new facts get fresh ids. *)
  Alcotest.(check (option int)) "id stable" (Some 3)
    (Storage.find s ~r:3 ~x:0 ~c1:0 ~y:0 ~c2:0);
  (match Storage.add s ~r:100 ~x:0 ~c1:0 ~y:0 ~c2:0 ~w:1.0 with
  | `Added id -> check_int "fresh id" 10 id
  | `Dup _ -> Alcotest.fail "dup");
  Alcotest.(check (option int)) "row_of_id after delete" None
    (Storage.row_of_id s 0)

let test_storage_batched_delete () =
  let s = Storage.create () in
  for i = 0 to 19 do
    ignore (Storage.add s ~r:i ~x:0 ~c1:0 ~y:0 ~c2:0 ~w:1.0)
  done;
  check_int "no rebuilds yet" 0 (Storage.index_rebuilds s);
  (* One batch of tombstones costs exactly one compaction + rebuild. *)
  let removed = Storage.delete_ids s [ 0; 2; 4; 6; 8; 10 ] in
  check_int "batch removed" 6 removed;
  check_int "one rebuild for the whole batch" 1 (Storage.index_rebuilds s);
  (* A pending tombstone hides the fact from [find] but keeps the row. *)
  Storage.mark_deleted s 1;
  check_int "pending" 1 (Storage.pending_deletes s);
  Alcotest.(check (option int)) "tombstoned fact invisible to find" None
    (Storage.find s ~r:1 ~x:0 ~c1:0 ~y:0 ~c2:0);
  check_int "row still physical" 14 (Table.nrows (Storage.table s));
  check_int "size counts live facts" 13 (Storage.size s);
  check_int "still one rebuild" 1 (Storage.index_rebuilds s);
  check_int "flush removes it" 1 (Storage.flush_deletes s);
  check_int "second rebuild" 2 (Storage.index_rebuilds s);
  check_int "empty flush is free" 0 (Storage.flush_deletes s);
  check_int "no rebuild on empty flush" 2 (Storage.index_rebuilds s);
  (* delete_where is one batch too. *)
  let removed = Storage.delete_where s (fun t row -> Table.get t row 1 < 9) in
  check_int "predicate batch" 3 removed;
  check_int "one more rebuild" 3 (Storage.index_rebuilds s);
  (* ban_id bans a live fact's key without deleting it. *)
  Storage.ban_id s 11;
  check_int "fact 11 still present" 10 (Storage.size s);
  Alcotest.(check bool) "key banned" true
    (Storage.is_banned s ~r:11 ~x:0 ~c1:0 ~y:0 ~c2:0)

let test_storage_copy_independent () =
  let s = Storage.create () in
  ignore (Storage.add s ~r:1 ~x:1 ~c1:1 ~y:1 ~c2:1 ~w:1.0);
  let c = Storage.copy s in
  ignore (Storage.add c ~r:2 ~x:1 ~c1:1 ~y:1 ~c2:1 ~w:1.0);
  check_int "original unchanged" 1 (Storage.size s);
  check_int "copy grew" 2 (Storage.size c)

(* The maintained partial-key indexes track the table through every
   mutation: after a random sequence of add / merge_new / delete_ids /
   copy, each index yields exactly a scan's matches, in descending row
   order, for every key of the (small) key space; and [row_of_id] finds
   every stored id and no other. *)
type storage_op =
  | Add of (int * int * int * int * int)
  | Merge of (int * int * int * int * int) list
  | Delete of int list
  | Copy

let gen_storage_op =
  let open QCheck.Gen in
  let v = int_bound 2 in
  let key =
    map (fun (r, x, c1, (y, c2)) -> (r, x, c1, y, c2)) (quad v v v (pair v v))
  in
  frequency
    [
      (4, map (fun k -> Add k) key);
      (2, map (fun ks -> Merge ks) (list_size (int_bound 6) key));
      (2, map (fun ids -> Delete ids) (list_size (int_bound 4) (int_bound 40)));
      (1, return Copy);
    ]

let partial_indexes_match s =
  let t = Storage.table s in
  let check key =
    let idx = Storage.partial_index s key in
    let ok = ref (Relational.Index.size idx = Table.nrows t) in
    for r = 0 to 2 do
      for c1 = 0 to 2 do
        for c2 = 0 to 2 do
          for v = 0 to 2 do
            let kv = [| r; c1; c2; v |] in
            let scan = ref [] in
            for row = 0 to Table.nrows t - 1 do
              if Array.for_all2 (fun c k -> Table.get t row c = k) key kv then
                scan := row :: !scan
            done;
            let probed = ref [] in
            Relational.Index.iter_matches idx kv (fun row ->
                probed := row :: !probed);
            if List.rev !probed <> !scan then ok := false
          done
        done
      done
    done;
    !ok
  in
  let ids_found =
    List.for_all
      (fun row -> Storage.row_of_id s (Table.get t row 0) = Some row)
      (List.init (Table.nrows t) Fun.id)
  in
  let present id =
    List.exists
      (fun row -> Table.get t row 0 = id)
      (List.init (Table.nrows t) Fun.id)
  in
  let absent_missed =
    List.for_all
      (fun id -> present id || Storage.row_of_id s id = None)
      (List.init (Storage.next_id s + 2) (fun i -> i - 1))
  in
  (* The x key (R, C1, C2, x) and the y key (R, C1, C2, y). *)
  check [| 1; 3; 5; 2 |] && check [| 1; 3; 5; 4 |] && ids_found
  && absent_missed

(* The key index — built, extended by appends, or blitted onto a copied
   table by [Storage.copy] — answers [find] and [iter_matches] exactly
   as an index freshly built over the current table, for every key of
   the (small) key space. *)
let key_index_matches s =
  let t = Storage.table s in
  let fresh = Relational.Index.build t Storage.key_cols in
  let idx = Storage.key_index s in
  let rows idx kv =
    let acc = ref [] in
    Relational.Index.iter_matches idx kv (fun row -> acc := row :: !acc);
    !acc
  in
  let ok = ref (Relational.Index.size idx = Relational.Index.size fresh) in
  for k = 0 to (3 * 3 * 3 * 3 * 3) - 1 do
    let r = k mod 3 and x = k / 3 mod 3 and c1 = k / 9 mod 3
    and y = k / 27 mod 3 and c2 = k / 81 in
    let kv = [| r; x; c1; y; c2 |] in
    let expected =
      Option.map
        (fun row -> Table.get t row 0)
        (Relational.Index.first_match fresh kv)
    in
    if rows idx kv <> rows fresh kv || Storage.find s ~r ~x ~c1 ~y ~c2 <> expected
    then ok := false
  done;
  !ok

let test_partial_indexes_qcheck =
  Tutil.qcheck_case ~count:200 "partial indexes = scan after random mutations"
    QCheck.(pair bool (make (Gen.list_size (Gen.int_bound 24) gen_storage_op)))
    (fun (early, ops) ->
      let s = ref (Storage.create ()) in
      (* Built before the mutations (then maintained) or only at the end. *)
      if early then Storage.build_partial_indexes !s;
      List.for_all
        (fun op ->
          (match op with
          | Add (r, x, c1, y, c2) ->
            ignore (Storage.add !s ~r ~x ~c1 ~y ~c2 ~w:0.5)
          | Merge ks ->
            let t = Table.create ~name:"n" [| "R"; "x"; "C1"; "y"; "C2" |] in
            List.iter
              (fun (r, x, c1, y, c2) -> Table.append t [| r; x; c1; y; c2 |])
              ks;
            ignore (Storage.merge_new !s t)
          | Delete ids -> ignore (Storage.delete_ids !s ids)
          | Copy -> s := Storage.copy !s);
          key_index_matches !s)
        ops
      && partial_indexes_match !s)

(* [Storage.copy] blits the key index instead of rebuilding it, so a copy
   taken after appends have rehashed the index (from 16 buckets at 12
   rows, then at 24 and 48) must still answer as a fresh index, and so
   must both sides after further appends to each. *)
let test_key_index_copy_after_rehash () =
  let s = Storage.create () in
  let add s k =
    ignore
      (Storage.add s ~r:(k mod 3) ~x:(k / 3 mod 3) ~c1:(k / 9 mod 3)
         ~y:(k / 27 mod 3) ~c2:(k / 81) ~w:0.5)
  in
  for k = 0 to 59 do
    add s k;
    let c = Storage.copy s in
    Alcotest.(check bool)
      (Printf.sprintf "copy at %d rows answers as a fresh index" (k + 1))
      true (key_index_matches c);
    add c (k + 100);
    add c (k + 130);
    Alcotest.(check bool) "the copy keeps extending" true (key_index_matches c);
    Alcotest.(check bool) "the original is untouched" true
      (key_index_matches s && Storage.size s = k + 1)
  done

let test_storage_merge_qcheck =
  Tutil.qcheck_case "merge_new = set union on keys"
    QCheck.(pair (list (pair (int_bound 4) (int_bound 4)))
              (list (pair (int_bound 4) (int_bound 4))))
    (fun (base, extra) ->
      let s = Storage.create () in
      List.iter (fun (r, x) -> ignore (Storage.add s ~r ~x ~c1:0 ~y:0 ~c2:0 ~w:1.0)) base;
      let t = Table.create ~name:"n" [| "R"; "x"; "C1"; "y"; "C2" |] in
      List.iter (fun (r, x) -> Table.append t [| r; x; 0; 0; 0 |]) extra;
      ignore (Storage.merge_new s t);
      let expected =
        List.sort_uniq compare (List.map (fun (r, x) -> (r, x)) (base @ extra))
      in
      Storage.size s = List.length expected)

(* --- gamma --- *)

let test_gamma_membership_and_signatures () =
  let kb = Gamma.create () in
  let id =
    Gamma.add_fact_by_name kb ~r:"born_in" ~x:"ruth" ~c1:"W" ~y:"nyc" ~c2:"C"
      ~w:0.96
  in
  check_int "fact id" 0 id;
  let w = Gamma.cls kb "W" and c = Gamma.cls kb "C" in
  let ruth = Gamma.entity kb "ruth" and nyc = Gamma.entity kb "nyc" in
  Alcotest.(check bool) "ruth in W" true (Gamma.member kb ~cls:w ~entity:ruth);
  Alcotest.(check bool) "nyc in C" true (Gamma.member kb ~cls:c ~entity:nyc);
  Alcotest.(check bool) "ruth not in C" false (Gamma.member kb ~cls:c ~entity:ruth);
  check_int "TR rows" 1 (Table.nrows (Gamma.tr kb));
  (* Idempotent declarations. *)
  ignore
    (Gamma.add_fact_by_name kb ~r:"born_in" ~x:"ruth" ~c1:"W" ~y:"bk" ~c2:"C"
       ~w:0.93);
  check_int "TR rows unchanged" 1 (Table.nrows (Gamma.tr kb));
  check_int "TC rows" 3 (Table.nrows (Gamma.tc kb))

let test_gamma_subclass () =
  let kb = Gamma.create () in
  let city = Gamma.cls kb "City" and place = Gamma.cls kb "Place" in
  let a = Gamma.entity kb "a" and b = Gamma.entity kb "b" in
  Gamma.declare_member kb ~cls:city ~entity:a;
  Gamma.declare_member kb ~cls:place ~entity:a;
  Gamma.declare_member kb ~cls:place ~entity:b;
  Alcotest.(check bool) "City ⊆ Place" true (Gamma.subclass kb ~sub:city ~super:place);
  Alcotest.(check bool) "Place ⊄ City" false (Gamma.subclass kb ~sub:place ~super:city)

let test_gamma_stats () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let s = Gamma.stats kb in
  check_int "entities" 3 s.Gamma.n_entities;
  check_int "classes" 3 s.Gamma.n_classes;
  check_int "relations" 4 s.Gamma.n_relations;
  check_int "rules" 6 s.Gamma.n_rules;
  check_int "facts" 2 s.Gamma.n_facts

let test_gamma_rejects_hard_rule () =
  let kb = Gamma.create () in
  let c =
    Mln.Parse.parse_rule
      ~intern_rel:(Gamma.relation kb)
      ~intern_cls:(Gamma.cls kb)
      "inf p(x:A, y:B) :- q(x, y)"
  in
  Alcotest.check_raises "hard rules rejected"
    (Invalid_argument "Gamma.add_rule: hard rules belong in Omega") (fun () ->
      Gamma.add_rule kb c)

(* --- funcon --- *)

let test_funcon_table_roundtrip () =
  let cs =
    [
      Funcon.make ~rel:3 ~ftype:Funcon.Type_I ~degree:1;
      Funcon.make ~rel:7 ~ftype:Funcon.Type_II ~degree:4;
    ]
  in
  let t = Funcon.to_table cs in
  check_int "rows" 2 (Table.nrows t);
  Alcotest.(check bool) "roundtrip" true (Funcon.of_table t = cs)

let test_funcon_rejects_degree_zero () =
  Alcotest.check_raises "degree 0"
    (Invalid_argument "Funcon.make: degree must be >= 1") (fun () ->
      ignore (Funcon.make ~rel:0 ~ftype:Funcon.Type_I ~degree:0))

(* --- loader --- *)

let test_loader_facts () =
  let kb = Gamma.create () in
  let n =
    Loader.load_facts kb
      [
        "# comment";
        "born_in\truth\tW\tnyc\tC\t0.96";
        "born_in\truth\tW\tbk\tP\t0.93";
        "born_in\truth\tW\tnyc\tC\t0.96";
        "";
      ]
  in
  check_int "loaded" 2 n;
  check_int "facts" 2 (Storage.size (Gamma.pi kb))

let test_loader_rules_and_constraints () =
  let kb = Gamma.create () in
  check_int "rules" 1
    (Loader.load_rules kb [ "1.0 p(x:A, y:B) :- q(x, y)" ]);
  check_int "constraints" 2
    (Loader.load_constraints kb [ "born_in\tI\t1"; "capital_of\tII\t2" ]);
  match Gamma.omega kb with
  | [ a; b ] ->
    Alcotest.(check bool) "type I" true (a.Funcon.ftype = Funcon.Type_I);
    Alcotest.(check bool) "deg" true (b.Funcon.degree = 2)
  | _ -> Alcotest.fail "expected two constraints"

let test_loader_bad_input () =
  let kb = Gamma.create () in
  (match Loader.load_facts kb [ "only\tthree\tfields" ] with
  | _ -> Alcotest.fail "expected Load_error"
  | exception Loader.Load_error _ -> ());
  (match Loader.load_facts kb [ "r\tx\tA\ty\tB\tnotafloat" ] with
  | _ -> Alcotest.fail "expected Load_error"
  | exception Loader.Load_error _ -> ());
  match Loader.load_constraints kb [ "r\tIII\t1" ] with
  | _ -> Alcotest.fail "expected Load_error"
  | exception Loader.Load_error _ -> ()

let test_loader_save_load_roundtrip () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  ignore (Grounding.Ground.run kb);
  let path = Filename.temp_file "probkb" ".tsv" in
  let oc = open_out path in
  Loader.save_facts kb oc;
  close_out oc;
  let kb2 = Gamma.create () in
  let n = Loader.load_facts_file kb2 path in
  Sys.remove path;
  check_int "all facts reloaded" (Storage.size (Gamma.pi kb)) n;
  (* Inferred facts keep their null weight through the roundtrip. *)
  let nulls s =
    let n = ref 0 in
    Storage.iter
      (fun ~id:_ ~r:_ ~x:_ ~c1:_ ~y:_ ~c2:_ ~w ->
        if Table.is_null_weight w then incr n)
      s;
    !n
  in
  check_int "null weights preserved" (nulls (Gamma.pi kb)) (nulls (Gamma.pi kb2))

(* --- query --- *)

let query_fixture () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  ignore (Grounding.Ground.run kb);
  (kb, Kb.Query.prepare (Gamma.pi kb))

let test_query_lookup () =
  let kb, q = query_fixture () in
  check_int "snapshot size" 7 (Kb.Query.size q);
  let born = Gamma.relation kb "born_in" in
  check_int "by relation" 2 (List.length (Kb.Query.lookup q ~r:born ()));
  let rg = Gamma.entity kb "Ruth Gruber" in
  check_int "by relation+subject" 2
    (List.length (Kb.Query.lookup q ~r:born ~x:rg ()));
  let nyc = Gamma.entity kb "New York City" in
  check_int "fully bound" 1
    (List.length (Kb.Query.lookup q ~r:born ~x:rg ~y:nyc ()));
  check_int "unbound = all" 7 (List.length (Kb.Query.lookup q ()));
  check_int "no match" 0
    (List.length (Kb.Query.lookup q ~r:born ~x:nyc ()))

let test_query_about () =
  let kb, q = query_fixture () in
  let brooklyn = Gamma.entity kb "Brooklyn" in
  (* born_in, live_in, grow_up_in (as object) + located_in (as subject). *)
  check_int "mentions of Brooklyn" 4 (List.length (Kb.Query.about q brooklyn))

let test_query_top_k () =
  let kb, q = query_fixture () in
  let top = Kb.Query.top_k q ~k:2 () in
  check_int "k results" 2 (List.length top);
  (* The two extraction-weighted facts outrank the unscored inferred ones. *)
  Alcotest.(check (float 1e-9)) "best" 0.96 (List.hd top).Kb.Query.weight;
  let born = Gamma.relation kb "born_in" in
  check_int "per-relation top" 2
    (List.length (Kb.Query.top_k q ~r:born ~k:10 ()))

let test_query_relations () =
  let kb, q = query_fixture () in
  let rels = Kb.Query.relations q in
  check_int "four relations" 4 (List.length rels);
  let born = Gamma.relation kb "born_in" in
  check_int "count born_in" 2 (Kb.Query.count q ~r:born);
  (* Counts sum to the store size. *)
  check_int "counts sum" 7 (List.fold_left (fun a (_, n) -> a + n) 0 rels)

let () =
  Alcotest.run "kb"
    [
      ( "storage",
        [
          Alcotest.test_case "add dedup" `Quick test_storage_add_dedup;
          Alcotest.test_case "find" `Quick test_storage_find;
          Alcotest.test_case "merge_new" `Quick test_storage_merge_new;
          Alcotest.test_case "delete preserves ids" `Quick
            test_storage_delete_preserves_ids;
          Alcotest.test_case "batched delete" `Quick
            test_storage_batched_delete;
          Alcotest.test_case "copy" `Quick test_storage_copy_independent;
          test_storage_merge_qcheck;
          test_partial_indexes_qcheck;
          Alcotest.test_case "key index copies after rehash" `Quick
            test_key_index_copy_after_rehash;
        ] );
      ( "gamma",
        [
          Alcotest.test_case "membership/signatures" `Quick
            test_gamma_membership_and_signatures;
          Alcotest.test_case "subclass" `Quick test_gamma_subclass;
          Alcotest.test_case "stats" `Quick test_gamma_stats;
          Alcotest.test_case "hard rules rejected" `Quick
            test_gamma_rejects_hard_rule;
        ] );
      ( "funcon",
        [
          Alcotest.test_case "table roundtrip" `Quick test_funcon_table_roundtrip;
          Alcotest.test_case "degree >= 1" `Quick test_funcon_rejects_degree_zero;
        ] );
      ( "query",
        [
          Alcotest.test_case "lookup" `Quick test_query_lookup;
          Alcotest.test_case "about" `Quick test_query_about;
          Alcotest.test_case "top_k" `Quick test_query_top_k;
          Alcotest.test_case "relations" `Quick test_query_relations;
        ] );
      ( "loader",
        [
          Alcotest.test_case "facts" `Quick test_loader_facts;
          Alcotest.test_case "rules/constraints" `Quick
            test_loader_rules_and_constraints;
          Alcotest.test_case "bad input" `Quick test_loader_bad_input;
          Alcotest.test_case "save/load roundtrip" `Quick
            test_loader_save_load_roundtrip;
        ] );
    ]
