module Clause = Mln.Clause
module Pattern = Mln.Pattern
module Partition = Mln.Partition
module Parse = Mln.Parse
module Pretty = Mln.Pretty

let dicts () =
  let rels = Relational.Dict.create () and clss = Relational.Dict.create () in
  ( (fun s -> Relational.Dict.intern rels s),
    (fun s -> Relational.Dict.intern clss s),
    rels,
    clss )

let parse line =
  let intern_rel, intern_cls, _, _ = dicts () in
  Parse.parse_rule ~intern_rel ~intern_cls line

(* --- clause construction and validity --- *)

let test_make_valid () =
  let c =
    Clause.make ~head_rel:0
      ~body:[ { Clause.rel = 1; a = Clause.X; b = Clause.Y } ]
      ~c1:0 ~c2:1 ~weight:1.0 ()
  in
  Alcotest.(check int) "body length" 1 (Clause.body_length c);
  Alcotest.(check bool) "not hard" false (Clause.is_hard c)

let test_make_rejects_c3_mismatch () =
  Alcotest.check_raises "one-atom body with c3"
    (Invalid_argument "Clause.make: invalid clause structure") (fun () ->
      ignore
        (Clause.make ~head_rel:0
           ~body:[ { Clause.rel = 1; a = Clause.X; b = Clause.Y } ]
           ~c1:0 ~c2:1 ~c3:2 ~weight:1.0 ()))

let test_make_rejects_repeated_var () =
  Alcotest.check_raises "q(x,x)"
    (Invalid_argument "Clause.make: invalid clause structure") (fun () ->
      ignore
        (Clause.make ~head_rel:0
           ~body:[ { Clause.rel = 1; a = Clause.X; b = Clause.X } ]
           ~c1:0 ~c2:1 ~weight:1.0 ()))

let test_hard_rule () =
  let c = parse "inf p(x:A, y:B) :- q(x, y)" in
  Alcotest.(check bool) "hard" true (Clause.is_hard c)

(* --- the six patterns --- *)

let pattern_examples =
  [
    (Pattern.P1, "1.0 p(x:A, y:B) :- q(x, y)");
    (Pattern.P2, "1.0 p(x:A, y:B) :- q(y, x)");
    (Pattern.P3, "1.0 p(x:A, y:B) :- q(z:C, x), r(z, y)");
    (Pattern.P4, "1.0 p(x:A, y:B) :- q(x, z:C), r(z, y)");
    (Pattern.P5, "1.0 p(x:A, y:B) :- q(z:C, x), r(y, z)");
    (Pattern.P6, "1.0 p(x:A, y:B) :- q(x, z:C), r(y, z)");
  ]

let test_classify_all_patterns () =
  List.iter
    (fun (expected, line) ->
      match Pattern.classify (parse line) with
      | Some p ->
        Alcotest.(check string)
          ("classify " ^ line) (Pattern.to_string expected)
          (Pattern.to_string p)
      | None -> Alcotest.failf "unclassified: %s" line)
    pattern_examples

let test_classify_is_stable_under_atom_order () =
  (* The parser normalizes body-atom order, so the y-atom may come first
     in the text. *)
  let c = parse "1.0 p(x:A, y:B) :- r(z:C, y), q(z, x)" in
  Alcotest.(check (option string)) "P3 after swap" (Some "M3")
    (Option.map Pattern.to_string (Pattern.classify c))

let test_index_of_index () =
  List.iter
    (fun p -> Alcotest.(check bool) "roundtrip" true (Pattern.of_index (Pattern.index p) = p))
    Pattern.all

let test_identifier_tuple_roundtrip () =
  List.iter
    (fun (p, line) ->
      let c = parse line in
      let row = Pattern.identifier_tuple p c in
      Alcotest.(check int) "arity" (Pattern.arity p) (Array.length row);
      let c' = Pattern.of_identifier_tuple p row c.Clause.weight in
      Alcotest.(check bool) ("roundtrip " ^ Pattern.to_string p) true
        (Clause.equal c c'))
    pattern_examples

(* --- partitions --- *)

let test_partition_counts () =
  let intern_rel, intern_cls, _, _ = dicts () in
  let rules =
    List.map
      (fun (_, l) -> Parse.parse_rule ~intern_rel ~intern_cls l)
      pattern_examples
  in
  let parts = Partition.of_rules (rules @ rules) in
  Alcotest.(check int) "total" 12 (Partition.rule_count parts);
  List.iter
    (fun p -> Alcotest.(check int) (Pattern.to_string p) 2 (Partition.count parts p))
    Pattern.all

let test_partition_roundtrip () =
  let intern_rel, intern_cls, _, _ = dicts () in
  let rules =
    List.map
      (fun (_, l) -> Parse.parse_rule ~intern_rel ~intern_cls l)
      pattern_examples
  in
  let parts = Partition.of_rules rules in
  let back = Partition.to_rules parts in
  Alcotest.(check int) "same count" (List.length rules) (List.length back);
  List.iter
    (fun c ->
      Alcotest.(check bool) "rule preserved" true
        (List.exists (Clause.equal c) back))
    rules

(* --- parser --- *)

let test_parse_weights () =
  Alcotest.(check (float 0.)) "float weight" 1.40 (parse "1.40 p(x:A, y:B) :- q(x, y)").Clause.weight;
  Alcotest.(check (float 0.)) "negative" (-0.5)
    (parse "-0.5 p(x:A, y:B) :- q(x, y)").Clause.weight;
  Alcotest.(check bool) "inf" true
    (Clause.is_hard (parse "inf p(x:A, y:B) :- q(x, y)"))

let test_parse_scientific_weights () =
  Alcotest.(check (float 1e-12)) "scientific" 1.5e-3
    (parse "1.5e-3 p(x:A, y:B) :- q(x, y)").Clause.weight;
  Alcotest.(check (float 1e-12)) "plus exponent" 2e2
    (parse "2e+2 p(x:A, y:B) :- q(x, y)").Clause.weight

let test_parse_class_consistency () =
  Alcotest.check_raises "conflicting classes"
    (Parse.Syntax_error "variable x annotated with both A and B") (fun () ->
      ignore (parse "1.0 p(x:A, y:B) :- q(x:B, y)"))

let test_parse_requires_class () =
  (match parse "1.0 p(x:A, y:B) :- q(z, x), r(z, y)" with
  | _ -> Alcotest.fail "expected failure: z unannotated"
  | exception Parse.Syntax_error _ -> ())

let test_parse_rejects_bad_head () =
  (match parse "1.0 p(y:A, x:B) :- q(x, y)" with
  | _ -> Alcotest.fail "expected failure"
  | exception Parse.Syntax_error _ -> ())

let test_parse_rejects_three_atoms () =
  (match parse "1.0 p(x:A, y:B) :- q(x, z:C), r(z, y), s(x, y)" with
  | _ -> Alcotest.fail "expected failure"
  | exception Parse.Syntax_error _ -> ())

let test_parse_lines_skips_comments () =
  let intern_rel, intern_cls, _, _ = dicts () in
  let rules =
    Parse.parse_lines ~intern_rel ~intern_cls
      [ "# a comment"; ""; "1.0 p(x:A, y:B) :- q(x, y)"; "   " ]
  in
  Alcotest.(check int) "one rule" 1 (List.length rules)

let test_pretty_parse_roundtrip () =
  let intern_rel, intern_cls, rels, clss = dicts () in
  List.iter
    (fun (_, line) ->
      let c = Parse.parse_rule ~intern_rel ~intern_cls line in
      let printed =
        Pretty.clause
          ~rel_name:(Relational.Dict.name rels)
          ~cls_name:(Relational.Dict.name clss)
          c
      in
      let c' = Parse.parse_rule ~intern_rel ~intern_cls printed in
      Alcotest.(check bool) ("roundtrip: " ^ printed) true (Clause.equal c c'))
    pattern_examples

(* --- property tests --- *)

let clause_gen =
  let open QCheck.Gen in
  let* pat = int_range 0 5 in
  let* r1 = int_range 0 20
  and* r2 = int_range 0 20
  and* r3 = int_range 0 20
  and* c1 = int_range 0 8
  and* c2 = int_range 0 8
  and* c3 = int_range 0 8
  and* w = float_range (-2.) 4. in
  let p = Pattern.of_index pat in
  let row =
    match p with
    | Pattern.P1 | Pattern.P2 -> [| r1; r2; c1; c2 |]
    | _ -> [| r1; r2; r3; c1; c2; c3 |]
  in
  return (p, Pattern.of_identifier_tuple p row w)

let arb_clause =
  QCheck.make ~print:(fun (p, _) -> Pattern.to_string p) clause_gen

let test_classify_generated =
  Tutil.qcheck_case ~count:500 "classify inverts of_identifier_tuple"
    arb_clause
    (fun (p, c) -> Pattern.classify c = Some p)

let test_tuple_roundtrip_generated =
  Tutil.qcheck_case ~count:500 "identifier tuple roundtrip" arb_clause
    (fun (p, c) ->
      let c' = Pattern.of_identifier_tuple p (Pattern.identifier_tuple p c) c.Clause.weight in
      Clause.equal c c')

(* Byte-fuzz over the rule parser: random bytes and mutated valid rules
   either parse or raise [Syntax_error], never another exception. *)
let test_parse_byte_fuzz =
  let valid =
    List.map snd pattern_examples
    @ [
        "1.40 live_in(x:W, y:P) :- born_in(x, y)";
        "-2.5e-1 located_in(x:P, y:C) :- live_in(z:W, x), live_in(z, y)";
        "inf same_city(x:City, y:City) :- capital_of(x, z:Country), \
         capital_of(y, z)";
      ]
  in
  Tutil.qcheck_case ~count:5000 "rule parser byte-fuzz: a rule or Syntax_error"
    (Tutil.arb_fuzzed ~alphabet:"():-,.: xyzeE0123456789inf" valid)
    (fun line ->
      match parse line with
      | _ | (exception Parse.Syntax_error _) -> true
      | exception e ->
        QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let () =
  Alcotest.run "mln"
    [
      ( "clause",
        [
          Alcotest.test_case "make valid" `Quick test_make_valid;
          Alcotest.test_case "reject c3 mismatch" `Quick
            test_make_rejects_c3_mismatch;
          Alcotest.test_case "reject repeated var" `Quick
            test_make_rejects_repeated_var;
          Alcotest.test_case "hard rule" `Quick test_hard_rule;
        ] );
      ( "pattern",
        [
          Alcotest.test_case "classify all six" `Quick test_classify_all_patterns;
          Alcotest.test_case "atom order normalization" `Quick
            test_classify_is_stable_under_atom_order;
          Alcotest.test_case "index roundtrip" `Quick test_index_of_index;
          Alcotest.test_case "identifier tuples" `Quick
            test_identifier_tuple_roundtrip;
          test_classify_generated;
          test_tuple_roundtrip_generated;
        ] );
      ( "partition",
        [
          Alcotest.test_case "counts" `Quick test_partition_counts;
          Alcotest.test_case "roundtrip" `Quick test_partition_roundtrip;
        ] );
      ( "parse",
        [
          Alcotest.test_case "weights" `Quick test_parse_weights;
          test_parse_byte_fuzz;
          Alcotest.test_case "scientific weights" `Quick
            test_parse_scientific_weights;
          Alcotest.test_case "class consistency" `Quick
            test_parse_class_consistency;
          Alcotest.test_case "class required" `Quick test_parse_requires_class;
          Alcotest.test_case "bad head" `Quick test_parse_rejects_bad_head;
          Alcotest.test_case "three atoms" `Quick test_parse_rejects_three_atoms;
          Alcotest.test_case "comments" `Quick test_parse_lines_skips_comments;
          Alcotest.test_case "pretty roundtrip" `Quick
            test_pretty_parse_roundtrip;
        ] );
    ]
