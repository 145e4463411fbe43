module Gamma = Kb.Gamma
module Storage = Kb.Storage
module Funcon = Kb.Funcon
module Semantic = Quality.Semantic
module RC = Quality.Rule_cleaning
module EA = Quality.Error_analysis

let check_int = Alcotest.(check int)

(* The Figure 5(b) scenario: Mandel born in three places. *)
let mandel_kb () =
  let kb = Gamma.create () in
  let add x y =
    ignore
      (Gamma.add_fact_by_name kb ~r:"born_in" ~x ~c1:"Person" ~y ~c2:"Place"
         ~w:0.9)
  in
  add "Mandel" "Berlin";
  add "Mandel" "New York City";
  add "Mandel" "Chicago";
  add "Miller" "Placentia";
  Gamma.add_funcon kb
    (Funcon.make ~rel:(Gamma.relation kb "born_in") ~ftype:Funcon.Type_I
       ~degree:1);
  kb

let test_violation_detection () =
  let kb = mandel_kb () in
  let vs = Semantic.violations (Gamma.pi kb) (Gamma.omega kb) in
  check_int "one violating entity" 1 (List.length vs);
  let v = List.hd vs in
  check_int "the entity is Mandel" (Gamma.entity kb "Mandel") v.Semantic.entity;
  check_int "count" 3 v.Semantic.count;
  check_int "degree" 1 v.Semantic.degree

let test_violation_group () =
  let kb = mandel_kb () in
  let vs = Semantic.violations (Gamma.pi kb) (Gamma.omega kb) in
  let group = Semantic.violation_group (Gamma.pi kb) (List.hd vs) in
  check_int "three facts in the group" 3 (List.length group);
  Alcotest.(check bool) "all are base facts" true
    (List.for_all (fun (_, inferred) -> not inferred) group)

let test_apply_deletes_violators () =
  let kb = mandel_kb () in
  let deleted = Semantic.apply (Gamma.pi kb) (Gamma.omega kb) in
  check_int "Mandel's facts deleted" 3 deleted;
  check_int "Miller survives" 1 (Storage.size (Gamma.pi kb));
  (* Idempotent. *)
  check_int "second apply is a no-op" 0
    (Semantic.apply (Gamma.pi kb) (Gamma.omega kb))

let test_pseudo_functional_degree () =
  let kb = Gamma.create () in
  let add x y =
    ignore
      (Gamma.add_fact_by_name kb ~r:"live_in" ~x ~c1:"Person" ~y ~c2:"Country"
         ~w:0.9)
  in
  add "Ann" "France";
  add "Ann" "Spain";
  Gamma.add_funcon kb
    (Funcon.make ~rel:(Gamma.relation kb "live_in") ~ftype:Funcon.Type_I
       ~degree:2);
  check_int "degree 2 tolerates two countries" 0
    (List.length (Semantic.violations (Gamma.pi kb) (Gamma.omega kb)));
  add "Ann" "Italy";
  check_int "three violate" 1
    (List.length (Semantic.violations (Gamma.pi kb) (Gamma.omega kb)))

let test_type_ii () =
  (* capital_of is Type II: a country has one capital. *)
  let kb = Gamma.create () in
  let add x y =
    ignore
      (Gamma.add_fact_by_name kb ~r:"capital_of" ~x ~c1:"City" ~y ~c2:"Country"
         ~w:0.9)
  in
  add "Delhi" "India";
  add "Calcutta" "India";
  Gamma.add_funcon kb
    (Funcon.make ~rel:(Gamma.relation kb "capital_of") ~ftype:Funcon.Type_II
       ~degree:1);
  let vs = Semantic.violations (Gamma.pi kb) (Gamma.omega kb) in
  check_int "India violates" 1 (List.length vs);
  check_int "entity is India" (Gamma.entity kb "India")
    (List.hd vs).Semantic.entity;
  check_int "both capital facts removed" 2
    (Semantic.apply (Gamma.pi kb) (Gamma.omega kb))

let test_unconstrained_relation_ignored () =
  let kb = Gamma.create () in
  for i = 0 to 4 do
    ignore
      (Gamma.add_fact_by_name kb ~r:"likes" ~x:"Ann"
         ~c1:"Person"
         ~y:(Printf.sprintf "thing%d" i)
         ~c2:"Thing" ~w:0.9)
  done;
  Gamma.add_funcon kb
    (Funcon.make ~rel:(Gamma.relation kb "born_in") ~ftype:Funcon.Type_I
       ~degree:1);
  check_int "likes is not constrained" 0
    (List.length (Semantic.violations (Gamma.pi kb) (Gamma.omega kb)))

let test_ban_prevents_rederivation () =
  (* A banned fact key cannot come back through merge_new. *)
  let kb = Gamma.create () in
  ignore (Kb.Loader.load_rules kb [ "1.0 p(x:A, y:B) :- q(x, y)" ]);
  ignore (Gamma.add_fact_by_name kb ~r:"q" ~x:"a" ~c1:"A" ~y:"b" ~c2:"B" ~w:0.9);
  ignore (Gamma.add_fact_by_name kb ~r:"p" ~x:"a" ~c1:"A" ~y:"b" ~c2:"B" ~w:0.9);
  ignore (Gamma.add_fact_by_name kb ~r:"p" ~x:"a" ~c1:"A" ~y:"c" ~c2:"B" ~w:0.9);
  Gamma.add_funcon kb
    (Funcon.make ~rel:(Gamma.relation kb "p") ~ftype:Funcon.Type_I ~degree:1);
  (* 'a' violates p's functionality; both p-facts are deleted and banned;
     the rule would re-derive p(a,b) from q(a,b) but must not. *)
  ignore
    (Grounding.Ground.run
       ~options:
         {
           Grounding.Ground.default_options with
           apply_constraints = Some (Semantic.hook (Gamma.omega kb));
         }
       kb);
  Alcotest.(check (option int)) "p(a,b) stays deleted" None
    (Storage.find (Gamma.pi kb)
       ~r:(Gamma.relation kb "p")
       ~x:(Gamma.entity kb "a") ~c1:(Gamma.cls kb "A")
       ~y:(Gamma.entity kb "b") ~c2:(Gamma.cls kb "B"))

(* --- Query 3 against an independent count --- *)

(* A random TΠ of 2,048–8,000 facts over a few relations and classes,
   its entity pool sized so a group holds a quarter of a fact to two on
   average, and a random Ω of both types with degrees 1–3 (a relation
   may carry several constraints of one type). *)
let random_query3_kb seed =
  let st = Tutil.rng seed in
  let pi = Storage.create () in
  let n = 2048 + Random.State.int st (8000 - 2048 + 1) in
  let nrel = 2 + Random.State.int st 4 and ncls = 2 + Random.State.int st 3 in
  let pick k = Random.State.int st k in
  let per_group = [| 0.25; 0.5; 1.; 2. |].(pick 4) in
  let nent =
    max 4 (truncate (float n /. (float (nrel * ncls * ncls) *. per_group)))
  in
  while Storage.size pi < n do
    ignore
      (Storage.add pi ~r:(pick nrel) ~x:(pick nent) ~c1:(pick ncls)
         ~y:(pick nent) ~c2:(pick ncls) ~w:(Random.State.float st 1.))
  done;
  let omega =
    List.init
      (1 + pick 6)
      (fun _ ->
        Funcon.make ~rel:(pick nrel)
          ~ftype:(if Random.State.bool st then Funcon.Type_I else Funcon.Type_II)
          ~degree:(1 + pick 3))
  in
  (pi, omega)

(* Query 3 recounted over the live facts: per (R, entity, entity class,
   other class), the groups above the relation's smallest degree of that
   type, as (entity, class, R, type, count, degree), sorted. *)
let reference_violations pi omega =
  List.concat_map
    (fun ftype ->
      let degree = Hashtbl.create 8 in
      List.iter
        (fun (c : Funcon.t) ->
          if c.ftype = ftype then
            Hashtbl.replace degree c.rel
              (min c.degree
                 (Option.value ~default:max_int (Hashtbl.find_opt degree c.rel))))
        omega;
      let counts = Hashtbl.create 1024 in
      Storage.iter
        (fun ~id:_ ~r ~x ~c1 ~y ~c2 ~w:_ ->
          if Hashtbl.mem degree r then begin
            let key =
              match ftype with
              | Funcon.Type_I -> (r, x, c1, c2)
              | Funcon.Type_II -> (r, y, c2, c1)
            in
            Hashtbl.replace counts key
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
          end)
        pi;
      Hashtbl.fold
        (fun (r, e, ce, _) count acc ->
          let d = Hashtbl.find degree r in
          if count > d then (e, ce, r, ftype, count, d) :: acc else acc)
        counts [])
    [ Funcon.Type_I; Funcon.Type_II ]
  |> List.sort compare

let live_ids pi =
  let ids = ref [] in
  Storage.iter (fun ~id ~r:_ ~x:_ ~c1:_ ~y:_ ~c2:_ ~w:_ -> ids := id :: !ids) pi;
  List.rev !ids

let test_query3_reference =
  Tutil.qcheck_case ~count:30 "Query 3 = independent count"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let pi, omega = random_query3_kb seed in
      let expected = reference_violations pi omega in
      let got =
        List.map
          (fun (v : Semantic.violation) ->
            (v.entity, v.cls, v.rel, v.ftype, v.count, v.degree))
          (Semantic.violations pi omega)
        |> List.sort compare
      in
      (* apply deletes exactly the live facts whose (x, C1) is a violating
         Type-I pair or whose (y, C2) a violating Type-II pair. *)
      let bad = Hashtbl.create 64 in
      List.iter
        (fun (e, ce, _, ftype, _, _) -> Hashtbl.replace bad (ftype, e, ce) ())
        expected;
      let survivors = ref [] and doomed = ref 0 in
      Storage.iter
        (fun ~id ~r:_ ~x ~c1 ~y ~c2 ~w:_ ->
          if
            Hashtbl.mem bad (Funcon.Type_I, x, c1)
            || Hashtbl.mem bad (Funcon.Type_II, y, c2)
          then incr doomed
          else survivors := id :: !survivors)
        pi;
      let deleted = Semantic.apply pi omega in
      got = expected && deleted = !doomed
      && live_ids pi = List.rev !survivors)

(* --- ambiguity --- *)

let test_ambiguity_suspects () =
  let kb = mandel_kb () in
  let suspects = Quality.Ambiguity.suspects (Gamma.pi kb) (Gamma.omega kb) in
  check_int "one suspect" 1 (List.length suspects);
  check_int "it is Mandel" (Gamma.entity kb "Mandel") (fst (List.hd suspects))

let test_remove_entities () =
  let kb = mandel_kb () in
  let mandel = Gamma.entity kb "Mandel" in
  check_int "mentions" 3 (Quality.Ambiguity.facts_mentioning (Gamma.pi kb) mandel);
  check_int "removed" 3 (Quality.Ambiguity.remove_entities (Gamma.pi kb) [ mandel ]);
  check_int "left" 1 (Storage.size (Gamma.pi kb));
  check_int "empty list is no-op" 0
    (Quality.Ambiguity.remove_entities (Gamma.pi kb) [])

(* --- rule cleaning --- *)

let mk_scored scores =
  List.mapi
    (fun i score ->
      {
        RC.clause =
          Mln.Clause.make ~head_rel:i
            ~body:[ { Mln.Clause.rel = 100 + i; a = Mln.Clause.X; b = Mln.Clause.Y } ]
            ~c1:0 ~c2:1 ~weight:1.0 ();
        score;
      })
    scores

let test_rule_cleaning_top () =
  let rules = mk_scored [ 0.9; 0.1; 0.5; 0.7; 0.3 ] in
  let kept = RC.top ~theta:0.4 rules in
  check_int "keep ceil(0.4*5)=2" 2 (List.length kept);
  Alcotest.(check (list (float 0.)))
    "best two" [ 0.9; 0.7 ]
    (List.map (fun r -> r.RC.score) kept);
  check_int "theta=1 keeps all" 5 (List.length (RC.top ~theta:1.0 rules));
  check_int "theta=0 keeps none" 0 (List.length (RC.top ~theta:0.0 rules));
  Alcotest.(check (option (float 0.))) "threshold score" (Some 0.7)
    (RC.threshold_score ~theta:0.4 rules)

let test_rule_cleaning_rejects_bad_theta () =
  Alcotest.check_raises "theta > 1"
    (Invalid_argument "Rule_cleaning.top: theta must be in [0, 1]") (fun () ->
      ignore (RC.top ~theta:1.5 []))

let test_rule_cleaning_qcheck =
  Tutil.qcheck_case "top theta keeps a sorted prefix"
    QCheck.(pair (list (float_bound_inclusive 1.)) (float_bound_inclusive 1.))
    (fun (scores, theta) ->
      let rules = mk_scored scores in
      let kept = RC.top ~theta rules |> List.map (fun r -> r.RC.score) in
      let expected =
        List.stable_sort (fun a b -> compare b a) scores
        |> List.filteri (fun i _ ->
               i < int_of_float (ceil (theta *. float_of_int (List.length scores))))
      in
      kept = expected)

(* --- rule feedback --- *)

let feedback_kb () =
  (* A good rule (live_in <- born_in) and a bad one
     (capital_of <- born_in): born_in(p, two cities) makes the bad rule's
     conclusions violate capital_of's Type-II functionality. *)
  let kb = Gamma.create () in
  ignore
    (Kb.Loader.load_rules kb
       [
         "1.0 live_in(x:Person, y:City) :- born_in(x, y)";
         "0.9 capital_of(x:Person, y:City) :- born_in(x, y)";
       ]);
  let born x y =
    ignore (Gamma.add_fact_by_name kb ~r:"born_in" ~x ~c1:"Person" ~y ~c2:"City" ~w:0.9)
  in
  born "ann" "paris";
  born "bob" "rome";
  born "cyd" "oslo";
  kb

let test_rule_feedback_attribution () =
  let kb = feedback_kb () in
  let r = Grounding.Ground.run kb in
  let graph = r.Grounding.Ground.graph in
  (* Declare every capital_of conclusion bad. *)
  let bad = ref [] in
  Kb.Storage.iter
    (fun ~id ~r ~x:_ ~c1:_ ~y:_ ~c2:_ ~w:_ ->
      if r = Gamma.relation kb "capital_of" then bad := id :: !bad)
    (Gamma.pi kb);
  let reports =
    Quality.Rule_feedback.attribute ~kb ~graph ~bad_facts:!bad
  in
  check_int "one report per rule" 2 (List.length reports);
  List.iter
    (fun (rep : Quality.Rule_feedback.report) ->
      check_int "each rule derived three factors" 3 rep.Quality.Rule_feedback.derived;
      let is_bad_rule =
        rep.Quality.Rule_feedback.clause.Mln.Clause.head_rel
        = Gamma.relation kb "capital_of"
      in
      Alcotest.(check (float 1e-9))
        (if is_bad_rule then "bad rule fully blamed" else "good rule clean")
        (if is_bad_rule then 1.0 else 0.0)
        (Quality.Rule_feedback.penalty rep))
    reports

let test_rule_feedback_rescore () =
  let kb = feedback_kb () in
  let r = Grounding.Ground.run kb in
  let bad = ref [] in
  Kb.Storage.iter
    (fun ~id ~r ~x:_ ~c1:_ ~y:_ ~c2:_ ~w:_ ->
      if r = Gamma.relation kb "capital_of" then bad := id :: !bad)
    (Gamma.pi kb);
  let reports =
    Quality.Rule_feedback.attribute ~kb ~graph:r.Grounding.Ground.graph
      ~bad_facts:!bad
  in
  let scored =
    List.map (fun c -> { RC.clause = c; score = 0.8 }) (Gamma.rules kb)
  in
  let rescored = Quality.Rule_feedback.rescore ~alpha:0.5 scored reports in
  let score_of head_rel =
    (List.find
       (fun s -> s.RC.clause.Mln.Clause.head_rel = head_rel)
       rescored)
      .RC.score
  in
  Alcotest.(check (float 1e-9)) "good rule keeps score" 0.8
    (score_of (Gamma.relation kb "live_in"));
  Alcotest.(check (float 1e-9)) "bad rule penalized" 0.3
    (score_of (Gamma.relation kb "capital_of"));
  (* Cleaning the rescored set at theta=0.5 now drops the bad rule. *)
  let kept = RC.clean ~theta:0.5 rescored in
  check_int "one rule kept" 1 (List.length kept);
  check_int "the good one"
    (Gamma.relation kb "live_in")
    (List.hd kept).Mln.Clause.head_rel

(* --- lint --- *)

let parse_rules kb lines =
  ignore (Kb.Loader.load_rules kb lines);
  Gamma.rules kb

let test_lint_duplicates_and_weights () =
  let kb = Gamma.create () in
  let rules =
    parse_rules kb
      [
        "1.0 p(x:A, y:B) :- q(x, y)";
        "1.0 p(x:A, y:B) :- q(x, y)";
        "-0.5 s(x:A, y:B) :- q(x, y)";
      ]
  in
  let issues = Quality.Lint.check rules in
  check_int "two issues" 2 (List.length issues);
  Alcotest.(check bool) "one duplicate" true
    (List.exists (function Quality.Lint.Duplicate _ -> true | _ -> false) issues);
  Alcotest.(check bool) "one bad weight" true
    (List.exists
       (function Quality.Lint.Non_positive_weight _ -> true | _ -> false)
       issues)

let test_lint_tautology () =
  let kb = Gamma.create () in
  let rules = parse_rules kb [ "1.0 p(x:A, y:B) :- p(x, y)" ] in
  match Quality.Lint.check rules with
  | [ Quality.Lint.Tautology _ ] -> ()
  | issues -> Alcotest.failf "expected one tautology, got %d issues" (List.length issues)

let test_lint_never_fires () =
  let kb = Gamma.create () in
  ignore (Gamma.add_fact_by_name kb ~r:"q" ~x:"a" ~c1:"A" ~y:"b" ~c2:"B" ~w:0.9);
  let rules =
    parse_rules kb
      [
        "1.0 p(x:A, y:B) :- q(x, y)" (* fires: q(A,B) exists *);
        "1.0 p(x:A, y:B) :- missing(x, y)" (* no such facts *);
        "1.0 p(x:B, y:A) :- q(x, y)" (* wrong signature *);
      ]
  in
  let issues = Quality.Lint.check ~kb rules in
  check_int "two dead rules" 2
    (List.length
       (List.filter
          (function Quality.Lint.Never_fires _ -> true | _ -> false)
          issues));
  (* Without a KB the signature check is skipped. *)
  check_int "no kb, no never-fires" 0 (List.length (Quality.Lint.check rules))

let test_lint_describe () =
  let kb = Gamma.create () in
  let rules = parse_rules kb [ "1.0 p(x:A, y:B) :- p(x, y)" ] in
  match Quality.Lint.check rules with
  | [ issue ] ->
    let text =
      Quality.Lint.describe
        ~rel_name:(Relational.Dict.name (Gamma.relations kb))
        ~cls_name:(Relational.Dict.name (Gamma.classes kb))
        issue
    in
    Alcotest.(check bool) "mentions tautology" true
      (String.length text > 0 && String.sub text 0 12 = "tautological")
  | _ -> Alcotest.fail "expected one issue"

(* --- error analysis --- *)

let test_error_analysis_report () =
  let items = [ `A; `A; `B; `C ] in
  let classify = function
    | `A -> EA.Ambiguous_entity
    | `B -> EA.Incorrect_rule
    | `C -> EA.Synonym
  in
  let report = EA.categorize ~classify items in
  check_int "total" 4 report.EA.total;
  Alcotest.(check (float 1e-9)) "ambiguous fraction" 0.5
    (EA.fraction report EA.Ambiguous_entity);
  Alcotest.(check (float 1e-9)) "extraction fraction" 0.
    (EA.fraction report EA.Incorrect_extraction);
  (* Fractions sum to one. *)
  let sum =
    List.fold_left (fun acc s -> acc +. EA.fraction report s) 0. EA.all_sources
  in
  Alcotest.(check (float 1e-9)) "fractions sum to 1" 1.0 sum

let test_error_analysis_empty () =
  let report = EA.categorize ~classify:(fun _ -> EA.Synonym) [] in
  check_int "empty total" 0 report.EA.total;
  Alcotest.(check (float 1e-9)) "empty fraction" 0. (EA.fraction report EA.Synonym)

let () =
  Alcotest.run "quality"
    [
      ( "semantic",
        [
          Alcotest.test_case "violation detection" `Quick test_violation_detection;
          Alcotest.test_case "violation group" `Quick test_violation_group;
          Alcotest.test_case "apply deletes violators" `Quick
            test_apply_deletes_violators;
          Alcotest.test_case "pseudo-functional degree" `Quick
            test_pseudo_functional_degree;
          Alcotest.test_case "type II" `Quick test_type_ii;
          Alcotest.test_case "unconstrained relation" `Quick
            test_unconstrained_relation_ignored;
          Alcotest.test_case "ban prevents re-derivation" `Quick
            test_ban_prevents_rederivation;
          test_query3_reference;
        ] );
      ( "ambiguity",
        [
          Alcotest.test_case "suspects" `Quick test_ambiguity_suspects;
          Alcotest.test_case "remove entities" `Quick test_remove_entities;
        ] );
      ( "rule-cleaning",
        [
          Alcotest.test_case "top theta" `Quick test_rule_cleaning_top;
          Alcotest.test_case "bad theta" `Quick test_rule_cleaning_rejects_bad_theta;
          test_rule_cleaning_qcheck;
        ] );
      ( "rule-feedback",
        [
          Alcotest.test_case "attribution" `Quick test_rule_feedback_attribution;
          Alcotest.test_case "rescore + clean" `Quick test_rule_feedback_rescore;
        ] );
      ( "lint",
        [
          Alcotest.test_case "duplicates and weights" `Quick
            test_lint_duplicates_and_weights;
          Alcotest.test_case "tautology" `Quick test_lint_tautology;
          Alcotest.test_case "never fires" `Quick test_lint_never_fires;
          Alcotest.test_case "describe" `Quick test_lint_describe;
        ] );
      ( "error-analysis",
        [
          Alcotest.test_case "report" `Quick test_error_analysis_report;
          Alcotest.test_case "empty" `Quick test_error_analysis_empty;
        ] );
    ]
