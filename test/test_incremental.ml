(* The retraction subsystem: lineage-indexed DRed delete–rederive,
   incremental factor maintenance, and live engine sessions.

   The load-bearing property throughout is *retract-equals-rebuild*: after
   any epoch sequence, the maintained store and factor graph must be
   indistinguishable (up to fact ids and factor order) from a from-scratch
   expansion over the surviving base facts. *)

module Table = Relational.Table
module Storage = Kb.Storage
module Gamma = Kb.Gamma
module Fgraph = Factor_graph.Fgraph
module Dred = Incremental.Dred
module Lineage = Factor_graph.Lineage

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- key-based views (ids differ between maintained and rebuilt) ------ *)

let key_of pi id =
  match Storage.row_of_id pi id with
  | None -> Alcotest.failf "fact %d not in TΠ" id
  | Some row ->
    let t = Storage.table pi in
    ( Table.get t row 1, Table.get t row 2, Table.get t row 3,
      Table.get t row 4, Table.get t row 5 )

(* Sorted (key, weight-or-None) list: the KB modulo fact ids. *)
let fact_view kb =
  let acc = ref [] in
  Storage.iter
    (fun ~id:_ ~r ~x ~c1 ~y ~c2 ~w ->
      let w = if Table.is_null_weight w then None else Some w in
      acc := ((r, x, c1, y, c2), w) :: !acc)
    (Gamma.pi kb);
  List.sort compare !acc

(* Sorted factor multiset with ids replaced by keys: the graph modulo
   fact ids and factor order. *)
let factor_view kb graph =
  let pi = Gamma.pi kb in
  let acc = ref [] in
  Fgraph.iter
    (fun _ (i1, i2, i3, w) ->
      let k i = if i = Fgraph.null then None else Some (key_of pi i) in
      acc := (key_of pi i1, k i2, k i3, w) :: !acc)
    graph;
  List.sort compare !acc

let check_same_state msg (kb_a, graph_a) (kb_b, graph_b) =
  check_int (msg ^ ": fact count")
    (List.length (fact_view kb_b))
    (List.length (fact_view kb_a));
  check_bool (msg ^ ": facts") true (fact_view kb_b = fact_view kb_a);
  check_int
    (msg ^ ": factor count")
    (Fgraph.size graph_b) (Fgraph.size graph_a);
  check_bool
    (msg ^ ": factors")
    true
    (factor_view kb_b graph_b = factor_view kb_a graph_a)

(* From-scratch reference: expand the given base facts under the given
   rules, sharing [proto]'s dictionaries so keys are comparable. *)
let rebuild proto rules base =
  let kb = Gamma.create_like proto in
  List.iter (Gamma.add_rule kb) rules;
  List.iter
    (fun ((r, x, c1, y, c2), w) ->
      ignore (Gamma.add_fact kb ~r ~x ~c1 ~y ~c2 ~w))
    base;
  let result = Grounding.Ground.run kb in
  (kb, result.Grounding.Ground.graph)

let base_facts kb =
  let acc = ref [] in
  Storage.iter
    (fun ~id:_ ~r ~x ~c1 ~y ~c2 ~w ->
      if not (Table.is_null_weight w) then
        acc := ((r, x, c1, y, c2), w) :: !acc)
    (Gamma.pi kb);
  List.rev !acc

let expand_dred kb =
  let result = Grounding.Ground.run kb in
  Dred.create kb result.Grounding.Ground.graph

(* The ReVerb–Sherlock workload at scale 0.005. *)
let workload () =
  Workload.Reverb_sherlock.generate
    { Workload.Reverb_sherlock.default_config with scale = 0.005; seed = 9 }

(* --- worked example ---------------------------------------------------- *)

let test_retract_worked_example () =
  let kb, _, f2 = Tutil.ruth_gruber_kb () in
  let rules = Gamma.rules kb in
  let base = base_facts kb in
  let st = expand_dred kb in
  check_int "all 8 factors indexed" 8
    (let l = Dred.lineage st and n = ref 0 in
     for id = 0 to Storage.next_id (Gamma.pi kb) do
       Lineage.iter_derivations l id (fun _ -> incr n);
       if Lineage.is_base l id then incr n
     done;
     !n);
  let f2_key = key_of (Gamma.pi kb) f2 in
  let stats = Dred.retract st [ f2 ] in
  check_int "one fact requested" 1 stats.Dred.requested;
  check_bool "cone is not empty" false stats.Dred.empty_cone;
  (* born_in(Brooklyn) supports live_in/grow_up_in(Brooklyn) and both
     located_in derivations; none survives it. *)
  check_bool "cascade deleted" true (stats.Dred.overdeleted >= 3);
  let reference =
    rebuild kb rules (List.filter (fun (k, _) -> k <> f2_key) base)
  in
  check_same_state "retract born_in(Brooklyn)"
    (Dred.kb st, Dred.graph st)
    reference

let test_rederive_keeps_supported_facts () =
  (* Two independent derivations of the same head: retracting one body
     fact must keep the head alive (DRed's rederivation step). *)
  let kb = Gamma.create () in
  ignore
    (Kb.Loader.load_rules kb
       [ "1.0 p(x:A, y:B) :- q(x, y)"; "1.0 p(x:A, y:B) :- s(x, y)" ]);
  let add rel w =
    Gamma.add_fact_by_name kb ~r:rel ~x:"a" ~c1:"A" ~y:"b" ~c2:"B" ~w
  in
  let fq = add "q" 0.9 in
  let _fs = add "s" 0.8 in
  let st = expand_dred kb in
  let p = Gamma.relation kb "p" in
  let pid =
    Storage.find (Gamma.pi kb) ~r:p ~x:(Gamma.entity kb "a")
      ~c1:(Gamma.cls kb "A") ~y:(Gamma.entity kb "b") ~c2:(Gamma.cls kb "B")
    |> Option.get
  in
  let stats = Dred.retract st [ fq ] in
  check_int "only q deleted" 1 stats.Dred.overdeleted;
  check_int "p rederived from s" 1 stats.Dred.rederived;
  check_bool "p still present" true
    (Storage.row_of_id (Gamma.pi kb) pid <> None);
  (* q's singleton and q→p clause factor are gone; s's factors stay. *)
  check_int "two factors removed" 2 stats.Dred.factors_removed;
  let reference = rebuild kb (Gamma.rules kb) (List.tl (base_facts kb)) in
  ignore reference;
  check_same_state "retract q(a,b)"
    (Dred.kb st, Dred.graph st)
    (rebuild kb (Gamma.rules kb) (base_facts kb))

let test_demotion () =
  (* A retracted *base* fact that is still derivable survives as an
     inferred fact: id kept, singleton and extraction weight dropped. *)
  let kb = Gamma.create () in
  ignore (Kb.Loader.load_rules kb [ "1.0 p(x:A, y:B) :- q(x, y)" ]);
  let fq =
    Gamma.add_fact_by_name kb ~r:"q" ~x:"a" ~c1:"A" ~y:"b" ~c2:"B" ~w:0.9
  in
  let fp =
    Gamma.add_fact_by_name kb ~r:"p" ~x:"a" ~c1:"A" ~y:"b" ~c2:"B" ~w:0.7
  in
  let st = expand_dred kb in
  check_bool "p starts as base" true
    (Lineage.is_base (Dred.lineage st) fp);
  let stats = Dred.retract st [ fp ] in
  check_int "nothing deleted" 0 stats.Dred.overdeleted;
  check_int "one demotion" 1 stats.Dred.demoted;
  check_int "singleton spliced out" 1 stats.Dred.factors_removed;
  check_bool "p no longer base" false
    (Lineage.is_base (Dred.lineage st) fp);
  (match Storage.row_of_id (Gamma.pi kb) fp with
  | Some row ->
    check_bool "weight nulled" true
      (Table.is_null_weight (Table.weight (Storage.table (Gamma.pi kb)) row))
  | None -> Alcotest.fail "demoted fact must survive");
  ignore fq;
  let reference =
    rebuild kb (Gamma.rules kb)
      [ ( ( Gamma.relation kb "q", Gamma.entity kb "a", Gamma.cls kb "A",
            Gamma.entity kb "b", Gamma.cls kb "B" ), 0.9 ) ]
  in
  check_same_state "demotion" (Dred.kb st, Dred.graph st) reference

let test_empty_cone_fast_path () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let st = expand_dred kb in
  (* Inferred located_in facts support nothing downstream. *)
  let loc = Gamma.relation kb "located_in" in
  let leaf = ref None in
  Storage.iter
    (fun ~id ~r ~x:_ ~c1:_ ~y:_ ~c2:_ ~w:_ -> if r = loc then leaf := Some id)
    (Gamma.pi kb);
  let leaf = Option.get !leaf in
  (* Without a ban, an inferred fact whose derivations all survive is
     simply rederived — retraction of derived facts is only permanent
     when their keys are banned. *)
  let stats = Dred.retract st [ leaf ] in
  check_bool "fast path taken" true stats.Dred.empty_cone;
  check_int "rederived on the spot" 1 stats.Dred.rederived;
  check_int "nothing deleted" 0 stats.Dred.overdeleted;
  let stats = Dred.retract ~ban:true st [ leaf ] in
  check_bool "fast path taken again" true stats.Dred.empty_cone;
  check_int "just the leaf deleted" 1 stats.Dred.overdeleted;
  check_int "cone is the seed alone" 1 stats.Dred.cone;
  check_bool "leaf gone" true (Storage.row_of_id (Gamma.pi kb) leaf = None)

let test_banned_retraction_blocks_reingest () =
  let kb, f1, _ = Tutil.ruth_gruber_kb () in
  let st = expand_dred kb in
  let key = key_of (Gamma.pi kb) f1 in
  let stats = Dred.retract ~ban:true st [ f1 ] in
  check_bool "deleted" true (stats.Dred.overdeleted >= 1);
  let r, x, c1, y, c2 = key in
  check_bool "key banned" true
    (Storage.is_banned (Gamma.pi kb) ~r ~x ~c1 ~y ~c2);
  let ins = Dred.ingest st [ (r, x, c1, y, c2, 0.96) ] in
  check_int "banned key not re-inserted" 0 ins.Dred.inserted;
  check_int "nothing derived" 0 ins.Dred.derived;
  check_bool "still absent" true
    (Storage.find (Gamma.pi kb) ~r ~x ~c1 ~y ~c2 = None)

(* A banned key keeps its dead row in TΠ until compaction.  When a later
   epoch grounds a rule instance headed by that key, head resolution must
   find no fact there: no factor may point at a dead row.  Ten unrelated
   facts keep the dead rows below the compaction threshold. *)
let test_banned_head_stays_dead () =
  let kb = Gamma.create () in
  ignore (Kb.Loader.load_rules kb [ "1.0 p(x:A, y:B) :- q(x, y)" ]);
  let add rel x w =
    Gamma.add_fact_by_name kb ~r:rel ~x ~c1:"A" ~y:"b" ~c2:"B" ~w
  in
  let q = add "q" "a" 0.9 and p = add "p" "a" 0.8 in
  for i = 1 to 10 do
    ignore (add "s" (Printf.sprintf "e%d" i) 0.7)
  done;
  let st = expand_dred kb in
  let pi = Gamma.pi kb in
  let r, x, c1, y, c2 = key_of pi q in
  (* p is derivable from q, but the ban blocks its rederivation. *)
  ignore (Dred.retract ~ban:true st [ p ]);
  check_bool "p is gone" true (Storage.row_of_id pi p = None);
  ignore (Dred.retract st [ q ]);
  check_int "both rows are still physical, dead" 2 (Storage.pending_deletes pi);
  let ins = Dred.ingest st [ (r, x, c1, y, c2, 0.9) ] in
  check_int "q is back" 1 ins.Dred.inserted;
  check_int "p stays banned" 0 ins.Dred.derived;
  Fgraph.iter
    (fun _ (i1, i2, i3, _) ->
      List.iter
        (fun i ->
          if i <> Fgraph.null then
            check_bool "every factor mentions live facts" true
              (Storage.row_of_id pi i <> None))
        [ i1; i2; i3 ])
    (Dred.graph st);
  check_int "eleven priors and nothing else" 11 (Fgraph.size (Dred.graph st))

(* --- ingest: incremental closure + factor maintenance ----------------- *)

let test_ingest_extends_factors () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let rules = Gamma.rules kb in
  let st = expand_dred kb in
  let f =
    ( ( Gamma.relation kb "born_in", Gamma.entity kb "Phil",
        Gamma.cls kb "W", Gamma.entity kb "Queens", Gamma.cls kb "P" ), 0.8 )
  in
  let (r, x, c1, y, c2), w = f in
  let ins = Dred.ingest st [ (r, x, c1, y, c2, w) ] in
  check_int "one inserted" 1 ins.Dred.inserted;
  check_int "two consequences (P-typed rules)" 2 ins.Dred.derived;
  check_bool "factors appended" true (ins.Dred.new_factors >= 3);
  check_bool "closure converged" true ins.Dred.converged;
  let reference = rebuild kb rules (base_facts kb) in
  check_same_state "ingest Phil" (Dred.kb st, Dred.graph st) reference;
  (* Duplicate ingest is a no-op. *)
  let ins = Dred.ingest st [ (r, x, c1, y, c2, w) ] in
  check_int "dup insert" 0 ins.Dred.inserted;
  check_int "dup factors" 0 ins.Dred.new_factors

let test_promotion () =
  (* An extraction arriving for an already-inferred fact keeps the fact id
     and gains a singleton. *)
  let kb = Gamma.create () in
  ignore (Kb.Loader.load_rules kb [ "1.0 p(x:A, y:B) :- q(x, y)" ]);
  ignore
    (Gamma.add_fact_by_name kb ~r:"q" ~x:"a" ~c1:"A" ~y:"b" ~c2:"B" ~w:0.9);
  let st = expand_dred kb in
  let p = Gamma.relation kb "p" in
  let key =
    ( p, Gamma.entity kb "a", Gamma.cls kb "A", Gamma.entity kb "b",
      Gamma.cls kb "B" )
  in
  let r, x, c1, y, c2 = key in
  let pid = Storage.find (Gamma.pi kb) ~r ~x ~c1 ~y ~c2 |> Option.get in
  check_bool "p starts inferred" false
    (Lineage.is_base (Dred.lineage st) pid);
  let ins = Dred.ingest st [ (r, x, c1, y, c2, 0.6) ] in
  check_int "promoted, not inserted" 0 ins.Dred.inserted;
  check_int "one promotion" 1 ins.Dred.promoted;
  check_int "one new singleton" 1 ins.Dred.new_factors;
  check_bool "now base" true (Lineage.is_base (Dred.lineage st) pid);
  let reference = rebuild kb (Gamma.rules kb) (base_facts kb) in
  check_same_state "promotion" (Dred.kb st, Dred.graph st) reference

(* Two copies of one key in a batch: the first copy wins, whether it
   inserts a new fact or promotes an inferred one — one fact, the first
   weight, one singleton factor. *)
let test_duplicate_keys_in_batch () =
  let kb = Gamma.create () in
  ignore (Kb.Loader.load_rules kb [ "1.0 p(x:A, y:B) :- q(x, y)" ]);
  ignore
    (Gamma.add_fact_by_name kb ~r:"q" ~x:"a" ~c1:"A" ~y:"b" ~c2:"B" ~w:0.9);
  let st = expand_dred kb in
  let key rel x =
    ( Gamma.relation kb rel, Gamma.entity kb x, Gamma.cls kb "A",
      Gamma.entity kb "b", Gamma.cls kb "B" )
  in
  let weight_of (r, x, c1, y, c2) =
    let pi = Gamma.pi kb in
    let id = Storage.find pi ~r ~x ~c1 ~y ~c2 |> Option.get in
    Relational.Table.weight (Storage.table pi)
      (Storage.row_of_id pi id |> Option.get)
  in
  let twice (r, x, c1, y, c2) w1 w2 =
    Dred.ingest st [ (r, x, c1, y, c2, w1); (r, x, c1, y, c2, w2) ]
  in
  (* A new key: one insert, then its clause factor and one singleton. *)
  let q_c = key "q" "c" in
  let ins = twice q_c 0.7 0.4 in
  check_int "new key inserted once" 1 ins.Dred.inserted;
  check_int "new key not promoted" 0 ins.Dred.promoted;
  check_int "new key: one singleton and one clause" 2 ins.Dred.new_factors;
  Alcotest.(check (float 0.)) "new key keeps the first weight" 0.7
    (weight_of q_c);
  (* An inferred key: one promotion, one singleton. *)
  let p_a = key "p" "a" in
  let ins = twice p_a 0.6 0.3 in
  check_int "inferred key not inserted" 0 ins.Dred.inserted;
  check_int "inferred key promoted once" 1 ins.Dred.promoted;
  check_int "inferred key: one singleton" 1 ins.Dred.new_factors;
  Alcotest.(check (float 0.)) "promotion keeps the first weight" 0.6
    (weight_of p_a);
  let reference = rebuild kb (Gamma.rules kb) (base_facts kb) in
  check_same_state "duplicate keys" (Dred.kb st, Dred.graph st) reference

(* An ingest's clause rows are Query 2's rows over the grown TΠ with a
   body fact at or above the watermark, in Query 2's order: the rows a
   rebuild's TΦ gains, as the batch grounding orders them.
   [ingest_in_query2_order msg st batch] ingests [batch], checks that,
   and returns how many clause rows the ingest appended. *)
let ingest_in_query2_order msg st batch =
  let kb = Dred.kb st in
  let pi = Gamma.pi kb and graph = Dred.graph st in
  let watermark = Storage.next_id pi and bound = Fgraph.bound graph in
  ignore (Dred.ingest st batch);
  let bits (i1, i2, i3, w) = (i1, i2, i3, Int64.bits_of_float w) in
  let appended =
    List.init (Fgraph.bound graph - bound) (fun k ->
        bits (Fgraph.factor graph (bound + k)))
    |> List.filter (fun (_, i2, i3, _) ->
           i2 <> Fgraph.null || i3 <> Fgraph.null)
  in
  let expected = Fgraph.create () in
  let p = Grounding.Queries.prepare (Gamma.partitions kb) in
  List.iter
    (fun pat ->
      let rows = Grounding.Queries.derivations p pat pi in
      ignore
        (Grounding.Queries.resolve_heads
           (Table.filter rows (fun r ->
                Table.get rows r 5 >= watermark
                || Table.get rows r 6 >= watermark))
           pi expected))
    Mln.Pattern.all;
  let expected =
    List.init (Fgraph.bound expected) (fun f -> bits (Fgraph.factor expected f))
  in
  check_bool msg true (appended = expected);
  List.length appended

(* Dense random KBs, where both body facts of a derivation are often
   new, and the ReVerb–Sherlock KB. *)
let test_ingest_appends_query2_order () =
  let rows = ref 0 in
  for seed = 1 to 30 do
    let rng = Tutil.rng seed in
    let kb, fact = Tutil.dense_kb rng in
    let st = expand_dred kb in
    for batch = 1 to 2 do
      rows :=
        !rows
        + ingest_in_query2_order
            (Printf.sprintf "dense KB %d, batch %d" seed batch)
            st
            (List.init
               (1 + Random.State.int rng 4)
               (fun _ ->
                 let r, x, c1, y, c2 = fact () in
                 (r, x, c1, y, c2, 0.5)))
    done
  done;
  let g = workload () in
  let st = expand_dred (Workload.Reverb_sherlock.kb g) in
  let rng = Workload.Rng.create 11 in
  for batch = 1 to 4 do
    rows :=
      !rows
      + ingest_in_query2_order
          (Printf.sprintf "workload KB, batch %d" batch)
          st
          (List.init 4 (fun _ ->
               let r, x, c1, y, c2 =
                 Workload.Reverb_sherlock.random_fact g rng
               in
               (r, x, c1, y, c2, 0.7)))
  done;
  check_bool "the ingests appended clause rows" true (!rows > 0)

(* --- rule retraction --------------------------------------------------- *)

let test_retract_rules () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let live = Gamma.relation kb "live_in" in
  let st = expand_dred kb in
  let stats =
    Dred.retract_rules st ~remove:(fun c -> c.Mln.Clause.head_rel = live)
  in
  (* Both live_in facts die; located_in survives via the born_in rule. *)
  check_int "live_in facts deleted" 2 stats.Dred.overdeleted;
  check_int "located_in rederived" 1 stats.Dred.rederived;
  let kept = Gamma.rules kb in
  check_int "two rules removed" 4 (List.length kept);
  let reference = rebuild kb kept (base_facts kb) in
  check_same_state "retract live_in rules" (Dred.kb st, Dred.graph st)
    reference

let test_extend_rules () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let st = expand_dred kb in
  let new_rule =
    (* Parse through a scratch KB sharing the dictionaries, so the clause
       can be handed to [extend_rules] without side effects on [kb]. *)
    let scratch = Gamma.create_like kb in
    ignore
      (Kb.Loader.load_rules scratch [ "0.9 visited(x:W, y:C) :- live_in(x, y)" ]);
    List.hd (Gamma.rules scratch)
  in
  let ins = Dred.extend_rules st [ new_rule ] in
  check_int "one new head" 1 ins.Dred.derived;
  let reference = rebuild kb (Gamma.rules kb) (base_facts kb) in
  check_same_state "extend rules" (Dred.kb st, Dred.graph st) reference;
  (* reexpand on the now-closed store is a no-op. *)
  let ins = Dred.reexpand st in
  check_int "reexpand derives nothing" 0 ins.Dred.derived;
  check_int "reexpand adds no factors" 0 ins.Dred.new_factors

(* --- rule epochs on a capped or externally grown store ---------------- *)

(* A rule epoch runs the batch grounding over the whole store, so it
   leaves the store as a rebuild would whatever the store held before:
   a closure cut short, or facts that never went through an epoch. *)

(* Rules p ← q and s ← p over one q fact: a closure capped at one
   iteration derives p and leaves s, whose body is an old fact, for the
   next epoch. *)
let chain_kb () =
  let kb = Gamma.create () in
  ignore
    (Kb.Loader.load_rules kb
       [ "1.0 p(x:A, y:B) :- q(x, y)"; "0.5 s(x:A, y:B) :- p(x, y)" ]);
  ignore
    (Gamma.add_fact_by_name kb ~r:"q" ~x:"a" ~c1:"A" ~y:"b" ~c2:"B" ~w:0.9);
  kb

let workload_kb () = Workload.Reverb_sherlock.kb (workload ())

let capped_dred kb =
  let result =
    Grounding.Ground.run
      ~options:{ Grounding.Ground.default_options with max_iterations = 1 }
      kb
  in
  check_bool "the capped closure stopped short" false
    result.Grounding.Ground.converged;
  Dred.create kb result.Grounding.Ground.graph

let check_rebuilt msg st =
  let kb = Dred.kb st in
  check_same_state msg (kb, Dred.graph st)
    (rebuild kb (Gamma.rules kb) (base_facts kb))

let test_reexpand_capped () =
  List.iter
    (fun (name, kb) ->
      let st = capped_dred kb in
      let ins = Dred.reexpand st in
      check_bool (name ^ ": reexpand derived facts") true
        (ins.Dred.derived > 0);
      check_rebuilt (name ^ ": reexpand after a capped closure") st)
    [ ("chain", chain_kb ()); ("workload", workload_kb ()) ]

let test_reexpand_external_facts () =
  let chain = chain_kb () and g = workload () in
  let rng = Workload.Rng.create 17 in
  List.iter
    (fun (name, kb, facts) ->
      let st = expand_dred kb in
      List.iter
        (fun (r, x, c1, y, c2) ->
          ignore (Gamma.add_fact kb ~r ~x ~c1 ~y ~c2 ~w:0.8))
        facts;
      ignore (Dred.reexpand st);
      check_rebuilt (name ^ ": reexpand after facts stored behind it") st)
    [
      ( "chain",
        chain,
        [
          ( Gamma.relation chain "q", Gamma.entity chain "c",
            Gamma.cls chain "A", Gamma.entity chain "d", Gamma.cls chain "B" );
        ] );
      ( "workload",
        Workload.Reverb_sherlock.kb g,
        List.init 6 (fun _ -> Workload.Reverb_sherlock.random_fact g rng) );
    ]

(* The new rule derives a fresh relation from the body of the KB's
   first rule. *)
let test_extend_rules_capped () =
  List.iter
    (fun (name, kb) ->
      let st = capped_dred kb in
      let rule =
        {
          (List.hd (Gamma.rules kb)) with
          Mln.Clause.head_rel = Gamma.relation kb "extra";
          weight = 0.7;
        }
      in
      let ins = Dred.extend_rules st [ rule ] in
      check_bool (name ^ ": the new rule fired") true (ins.Dred.derived > 0);
      check_rebuilt (name ^ ": extend_rules on a capped store") st)
    [ ("chain", chain_kb ()); ("workload", workload_kb ()) ]

(* --- randomized differentials ------------------------------------------ *)

(* Random epoch streams over the synthetic ReVerb-Sherlock workload:
   whatever the interleaving of ingests and retractions, the final state
   must equal a from-scratch expansion over the surviving base facts. *)

let tiny_workload seed =
  Workload.Reverb_sherlock.generate
    { Workload.Reverb_sherlock.default_config with scale = 0.003; seed }

let prop_retract_equals_rebuild =
  Tutil.qcheck_case ~count:15 "retract ≡ rebuild (random subsets)"
    QCheck.(pair small_nat small_nat)
    (fun (seed, nkill) ->
      let g = tiny_workload (1 + seed) in
      let kb = Workload.Reverb_sherlock.kb g in
      let rules = Gamma.rules kb in
      let base = base_facts kb in
      let st = expand_dred kb in
      let pi = Gamma.pi kb in
      (* Retract a pseudo-random subset of the *base* facts. *)
      let ids = ref [] in
      Storage.iter
        (fun ~id ~r:_ ~x:_ ~c1:_ ~y:_ ~c2:_ ~w ->
          if not (Table.is_null_weight w) then ids := id :: !ids)
        pi;
      let ids = Array.of_list (List.rev !ids) in
      let rng = Tutil.rng (seed * 31 + nkill) in
      let kill = 1 + (nkill mod 7) in
      let victims =
        List.init kill (fun _ -> ids.(Random.State.int rng (Array.length ids)))
        |> List.sort_uniq compare
      in
      let victim_keys = List.map (key_of pi) victims in
      ignore (Dred.retract st victims);
      let survivors =
        List.filter (fun (k, _) -> not (List.mem k victim_keys)) base
      in
      let ref_kb, ref_graph = rebuild kb rules survivors in
      fact_view (Dred.kb st) = fact_view ref_kb
      && factor_view (Dred.kb st) (Dred.graph st)
         = factor_view ref_kb ref_graph)

let prop_interleaved_epochs =
  Tutil.qcheck_case ~count:10 "ingest/retract interleaving ≡ rebuild"
    QCheck.(pair small_nat (list_of_size Gen.(1 -- 6) small_nat))
    (fun (seed, ops) ->
      let g = tiny_workload (50 + seed) in
      let kb = Workload.Reverb_sherlock.kb g in
      let rules = Gamma.rules kb in
      let st = expand_dred kb in
      let pi = Gamma.pi kb in
      let rng = Workload.Rng.create (seed + 7) in
      let trng = Tutil.rng (seed * 17 + 3) in
      (* The oracle: which keys are currently base extractions, and with
         what weight (first extraction wins; retraction clears). *)
      let oracle : (int * int * int * int * int, float) Hashtbl.t =
        Hashtbl.create 64
      in
      List.iter (fun (k, w) -> Hashtbl.replace oracle k w) (base_facts kb);
      List.iteri
        (fun i op ->
          if op mod 2 = 0 then begin
            (* ingest a small batch of random facts *)
            let batch =
              List.init
                (1 + (op mod 3))
                (fun j ->
                  let r, x, c1, y, c2 =
                    Workload.Reverb_sherlock.random_fact g rng
                  in
                  (r, x, c1, y, c2, 0.5 +. (0.01 *. float (i + j))))
            in
            List.iter
              (fun (r, x, c1, y, c2, w) ->
                if not (Hashtbl.mem oracle (r, x, c1, y, c2)) then
                  Hashtbl.replace oracle (r, x, c1, y, c2) w)
              batch;
            ignore (Dred.ingest st batch)
          end
          else begin
            (* retract a random present base fact *)
            let ids = ref [] in
            Storage.iter
              (fun ~id ~r:_ ~x:_ ~c1:_ ~y:_ ~c2:_ ~w ->
                if not (Table.is_null_weight w) then ids := id :: !ids)
              pi;
            let ids = Array.of_list !ids in
            if Array.length ids > 0 then begin
              let victim = ids.(Random.State.int trng (Array.length ids)) in
              Hashtbl.remove oracle (key_of pi victim);
              ignore (Dred.retract st [ victim ])
            end
          end)
        ops;
      let survivors =
        Hashtbl.fold (fun k w acc -> (k, w) :: acc) oracle []
        |> List.sort compare
      in
      let ref_kb, ref_graph = rebuild kb rules survivors in
      fact_view (Dred.kb st) = fact_view ref_kb
      && factor_view (Dred.kb st) (Dred.graph st)
         = factor_view ref_kb ref_graph)

(* Compaction is invisible: a session that leaves dead rows to the
   compaction policy and one that compacts after every epoch
   ([Dred.compact]) must agree on every live TΠ row, every live TΦ row,
   every reply and every marginal bit, whatever the stream — fresh
   ingests, re-ingests of retracted keys, retractions with and without
   [ban], rule retraction and re-addition, refreshes — at pool sizes 1
   and 4.  The KB is small (scale 0.0005, 438 facts) so that retractions
   of up to 24 base facts push dead rows past the policy's threshold;
   [auto_compactions] counts the compactions the policy itself ran. *)

type session_op =
  | Fresh of int  (** ingest this many fresh random facts *)
  | Reingest of int  (** ingest back up to this many retracted facts *)
  | Retract of int * bool  (** retract this many base facts; ban? *)
  | Drop_rules of int  (** retract the rules of one head relation *)
  | Restore_rules  (** add back the rules dropped last *)
  | Refresh
  | Compact  (** compact both tables now *)

let gen_session_op =
  let open QCheck.Gen in
  frequency
    [
      (3, map (fun n -> Fresh (1 + n)) (int_bound 2));
      (2, map (fun n -> Reingest (1 + n)) (int_bound 3));
      (4, map2 (fun n ban -> Retract (1 + n, ban)) (int_bound 23) bool);
      (1, map (fun i -> Drop_rules i) (int_bound 99));
      (1, return Restore_rules);
      (2, return Refresh);
    ]

let print_session_op = function
  | Fresh n -> Printf.sprintf "Fresh %d" n
  | Reingest n -> Printf.sprintf "Reingest %d" n
  | Retract (n, ban) -> Printf.sprintf "Retract (%d, %b)" n ban
  | Drop_rules i -> Printf.sprintf "Drop_rules %d" i
  | Restore_rules -> "Restore_rules"
  | Refresh -> "Refresh"
  | Compact -> "Compact"

let auto_compactions = ref 0

(* What the refreshes of [session_transcript] made with a memo did, read
   off the session trace's counters: copy exact answers, re-solve a
   component, run the sampler. *)
let exact_reuses = ref 0
and memo_resolves = ref 0
and memo_sampler_runs = ref 0

let solve_counters engine =
  let summary = Obs.Summary.of_trace (Probkb.Engine.trace engine) in
  List.map
    (Obs.Summary.counter summary)
    [ "hybrid.components_reused"; "hybrid.components"; "hybrid.sampler_runs" ]

let note_reuse ~first ~before ~after =
  if not first then
    List.iter2
      (fun (b, a) tally -> if a > b then incr tally)
      (List.combine before after)
      [ exact_reuses; memo_resolves; memo_sampler_runs ]

let transcript_solver =
  {
    Inference.Hybrid.default_options with
    gibbs = { Inference.Gibbs.burn_in = 5; samples = 20; seed = 7 };
  }

(* Runs [ops] on a fresh session and returns a transcript of everything
   observable after each epoch.  After every refresh, every marginal must
   equal a fresh solve of the session's graph, bit for bit. *)
let session_transcript ?(solver = transcript_solver) ~compact_always seed ops
    =
  let g =
    Workload.Reverb_sherlock.generate
      { Workload.Reverb_sherlock.default_config with scale = 0.0005; seed }
  in
  let kb = Workload.Reverb_sherlock.kb g in
  let engine =
    Probkb.Engine.create
      ~config:
        (Probkb.Config.make ~inference:(Some solver)
           ~obs:(Obs.Config.make ~enabled:true ~retain_spans:64 ())
           ())
      kb
  in
  let s = Probkb.Engine.session engine in
  let dred = Probkb.Engine.Session.dred s in
  let refreshed = ref false in
  let pi = Gamma.pi kb in
  let out = Buffer.create 4096 in
  let add_int i = Buffer.add_int64_le out (Int64.of_int i) in
  let add_float w = Buffer.add_int64_le out (Int64.bits_of_float w) in
  let reply (st : Probkb.Engine.Session.epoch_stats) =
    match Probkb.Report.epoch_to_json st with
    | Obs.Json.Obj fields ->
      Buffer.add_string out
        (Obs.Json.to_string
           (Obs.Json.Obj (List.remove_assoc "wall_seconds" fields)))
    | _ -> Alcotest.fail "epoch reply is not an object"
  in
  let record () =
    Storage.iter
      (fun ~id ~r ~x ~c1 ~y ~c2 ~w ->
        List.iter add_int [ id; r; x; c1; y; c2 ];
        add_float w)
      pi;
    Fgraph.iter
      (fun _ (i1, i2, i3, w) ->
        List.iter
          (fun i ->
            if i <> Fgraph.null && Storage.row_of_id pi i = None then
              Alcotest.failf "a live factor mentions dead fact %d" i)
          [ i1; i2; i3 ];
        List.iter add_int [ i1; i2; i3 ];
        add_float w)
      (Dred.graph dred);
    if compact_always then Dred.compact dred
  in
  let rng = Workload.Rng.create (seed + 1) in
  let retracted = ref [] and dropped = ref [] in
  List.iteri
    (fun i op ->
      match op with
      | Fresh n ->
        reply
          (Probkb.Engine.Session.ingest s
             (List.init n (fun j ->
                  let r, x, c1, y, c2 =
                    Workload.Reverb_sherlock.random_fact g rng
                  in
                  (r, x, c1, y, c2, 0.55 +. (0.05 *. float_of_int (i + j))))));
        record ()
      | Reingest n ->
        let back = List.filteri (fun k _ -> k < n) !retracted in
        retracted := List.filteri (fun k _ -> k >= n) !retracted;
        reply (Probkb.Engine.Session.ingest s back);
        record ()
      | Retract (n, ban) ->
        let base = ref [] in
        Storage.iter
          (fun ~id ~r ~x ~c1 ~y ~c2 ~w ->
            if not (Table.is_null_weight w) then
              base := (id, (r, x, c1, y, c2, w)) :: !base)
          pi;
        let base = Array.of_list (List.rev !base) in
        if Array.length base > 0 then begin
          let picks =
            List.init n (fun _ ->
                base.(Workload.Rng.int rng (Array.length base)))
            |> List.sort_uniq compare
          in
          retracted := List.map snd picks @ !retracted;
          let before = Dred.compactions dred in
          reply (Probkb.Engine.Session.retract ~ban s (List.map fst picks));
          if not compact_always then
            auto_compactions :=
              !auto_compactions + Dred.compactions dred - before;
          record ()
        end
      | Drop_rules k -> (
        match Gamma.rules kb with
        | [] -> ()
        | rules ->
          let rel = (List.nth rules (k mod List.length rules)).Mln.Clause.head_rel in
          let remove c = c.Mln.Clause.head_rel = rel in
          dropped := List.filter remove rules :: !dropped;
          reply (Probkb.Engine.Session.retract_rules s ~remove);
          record ())
      | Restore_rules -> (
        match !dropped with
        | [] -> ()
        | rules :: rest ->
          dropped := rest;
          reply (Probkb.Engine.Session.add_rules s rules);
          record ())
      | Compact ->
        Dred.compact dred;
        record ()
      | Refresh ->
        let before = solve_counters engine in
        Option.iter reply (Probkb.Engine.Session.refresh_marginals s);
        note_reuse ~first:(not !refreshed) ~before
          ~after:(solve_counters engine);
        refreshed := true;
        (* A refresh is a solve of the session's graph, nothing more. *)
        let solved, _ =
          Inference.Marginal.infer_full (Probkb.Engine.Session.graph s) solver
        in
        Hashtbl.iter
          (fun id p ->
            match Probkb.Engine.Session.marginal s id with
            | Some q when Float.equal p q -> ()
            | _ -> Alcotest.failf "refresh marginal of %d is not solved" id)
          solved;
        Storage.iter
          (fun ~id ~r:_ ~x:_ ~c1:_ ~y:_ ~c2:_ ~w:_ ->
            match Probkb.Engine.Session.marginal s id with
            | Some p -> add_int id; add_float p
            | None -> ())
          pi;
        record ())
    ops;
  Buffer.contents out

(* The property runs inside one case so that the case can also require
   what the property alone cannot: at least one generated stream pushed
   dead rows past the threshold, so the policy — not just [Dred.compact]
   — was exercised. *)
let test_compaction_invisible () =
  let prop =
    QCheck.Test.make ~count:12 ~name:"tombstones ≡ compaction after every epoch"
      QCheck.(
        pair small_nat
          (make
             ~print:(QCheck.Print.list print_session_op)
             Gen.(list_size (6 -- 14) gen_session_op)))
      (fun (seed, ops) ->
        let run pool ~compact_always =
          Pool.set_default_size pool;
          Fun.protect
            ~finally:(fun () -> Pool.set_default_size (Pool.env_domains ()))
            (fun () -> session_transcript ~compact_always (1 + seed) ops)
        in
        let reference = run 1 ~compact_always:true in
        List.for_all
          (fun pool ->
            run pool ~compact_always:false = reference
            && (pool = 1 || run pool ~compact_always:true = reference))
          [ 1; 4 ])
  in
  auto_compactions := 0;
  QCheck.Test.check_exn prop;
  check_bool "the compaction policy ran on its own" true
    (!auto_compactions > 0)

(* Options that leave some components of the small benchmark KBs
   sampled: enumeration up to 3 variables, elimination up to width 1. *)
let sampling_options =
  {
    Inference.Hybrid.exact_max_vars = 3;
    max_width = 1;
    gibbs = { Inference.Gibbs.burn_in = 5; samples = 20; seed = 7 };
  }

(* Incremental refresh ≡ full solve.  Random streams of fresh ingests,
   re-ingests, retractions with and without ban, rule drops and
   restores, compactions and refreshes (back to back too) run at pool
   sizes 1 and 4 under options that leave components sampled; after
   every refresh, every marginal must equal a solve of the session's
   graph without a memo, bit for bit (checked inside
   [session_transcript]), and the two pools must agree on everything.
   The case also requires that the streams exercised the memo: a
   refresh made with one copied exact answers, one re-solved a
   component, and one ran the sampler. *)
let gen_refresh_op =
  let open QCheck.Gen in
  frequency
    [
      (5, gen_session_op);
      (1, return Compact);
      (3, return Refresh);
    ]

let test_incremental_refresh () =
  let prop =
    QCheck.Test.make ~count:12 ~name:"incremental refresh ≡ full solve"
      QCheck.(
        pair small_nat
          (make
             ~print:(QCheck.Print.list print_session_op)
             Gen.(list_size (6 -- 16) gen_refresh_op)))
      (fun (seed, ops) ->
        let run pool =
          Pool.set_default_size pool;
          Fun.protect
            ~finally:(fun () -> Pool.set_default_size (Pool.env_domains ()))
            (fun () ->
              session_transcript ~solver:sampling_options ~compact_always:false
                (1 + seed) ops)
        in
        run 1 = run 4)
  in
  exact_reuses := 0;
  memo_resolves := 0;
  memo_sampler_runs := 0;
  QCheck.Test.check_exn prop;
  check_bool "a refresh copied exact answers" true (!exact_reuses > 0);
  check_bool "a refresh re-solved a component" true (!memo_resolves > 0);
  check_bool "a refresh with a memo ran the sampler" true
    (!memo_sampler_runs > 0)

(* --- sessions ----------------------------------------------------------- *)

let rg_config =
  Probkb.Config.make
    ~inference:
      (Some
         {
           Inference.Hybrid.default_options with
           gibbs = { Inference.Gibbs.burn_in = 20; samples = 100; seed = 11 };
         })
    ()

let session_of_rg () =
  let kb, f1, f2 = Tutil.ruth_gruber_kb () in
  let engine = Probkb.Engine.create ~config:rg_config kb in
  (Probkb.Engine.session engine, kb, f1, f2)

let test_session_epochs () =
  let s, kb, _, f2 = session_of_rg () in
  check_int "epoch 0 after open" 0 (Probkb.Engine.Session.epoch s);
  let st = Probkb.Engine.Session.refresh_marginals s |> Option.get in
  check_int "refresh is an epoch" 1 st.Probkb.Engine.Session.epoch;
  let v =
    let snap = Probkb.Engine.Session.snapshot s in
    Probkb.Snapshot.find snap ~r:(Gamma.relation kb "born_in")
      ~x:(Gamma.entity kb "Ruth Gruber") ~c1:(Gamma.cls kb "W")
      ~y:(Gamma.entity kb "New York City") ~c2:(Gamma.cls kb "C")
    |> Option.get |> Probkb.Snapshot.view snap |> Option.get
  in
  check_bool "base fact" true v.Probkb.Snapshot.base;
  check_bool "marginal available after refresh" true
    (v.Probkb.Snapshot.marginal <> None);
  (* The first refresh solves what batch inference solves: the same
     marginals, bit for bit, as [Engine.infer_full] on an identical KB. *)
  let batch =
    let kb', _, _ = Tutil.ruth_gruber_kb () in
    let engine = Probkb.Engine.create ~config:rg_config kb' in
    fst (Probkb.Engine.infer_full engine (Probkb.Engine.expand engine))
  in
  check_int "refresh covers the batch graph" (Hashtbl.length batch)
    (Storage.size (Gamma.pi kb));
  Hashtbl.iter
    (fun id p ->
      check_bool "refresh = batch inference" true
        (match Probkb.Engine.Session.marginal s id with
        | Some q -> Float.equal p q
        | None -> false))
    batch;
  let st = Probkb.Engine.Session.retract s [ f2 ] in
  check_bool "retraction shrank the store" true
    (st.Probkb.Engine.Session.retracted >= 3);
  let ledger = Probkb.Engine.Session.history s in
  check_int "two epochs in the ledger" 2 (List.length ledger);
  check_bool "deleted fact unknown to query" true
    (Probkb.Engine.Session.marginal s f2 = None)

let test_session_constraints_via_dred () =
  (* Session ingest enforces Ω as a banned DRed retraction: the violating
     facts *and their derived consequences* disappear. *)
  let kb = Gamma.create () in
  ignore (Kb.Loader.load_rules kb [ "1.0 p(x:A, y:B) :- q(x, y)" ]);
  ignore
    (Gamma.add_fact_by_name kb ~r:"q" ~x:"a" ~c1:"A" ~y:"b1" ~c2:"B" ~w:0.9);
  Gamma.add_funcon kb
    (Kb.Funcon.make ~rel:(Gamma.relation kb "q") ~ftype:Kb.Funcon.Type_I
       ~degree:1);
  let engine =
    Probkb.Engine.create
      ~config:
        (Probkb.Config.make ~inference:None ~semantic_constraints:true ())
      kb
  in
  let s = Probkb.Engine.session engine in
  check_int "clean KB expands to q + p" 2 (Storage.size (Gamma.pi kb));
  (* The second q(a, ·) violates the degree-1 constraint. *)
  let st =
    Probkb.Engine.Session.ingest s
      [
        ( Gamma.relation kb "q", Gamma.entity kb "a", Gamma.cls kb "A",
          Gamma.entity kb "b2", Gamma.cls kb "B", 0.9 );
      ]
  in
  check_int "violation detected" 1 st.Probkb.Engine.Session.violations;
  (* Both q facts and both derived p facts are gone. *)
  check_int "violating group and its cone removed" 0
    (Storage.size (Gamma.pi kb));
  check_int "graph emptied" 0 (Fgraph.size (Probkb.Engine.Session.graph s))

(* A session pinned end to end: a fixed stream of ingest, retract and
   refresh epochs on the ReVerb-Sherlock KB at scale 0.005.  The stream
   retracts random base facts (real overdelete cones), ingests them back,
   and ingests then retracts fresh random facts.  One run yields four
   digests:
   - the rows digest, epoch by epoch: TΠ rows in order (id, key, weight
     bits) and TΦ rows in order (ids, weight bits).  It was recorded
     before the delta joins switched from scanning TΠ to probing its
     maintained indexes (x86-64 Linux, glibc libm);
   - the order-free digest, epoch by epoch: the same TΠ rows sorted by
     id and the same TΦ rows sorted, so it pins what each epoch holds
     whatever order it appended its factors in;
   - the marginal digest: every marginal's bits after each refresh;
   - the reply digest: each epoch's reply ([Report.epoch_to_json],
     [wall_seconds] stripped) and the [Snapshot.stats] of the frozen
     snapshot taken right after it — the [cone], [rederived],
     [retracted], [facts] and [factors] counts the rows cannot show.
   The incremental layer must reproduce all four bit for bit at pool
   sizes 1 and 4. *)
let session_digests () =
  let g =
    Workload.Reverb_sherlock.generate
      { Workload.Reverb_sherlock.default_config with scale = 0.005; seed = 9 }
  in
  let kb = Workload.Reverb_sherlock.kb g in
  let engine =
    Probkb.Engine.create
      ~config:
        (Probkb.Config.make
           ~inference:
             (Some
                {
                  Inference.Hybrid.default_options with
                  gibbs =
                    { Inference.Gibbs.burn_in = 10; samples = 40; seed = 3 };
                })
           ())
      kb
  in
  let s = Probkb.Engine.session engine in
  let pi = Gamma.pi kb in
  let b = Buffer.create 4096 in
  let sorted = Buffer.create 4096 in
  let marginals = Buffer.create 4096 in
  let replies = Buffer.create 4096 in
  let add_int b i = Buffer.add_int64_le b (Int64.of_int i) in
  let add_float b w = Buffer.add_int64_le b (Int64.bits_of_float w) in
  let reply (st : Probkb.Engine.Session.epoch_stats) =
    (match Probkb.Report.epoch_to_json st with
    | Obs.Json.Obj fields ->
      Buffer.add_string replies
        (Obs.Json.to_string
           (Obs.Json.Obj (List.remove_assoc "wall_seconds" fields)))
    | _ -> Alcotest.fail "epoch reply is not an object");
    let ss = Probkb.Snapshot.stats (Probkb.Engine.Session.snapshot s) in
    Buffer.add_string replies
      (Printf.sprintf " %d %d %d %d %b\n" ss.Probkb.Snapshot.epoch
         ss.Probkb.Snapshot.facts ss.Probkb.Snapshot.factors
         ss.Probkb.Snapshot.marginals_cached ss.Probkb.Snapshot.frozen)
  in
  let record_state () =
    let facts = ref [] and factors = ref [] in
    Storage.iter
      (fun ~id ~r ~x ~c1 ~y ~c2 ~w ->
        List.iter (add_int b) [ id; r; x; c1; y; c2 ];
        add_float b w;
        facts := (id, r, x, c1, y, c2, Int64.bits_of_float w) :: !facts)
      pi;
    Fgraph.iter
      (fun _ (i1, i2, i3, w) ->
        List.iter (add_int b) [ i1; i2; i3 ];
        add_float b w;
        factors := (i1, i2, i3, Int64.bits_of_float w) :: !factors)
      (Probkb.Engine.Session.graph s);
    List.iter
      (fun (id, r, x, c1, y, c2, w) ->
        List.iter (add_int sorted) [ id; r; x; c1; y; c2 ];
        Buffer.add_int64_le sorted w)
      (List.sort compare !facts);
    List.iter
      (fun (i1, i2, i3, w) ->
        List.iter (add_int sorted) [ i1; i2; i3 ];
        Buffer.add_int64_le sorted w)
      (List.sort compare !factors)
  in
  let epoch st =
    reply st;
    record_state ()
  in
  let refresh () =
    Option.iter reply (Probkb.Engine.Session.refresh_marginals s);
    Storage.iter
      (fun ~id ~r:_ ~x:_ ~c1:_ ~y:_ ~c2:_ ~w:_ ->
        match Probkb.Engine.Session.marginal s id with
        | Some p -> add_int marginals id; add_float marginals p
        | None -> ())
      pi
  in
  let rng = Workload.Rng.create 41 in
  let base () =
    let acc = ref [] in
    Storage.iter
      (fun ~id ~r ~x ~c1 ~y ~c2 ~w ->
        if not (Table.is_null_weight w) then
          acc := (id, (r, x, c1, y, c2, w)) :: !acc)
      pi;
    Array.of_list (List.rev !acc)
  in
  record_state ();
  refresh ();
  for round = 0 to 5 do
    (* Retract three base facts, then extract them again. *)
    let facts = base () in
    let picks =
      List.init 3 (fun _ -> facts.(Workload.Rng.int rng (Array.length facts)))
      |> List.sort_uniq compare
    in
    epoch (Probkb.Engine.Session.retract s (List.map fst picks));
    epoch (Probkb.Engine.Session.ingest s (List.map snd picks));
    (* Ingest four fresh facts, then retract them. *)
    let fresh =
      List.init 4 (fun j ->
          let r, x, c1, y, c2 = Workload.Reverb_sherlock.random_fact g rng in
          (r, x, c1, y, c2, 0.6 +. (0.05 *. float_of_int j)))
    in
    epoch (Probkb.Engine.Session.ingest s fresh);
    if round mod 2 = 1 then refresh ();
    epoch
      (Probkb.Engine.Session.retract_keys s
         (List.map (fun (r, x, c1, y, c2, _) -> (r, x, c1, y, c2)) fresh))
  done;
  refresh ();
  let hex b = Digest.to_hex (Digest.string (Buffer.contents b)) in
  (hex b, hex sorted, hex marginals, hex replies)

(* Both digests were re-recorded when an ingest's delta query took the
   full query's order: every epoch holds the same fact keys and the same
   factors over them as before, but an ingest appends its derived facts
   in another order, which renumbers them and the sampler's variables.
   The marginal digest was first recorded when refreshes moved to the
   hybrid dispatcher, which settles exact components exactly.  The rows
   digest was re-recorded once more (cc5fe6cd2cfe504c2e1b6c8e25e0db93 →
   8836965a373dfa7f6a11008f3bfadddf) when an ingest's factors came from
   the closure's own delta query: the same rows as before, each once,
   but appended in Query 2's order rather than the q term's rows, then
   the r term's.  Facts, factor multisets (the order-free digest) and
   marginals did not move. *)
let pinned_rows_digest = "8836965a373dfa7f6a11008f3bfadddf"

let pinned_marginal_digest = "64f0042c348711b4165a3cf077ec6cef"

(* Recorded before an ingest's factors came from the closure's own delta
   query, which appends the same rows in another order. *)
let pinned_order_free_digest = "3c43d2e832c6086a08915fd7a5209100"

let at_pools f =
  List.iter
    (fun d ->
      Pool.set_default_size d;
      Fun.protect
        ~finally:(fun () -> Pool.set_default_size (Pool.env_domains ()))
        (fun () -> f d))
    [ 1; 4 ]

let test_session_digest_pinned () =
  at_pools (fun d ->
      let rows, order_free, marginals, _ = session_digests () in
      Alcotest.(check string)
        (Printf.sprintf "rows digest at pool %d" d)
        pinned_rows_digest rows;
      Alcotest.(check string)
        (Printf.sprintf "order-free digest at pool %d" d)
        pinned_order_free_digest order_free;
      Alcotest.(check string)
        (Printf.sprintf "marginal digest at pool %d" d)
        pinned_marginal_digest marginals)

(* The epoch replies of the pinned stream, recorded before tombstones
   began to persist across epochs.  The stream re-ingests retracted base
   facts, so a re-derived or re-inserted key that storage wrongly still
   held would change [inserted], [derived] or [facts] here. *)
let pinned_reply_digest = "159cc287a959c1da4f194a4c323d2308"

let test_epoch_replies_pinned () =
  at_pools (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "epoch reply digest at pool %d" d)
        pinned_reply_digest
        (let _, _, _, replies = session_digests () in
         replies))

(* An ingest epoch's joins cost O(Δ), not O(|TΠ|): with a trace on, one
   4-fact ingest (semi-naive closure plus incremental factors) probes
   fewer rows than TΠ holds.  Scanning TΠ in step 2 of the two-atom delta
   terms put at least |TΠ| probe rows into every such term. *)
let test_ingest_probe_rows_below_tpi () =
  let g =
    Workload.Reverb_sherlock.generate
      { Workload.Reverb_sherlock.default_config with scale = 0.005; seed = 9 }
  in
  let kb = Workload.Reverb_sherlock.kb g in
  let engine =
    Probkb.Engine.create
      ~config:
        (Probkb.Config.make ~inference:None ()
        |> Probkb.Config.with_obs Obs.Config.enabled)
      kb
  in
  let s = Probkb.Engine.session engine in
  let probe_rows () =
    Obs.Summary.counter
      (Obs.Summary.of_trace (Probkb.Engine.trace engine))
      "join.probe_rows"
  in
  let rng = Workload.Rng.create 5 in
  let batch =
    List.init 4 (fun _ ->
        let r, x, c1, y, c2 = Workload.Reverb_sherlock.random_fact g rng in
        (r, x, c1, y, c2, 0.7))
  in
  let before = probe_rows () in
  let st = Probkb.Engine.Session.ingest s batch in
  let probed = probe_rows () - before in
  check_bool "the epoch inserted facts" true
    (st.Probkb.Engine.Session.inserted > 0);
  check_bool "the epoch ran joins" true (probed > 0);
  if probed >= Storage.size (Gamma.pi kb) then
    Alcotest.failf "ingest probed %d rows, TΠ holds %d" probed
      (Storage.size (Gamma.pi kb))

(* A retract below the compaction threshold costs its cone: it retires
   factors and tombstones facts in place, and neither compacts a table
   nor rebuilds a TΠ index.  TΦ keeps every position, and exactly
   [factors_removed] of them turn dead. *)
let test_retract_retires_in_place () =
  let g =
    Workload.Reverb_sherlock.generate
      { Workload.Reverb_sherlock.default_config with scale = 0.005; seed = 9 }
  in
  let kb = Workload.Reverb_sherlock.kb g in
  let engine =
    Probkb.Engine.create
      ~config:
        (Probkb.Config.make ~inference:None ()
        |> Probkb.Config.with_obs Obs.Config.enabled)
      kb
  in
  let s = Probkb.Engine.session engine in
  let dred = Probkb.Engine.Session.dred s in
  let pi = Gamma.pi kb and graph = Probkb.Engine.Session.graph s in
  let compactions () =
    Obs.Summary.counter
      (Obs.Summary.of_trace (Probkb.Engine.trace engine))
      "incremental.compactions"
  in
  (* Four base facts that each support a derivation: real cones. *)
  let victims = ref [] in
  Storage.iter
    (fun ~id ~r:_ ~x:_ ~c1:_ ~y:_ ~c2:_ ~w ->
      if
        List.length !victims < 4
        && (not (Table.is_null_weight w))
        && Lineage.has_supports (Dred.lineage dred) id
      then victims := id :: !victims)
    pi;
  check_int "four victims" 4 (List.length !victims);
  let rebuilds = Storage.index_rebuilds pi
  and rows = Table.nrows (Storage.table pi)
  and bound = Fgraph.bound graph
  and size = Fgraph.size graph
  and counted = compactions () in
  let st = Dred.retract dred !victims in
  check_bool "the retract killed factors" true (st.Dred.factors_removed > 0);
  check_int "no TΠ index rebuilt" rebuilds (Storage.index_rebuilds pi);
  check_int "no compaction counted" counted (compactions ());
  check_int "no compaction run" 0 (Dred.compactions dred);
  check_int "TΠ keeps its rows" rows (Table.nrows (Storage.table pi));
  check_int "dead facts are the overdeleted ones" st.Dred.overdeleted
    (Storage.pending_deletes pi);
  check_int "TΦ keeps its positions" bound (Fgraph.bound graph);
  check_int "exactly factors_removed rows retired" st.Dred.factors_removed
    (Fgraph.dead_rows graph);
  check_int "the live count drops by factors_removed"
    (size - st.Dred.factors_removed)
    (Fgraph.size graph)

(* --- the dirty set: what a refresh must re-solve -------------------------

   Every TΦ mutation records the fact ids of the rows it appends or
   kills (Dred.take_dirty), and a refresh re-solves exactly the
   components those ids touch.  The oracle here diffs the live rows by
   position before and after one operation; no compaction may run in
   between, or positions would move. *)

let live_rows g =
  let rows = Hashtbl.create 256 in
  Fgraph.iter (fun f row -> Hashtbl.replace rows f row) g;
  rows

let ids_of_changed_rows before after =
  let ids = Hashtbl.create 64 in
  let note (i1, i2, i3, _) =
    List.iter
      (fun i -> if i <> Fgraph.null then Hashtbl.replace ids i ())
      [ i1; i2; i3 ]
  in
  Hashtbl.iter (fun f row -> if not (Hashtbl.mem after f) then note row) before;
  Hashtbl.iter (fun f row -> if not (Hashtbl.mem before f) then note row) after;
  ids

let sorted_ids tbl =
  List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) tbl [])

(* Runs [op] and checks the dirty set it left against the oracle. *)
let check_dirty name st op =
  ignore (Dred.take_dirty st);
  let before = live_rows (Dred.graph st)
  and compactions = Dred.compactions st in
  let result = op () in
  check_int (name ^ ": no compaction") compactions (Dred.compactions st);
  let expected =
    sorted_ids (ids_of_changed_rows before (live_rows (Dred.graph st)))
  in
  check_bool (name ^ ": rows changed") true (expected <> []);
  Alcotest.(check (list int))
    (name ^ ": dirty set") expected
    (sorted_ids (Dred.take_dirty st));
  result

let parse_rule kb text =
  let scratch = Gamma.create_like kb in
  ignore (Kb.Loader.load_rules scratch [ text ]);
  List.hd (Gamma.rules scratch)

let test_dirty_ingest_retract () =
  let g =
    Workload.Reverb_sherlock.generate
      { Workload.Reverb_sherlock.default_config with scale = 0.005; seed = 9 }
  in
  let kb = Workload.Reverb_sherlock.kb g in
  let st = expand_dred kb in
  let pi = Gamma.pi kb in
  let rng = Workload.Rng.create 5 in
  let fresh =
    List.init 4 (fun _ ->
        let r, x, c1, y, c2 = Workload.Reverb_sherlock.random_fact g rng in
        (r, x, c1, y, c2, 0.7))
  in
  let ins = check_dirty "ingest" st (fun () -> Dred.ingest st fresh) in
  check_bool "the ingest inserted facts" true (ins.Dred.inserted > 0);
  (* An extraction of an inferred fact promotes it: one singleton. *)
  let inferred = ref None and supported = ref [] in
  Storage.iter
    (fun ~id ~r ~x ~c1 ~y ~c2 ~w ->
      if Table.is_null_weight w then begin
        if !inferred = None then inferred := Some (r, x, c1, y, c2, 0.8)
      end
      else if
        List.length !supported < 3
        && Lineage.has_supports (Dred.lineage st) id
      then supported := id :: !supported)
    pi;
  let ins =
    check_dirty "ingest (promotion)" st (fun () ->
        Dred.ingest st [ Option.get !inferred ])
  in
  check_int "one promotion" 1 ins.Dred.promoted;
  let victims = !supported in
  let ret =
    check_dirty "retract" st (fun () -> Dred.retract st (List.tl victims))
  in
  check_bool "the retract killed factors" true (ret.Dred.factors_removed > 0);
  let ret =
    check_dirty "retract with ban" st (fun () ->
        Dred.retract ~ban:true st [ List.hd victims ])
  in
  check_bool "the banned retract killed factors" true
    (ret.Dred.factors_removed > 0);
  (* Compaction moves rows but changes none. *)
  check_bool "dead rows to compact" true (Fgraph.dead_rows (Dred.graph st) > 0);
  ignore (Dred.take_dirty st);
  let before = Dred.compactions st in
  Dred.compact st;
  check_bool "compacted" true (Dred.compactions st > before);
  Alcotest.(check (list int))
    "compaction dirties nothing" []
    (sorted_ids (Dred.take_dirty st))

let test_dirty_rules_and_constraints () =
  let kb = Gamma.create () in
  ignore
    (Kb.Loader.load_rules kb
       [ "1.0 r(x:A, y:B) :- q(x, y)"; "1.0 s(x:A, y:B) :- r(x, y)" ]);
  let add r x y w =
    ignore (Gamma.add_fact_by_name kb ~r ~x ~c1:"A" ~y ~c2:"B" ~w)
  in
  add "q" "a" "b" 0.9;
  add "p" "a" "b" 0.8;
  (* Bystanders, so that no retract below passes the compaction
     threshold. *)
  for i = 1 to 40 do
    add "u" (Printf.sprintf "x%d" i) "y" 0.5
  done;
  Gamma.add_funcon kb
    (Kb.Funcon.make ~rel:(Gamma.relation kb "q") ~ftype:Kb.Funcon.Type_I
       ~degree:1);
  let st = expand_dred kb in
  (* A new rule whose instance joins two existing facts: factors appear,
     facts do not. *)
  let ins =
    check_dirty "add_rules" st (fun () ->
        Dred.extend_rules st [ parse_rule kb "0.7 p(x:A, y:B) :- q(x, y)" ])
  in
  check_int "no new facts" 0 ins.Dred.derived;
  check_bool "new factors among existing facts" true (ins.Dred.new_factors > 0);
  let p = Gamma.relation kb "p" in
  ignore
    (check_dirty "retract_rules" st (fun () ->
         Dred.retract_rules st ~remove:(fun c -> c.Mln.Clause.head_rel = p)));
  (* A fact stored behind the session's back has no consequences yet;
     reexpand derives them. *)
  add "q" "c" "d" 0.9;
  let ins = check_dirty "reexpand" st (fun () -> Dred.reexpand st) in
  check_bool "reexpand derived facts" true (ins.Dred.derived > 0);
  (* q(a, ·) has degree 1; a second one violates Ω. *)
  ignore
    (check_dirty "ingest" st (fun () ->
         Dred.ingest st
           [
             ( Gamma.relation kb "q", Gamma.entity kb "a", Gamma.cls kb "A",
               Gamma.entity kb "e", Gamma.cls kb "B", 0.9 );
           ]));
  Dred.compact st;
  let violations, _ =
    check_dirty "enforce_constraints" st (fun () -> Dred.enforce_constraints st)
  in
  check_bool "a violation enforced" true (violations > 0)

(* A refresh with no write since the last one copies every exact answer
   and solves nothing but the sampled components, which the sampler
   always runs on afresh; on a graph solved exactly it solves nothing. *)
let test_refresh_without_writes () =
  let check_second_refresh name kb options =
    let engine =
      Probkb.Engine.create
        ~config:
          (Probkb.Config.make ~inference:(Some options)
             ~obs:Obs.Config.enabled ())
        kb
    in
    let s = Probkb.Engine.session engine in
    let report () =
      match Probkb.Engine.Session.last_run s with
      | Some (Inference.Marginal.Hybrid_run r) -> r
      | None -> Alcotest.fail "no solve report"
    in
    ignore (Probkb.Engine.Session.refresh_marginals s);
    let r1 = report () in
    let before = solve_counters engine in
    ignore (Probkb.Engine.Session.refresh_marginals s);
    let sampled = r1.Inference.Hybrid.sampled_components in
    let grew = List.map2 ( - ) (solve_counters engine) before in
    Alcotest.(check (list int))
      (name ^ ": reused, solved, sampler runs")
      [
        Array.length r1.Inference.Hybrid.components - sampled;
        sampled;
        (if sampled > 0 then 1 else 0);
      ]
      grew;
    let timeless r =
      { r with Inference.Hybrid.exact_seconds = 0.; gibbs_seconds = 0. }
    in
    check_bool (name ^ ": the report still describes the whole graph") true
      (compare (timeless (report ())) (timeless r1) = 0);
    sampled
  in
  let g =
    Workload.Reverb_sherlock.generate
      { Workload.Reverb_sherlock.default_config with scale = 0.005; seed = 9 }
  in
  check_bool "some components sampled" true
    (check_second_refresh "sampled" (Workload.Reverb_sherlock.kb g)
       sampling_options
    > 0);
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  check_int "nothing sampled" 0
    (check_second_refresh "exact" kb Inference.Hybrid.default_options)

(* Every refresh of [s] must equal a solve of its graph without a memo,
   bit for bit. *)
let check_refresh_solved name s options =
  ignore (Probkb.Engine.Session.refresh_marginals s);
  let solved, _ =
    Inference.Marginal.infer_full (Probkb.Engine.Session.graph s) options
  in
  Hashtbl.iter
    (fun id p ->
      match Probkb.Engine.Session.marginal s id with
      | Some q when Float.equal p q -> ()
      | _ -> Alcotest.failf "%s: refresh marginal of %d is not solved" name id)
    solved

(* A write can raise after its grounding pass appended rows to TΦ; the
   serving writer catches the exception and keeps the session.  Those
   rows lie past DRed's sync watermark, so they are dirty
   all the same, and the next refresh re-solves what they touch. *)
let test_refresh_after_failed_write () =
  let g =
    Workload.Reverb_sherlock.generate
      { Workload.Reverb_sherlock.default_config with scale = 0.005; seed = 9 }
  in
  let kb = Workload.Reverb_sherlock.kb g in
  let engine =
    Probkb.Engine.create
      ~config:(Probkb.Config.make ~inference:(Some sampling_options) ())
      kb
  in
  let s = Probkb.Engine.session engine in
  check_refresh_solved "first refresh" s sampling_options;
  (* Two facts of different exactly solved components, whose cached
     answers the half-written epoch's rows make stale: the first row
     joins them. *)
  let c = Fgraph.compile (Probkb.Engine.Session.graph s) in
  let roots = (Inference.Decompose.partition c).Inference.Decompose.roots in
  let exact =
    match Probkb.Engine.Session.last_run s with
    | Some (Inference.Marginal.Hybrid_run r) ->
      List.filter
        (fun i ->
          r.Inference.Hybrid.components.(i).Inference.Hybrid.solver
          = Inference.Hybrid.Enumerated)
        (List.init (Array.length roots) Fun.id)
    | None -> Alcotest.fail "no solve report"
  in
  let a, b =
    match exact with
    | i :: j :: _ ->
      (c.Fgraph.var_ids.(roots.(i)), c.Fgraph.var_ids.(roots.(j)))
    | _ -> Alcotest.fail "fewer than two enumerated components"
  in
  (try
     Fgraph.add_clause (Probkb.Engine.Session.graph s) ~i1:a ~i2:b ~w:2.5 ();
     Fgraph.add_singleton (Probkb.Engine.Session.graph s) ~i:b ~w:(-1.5);
     failwith "the write failed halfway"
   with Failure _ -> ());
  check_refresh_solved "after the failed write" s sampling_options;
  (* And a write after it: its own rows and the stray ones are both
     covered. *)
  ignore
    (Probkb.Engine.Session.ingest s
       [
         (let r, x, c1, y, c2 =
            Workload.Reverb_sherlock.random_fact g (Workload.Rng.create 3)
          in
          (r, x, c1, y, c2, 0.8));
       ]);
  check_refresh_solved "after the next write" s sampling_options

(* The dirty set serves the next refresh only: a session that never
   refreshes keeps none, and one whose writes outgrow the last refresh
   drops both the set and the memo, and solves everything next. *)
let test_dirty_set_bounded () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let engine =
    Probkb.Engine.create
      ~config:(Probkb.Config.make ~inference:(Some transcript_solver) ())
      kb
  in
  let s = Probkb.Engine.session engine in
  let dirty () = Dred.dirty_count (Probkb.Engine.Session.dred s) in
  let fact i w =
    ( Gamma.relation kb "born_in",
      Gamma.entity kb (Printf.sprintf "person %d" i),
      Gamma.cls kb "W",
      Gamma.entity kb "Brooklyn",
      Gamma.cls kb "P",
      w )
  in
  ignore (Probkb.Engine.Session.ingest s [ fact 1 0.9 ]);
  check_int "no refresh yet: no dirty set" 0 (dirty ());
  check_refresh_solved "first refresh" s transcript_solver;
  let vars =
    Fgraph.nvars (Fgraph.compile (Probkb.Engine.Session.graph s))
  in
  ignore (Probkb.Engine.Session.ingest s [ fact 2 0.8 ]);
  check_bool "a small write stays dirty" true
    (dirty () > 0 && dirty () <= vars);
  ignore
    (Probkb.Engine.Session.ingest s
       (List.init (2 * vars) (fun i -> fact (10 + i) 0.7)));
  check_int "a write past the memo's size drops the set" 0 (dirty ());
  check_refresh_solved "a refresh after the drop" s transcript_solver

(* --- the one fact↔factor index under churn ------------------------------ *)

(* [Dred.lineage] is built once and then kept across retracts, which it
   reads through by skipping killed positions, and dropped at every
   append and compaction.  Random streams of ingests, retracts with and
   without ban, rule drops and restores and compactions run over dense
   random KBs; after every epoch the lineage must list, for every fact
   id, what the per-fact hash tables of a rebuild over the live graph
   list (Snapshot_oracle), in the same order, and a lineage frozen
   before the epoch — read through a copy of the graph, as a snapshot
   reads it — and a snapshot frozen before it must still list and view
   what they did. *)

type churn_op =
  | Ingest of int  (** this many random facts, fresh or not *)
  | Retract of int list * bool  (** live facts, by index mod count; ban? *)
  | Drop_rules of int  (** retract the rules of one head relation *)
  | Restore_rules  (** add back the rules dropped last *)
  | Compact

let gen_churn_op =
  let open QCheck.Gen in
  frequency
    [
      (3, map (fun n -> Ingest (1 + n)) (int_bound 3));
      (4, map2 (fun ks ban -> Retract (ks, ban))
           (list_size (1 -- 3) (int_bound 99)) bool);
      (1, map (fun k -> Drop_rules k) (int_bound 99));
      (1, return Restore_rules);
      (1, return Compact);
    ]

let print_churn_op = function
  | Ingest n -> Printf.sprintf "Ingest %d" n
  | Retract (ks, ban) ->
    Printf.sprintf "Retract ([%s], %b)"
      (String.concat "; " (List.map string_of_int ks))
      ban
  | Drop_rules k -> Printf.sprintf "Drop_rules %d" k
  | Restore_rules -> "Restore_rules"
  | Compact -> "Compact"

let test_lineage_under_churn =
  Tutil.qcheck_case ~count:150 "the one index under churn"
    QCheck.(
      pair small_nat
        (make
           ~print:(QCheck.Print.list print_churn_op)
           Gen.(list_size (4 -- 12) gen_churn_op)))
    (fun (seed, ops) ->
      let rng = Tutil.rng seed in
      let kb, fact = Tutil.dense_kb rng in
      let st = expand_dred kb in
      let pi = Gamma.pi kb in
      let ids () = List.init (Storage.next_id pi + 1) Fun.id in
      let views snap ids = List.map (Probkb.Snapshot.view snap) ids in
      let dropped = ref [] in
      let apply = function
        | Ingest n ->
          ignore
            (Dred.ingest st
               (List.init n (fun _ ->
                    let r, x, c1, y, c2 = fact () in
                    (r, x, c1, y, c2, Random.State.float rng 1.))))
        | Retract (ks, ban) -> (
          let live = ref [] in
          Storage.iter
            (fun ~id ~r:_ ~x:_ ~c1:_ ~y:_ ~c2:_ ~w:_ -> live := id :: !live)
            pi;
          match Array.of_list (List.rev !live) with
          | [||] -> ()
          | live ->
            ignore
              (Dred.retract ~ban st
                 (List.map (fun k -> live.(k mod Array.length live)) ks)))
        | Drop_rules k -> (
          match Gamma.rules kb with
          | [] -> ()
          | rules ->
            let rel =
              (List.nth rules (k mod List.length rules)).Mln.Clause.head_rel
            in
            let remove c = c.Mln.Clause.head_rel = rel in
            dropped := List.filter remove rules :: !dropped;
            ignore (Dred.retract_rules st ~remove))
        | Restore_rules -> (
          match !dropped with
          | [] -> ()
          | rules :: rest ->
            dropped := rest;
            ignore (Dred.extend_rules st rules))
        | Compact -> Dred.compact st
      in
      let lists l =
        Tutil.adjacency_lists (Grounding.Local.adjacency_of_lineage l)
      in
      List.for_all
        (fun op ->
          let ids_before = ids () in
          let frozen =
            Lineage.through (Dred.lineage st) (Fgraph.copy (Dred.graph st))
          in
          let snap = Probkb.Snapshot.freeze ~pi ~lineage:(Dred.lineage st) () in
          let frozen_lists = lists frozen ids_before
          and frozen_views = views snap ids_before in
          apply op;
          let l = Dred.lineage st and ids = ids () in
          let expected =
            Tutil.adjacency_lists
              (Snapshot_oracle.adjacency_of_graph (Dred.graph st))
              ids
          in
          lists l ids = expected
          && List.for_all2
               (fun id (_, supports, prior) ->
                 Lineage.is_base l id = (prior <> None)
                 && Lineage.has_supports l id = (supports <> []))
               ids expected
          && lists frozen ids_before = frozen_lists
          && compare (views snap ids_before) frozen_views = 0)
        ops)

let () =
  Alcotest.run "incremental"
    [
      ( "dred",
        [
          Alcotest.test_case "retract worked example" `Quick
            test_retract_worked_example;
          Alcotest.test_case "rederive keeps supported facts" `Quick
            test_rederive_keeps_supported_facts;
          Alcotest.test_case "demotion" `Quick test_demotion;
          Alcotest.test_case "empty-cone fast path" `Quick
            test_empty_cone_fast_path;
          Alcotest.test_case "ban blocks re-ingest" `Quick
            test_banned_retraction_blocks_reingest;
          Alcotest.test_case "a banned head stays dead" `Quick
            test_banned_head_stays_dead;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "ingest extends factors" `Quick
            test_ingest_extends_factors;
          Alcotest.test_case "promotion" `Quick test_promotion;
          Alcotest.test_case "duplicate keys in one batch" `Quick
            test_duplicate_keys_in_batch;
          Alcotest.test_case "an ingest appends Query 2's rows in its order"
            `Quick test_ingest_appends_query2_order;
        ] );
      ( "rules",
        [
          Alcotest.test_case "retract rules" `Quick test_retract_rules;
          Alcotest.test_case "extend rules" `Quick test_extend_rules;
          Alcotest.test_case "reexpand ≡ rebuild: a capped closure" `Quick
            test_reexpand_capped;
          Alcotest.test_case "reexpand ≡ rebuild: facts stored behind it"
            `Quick test_reexpand_external_facts;
          Alcotest.test_case "reexpand ≡ rebuild: extend_rules when capped"
            `Quick test_extend_rules_capped;
        ] );
      ( "differential",
        [
          prop_retract_equals_rebuild;
          prop_interleaved_epochs;
          Alcotest.test_case "tombstones ≡ compaction after every epoch"
            `Quick test_compaction_invisible;
          Alcotest.test_case "incremental refresh ≡ full solve" `Quick
            test_incremental_refresh;
          test_lineage_under_churn;
        ] );
      ( "session",
        [
          Alcotest.test_case "epoch ledger" `Quick test_session_epochs;
          Alcotest.test_case "constraints via DRed" `Quick
            test_session_constraints_via_dred;
          Alcotest.test_case "session digest pinned" `Quick
            test_session_digest_pinned;
          Alcotest.test_case "epoch replies pinned" `Quick
            test_epoch_replies_pinned;
          Alcotest.test_case "ingest probes fewer rows than TΠ" `Quick
            test_ingest_probe_rows_below_tpi;
          Alcotest.test_case "retract retires in place" `Quick
            test_retract_retires_in_place;
        ] );
      ( "refresh",
        [
          Alcotest.test_case "dirty set: ingest, retract, compact" `Quick
            test_dirty_ingest_retract;
          Alcotest.test_case "dirty set: rules, reexpand, constraints" `Quick
            test_dirty_rules_and_constraints;
          Alcotest.test_case
            "a refresh without writes re-solves only sampled components"
            `Quick test_refresh_without_writes;
          Alcotest.test_case "a failed write's rows are dirty" `Quick
            test_refresh_after_failed_write;
          Alcotest.test_case "the dirty set stays bounded" `Quick
            test_dirty_set_bounded;
        ] );
    ]
