(* Query-driven local grounding.

   The load-bearing property is *local-equals-global*: with an unbounded
   budget, the neighbourhood subgraph emitted by [Grounding.Local] is the
   query's connected component of the full ground graph in canonical
   order, so exact inference over it reproduces the full-closure exact
   marginals bit for bit — whichever adjacency the walk reads (the
   lineage's CSR that frozen snapshots read, or the per-fact hash tables
   of test/snapshot_oracle.ml).  Budgets trade that identity for latency;
   the truncation tests pin down the direction of the trade. *)

module Table = Relational.Table
module Storage = Kb.Storage
module Gamma = Kb.Gamma
module Fgraph = Factor_graph.Fgraph
module Local = Grounding.Local
module Exact = Inference.Exact
module Neighborhood = Inference.Neighborhood

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sigmoid w = 1. /. (1. +. exp (-.w))

(* Exact full-closure marginals, fact id → P — solved through the same
   per-component dispatcher the local path uses, so local-equals-global
   stays bitwise whichever exact solver a component routes to (the
   jtree-equals-enumeration accuracy bound is pinned in test_hybrid). *)
let full_marginals graph =
  let c = Fgraph.compile graph in
  let marg, _ = Neighborhood.solve c in
  let tbl = Hashtbl.create 64 in
  Array.iteri (fun v p -> Hashtbl.replace tbl c.Fgraph.var_ids.(v) p) marg;
  tbl

(* Solve a local result; boundary facts are clamped by [clamp] (required
   whenever the walk truncated). *)
let local_marginal ?clamp (r : Local.result) id =
  (match clamp with
  | Some prob ->
    Neighborhood.clamp_boundary r.Local.graph ~boundary:r.Local.boundary
      ~prob
  | None -> assert (r.Local.boundary = [||]));
  let c = Fgraph.compile r.Local.graph in
  let marg, _ = Neighborhood.solve c in
  match Hashtbl.find_opt c.Fgraph.var_of_id id with
  | Some v -> marg.(v)
  | None -> 0.5

(* Ground [kb] in place; its graph and the adjacency the walk reads. *)
let grounded kb =
  let graph = (Grounding.Ground.run kb).Grounding.Ground.graph in
  (graph, Local.adjacency_of_lineage (Factor_graph.Lineage.build graph))

let all_fact_ids kb =
  let acc = ref [] in
  Storage.iter
    (fun ~id ~r:_ ~x:_ ~c1:_ ~y:_ ~c2:_ ~w:_ -> acc := id :: !acc)
    (Gamma.pi kb);
  List.rev !acc

(* Extraction prior for base facts, uninformative 0.5 for inferred ones:
   what a snapshot without cached marginals clamps to on a chain, where
   every inferred fact's prior is absent. *)
let prior_clamp kb id =
  match Storage.row_of_id (Gamma.pi kb) id with
  | Some row ->
    let w = Table.weight (Storage.table (Gamma.pi kb)) row in
    if Table.is_null_weight w then 0.5 else sigmoid w
  | None -> 0.5

(* Factor rows (weights included), in emission order — the canonical
   order, so plain list equality is table identity. *)
let rows g =
  let acc = ref [] in
  Fgraph.iter (fun _ (i1, i2, i3, w) -> acc := (i1, i2, i3, w) :: !acc) g;
  List.rev !acc

(* --- local-equals-global on the worked example ------------------------ *)

let test_ruth_gruber_identity () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let graph, adj = grounded kb in
  let full = full_marginals graph in
  let n = List.length (all_fact_ids kb) in
  List.iter
    (fun id ->
      let r = Local.run adj ~query:id in
      check_bool "unbounded walk never truncates" false r.Local.truncated;
      check_int "the component is the whole example" n
        (Array.length r.Local.interior);
      check_bool
        (Printf.sprintf "fact %d: local marginal is bitwise exact" id)
        true
        (local_marginal r id = Hashtbl.find full id))
    (all_fact_ids kb)

(* --- edge cases ------------------------------------------------------- *)

let test_unknown_fact () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let _, adj = grounded kb in
  let r = Local.run adj ~query:424242 in
  check_int "empty neighbourhood" 0 (Fgraph.size r.Local.graph);
  check_bool "interior is just the query" true (r.Local.interior = [| 424242 |]);
  check_bool "not truncated" false r.Local.truncated;
  check_bool "uniform fallback marginal" true (local_marginal r 424242 = 0.5)

(* A frozen snapshot of [Engine.expand]'s expansion: what
   [probkb query --local] answers from. *)
let freeze_expansion ?config kb =
  let engine = Probkb.Engine.create ?config kb in
  let e = Probkb.Engine.expand engine in
  ( e,
    Probkb.Snapshot.freeze ~pi:(Gamma.pi kb)
      ~lineage:(Factor_graph.Lineage.build e.Probkb.Engine.graph) () )

let test_engine_unknown_key () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let _, snap = freeze_expansion kb in
  check_bool "unknown key answers None" true
    (Probkb.Snapshot.query_local snap ~r:99 ~x:99 ~c1:99 ~y:99 ~c2:99 = None)

let test_isolated_fact () =
  (* A weighted fact with no rules: the neighbourhood is its prior
     singleton alone, and P = sigmoid(w) exactly (same weight convention
     as the batch [singleton_factors]). *)
  let kb = Gamma.create () in
  let id =
    Gamma.add_fact_by_name kb ~r:"p" ~x:"a" ~c1:"C" ~y:"b" ~c2:"C" ~w:0.8
  in
  let _, adj = grounded kb in
  let r = Local.run adj ~query:id in
  check_int "one prior factor" 1 (Fgraph.size r.Local.graph);
  check_bool "P = sigmoid(w)" true (local_marginal r id = sigmoid 0.8)

let test_budget_validation () =
  Alcotest.check_raises "decay 0 rejected"
    (Invalid_argument "Local.budget: decay must be in (0, 1]") (fun () ->
      ignore (Local.budget ~decay:0.0 ()));
  Alcotest.check_raises "negative hops rejected"
    (Invalid_argument "Local.budget: max_hops must be >= 0") (fun () ->
      ignore (Local.budget ~max_hops:(-1) ()))

(* --- budgets on a derivation chain ------------------------------------ *)

(* r0(a,b) [w0] → r1(a,b) → ... → r{n-1}(a,b): querying the top of the
   chain at increasing hop budgets walks the boundary down the chain. *)
let chain_kb n w0 =
  let kb = Gamma.create () in
  let rules =
    List.init (n - 1) (fun i ->
        Printf.sprintf "1.10 r%d(x:C, y:C) :- r%d(x, y)" (i + 1) i)
  in
  ignore (Kb.Loader.load_rules kb rules);
  ignore (Gamma.add_fact_by_name kb ~r:"r0" ~x:"a" ~c1:"C" ~y:"b" ~c2:"C" ~w:w0);
  kb

let chain_top kb n =
  match
    Storage.find (Gamma.pi kb)
      ~r:(Gamma.relation kb (Printf.sprintf "r%d" (n - 1)))
      ~x:(Gamma.entity kb "a") ~c1:(Gamma.cls kb "C")
      ~y:(Gamma.entity kb "b") ~c2:(Gamma.cls kb "C")
  with
  | Some id -> id
  | None -> Alcotest.fail "chain top not derived"

let test_budget_hops_monotone () =
  let n = 6 in
  let kb = chain_kb n 0.9 in
  let graph, adj = grounded kb in
  let full = full_marginals graph in
  let q = chain_top kb n in
  let pf = Hashtbl.find full q in
  let err k =
    let r = Local.run ~budget:(Local.budget ~max_hops:k ()) adj ~query:q in
    if k < n - 1 then begin
      check_bool "truncated below the chain depth" true r.Local.truncated;
      check_bool "hops within budget" true (r.Local.hops <= k)
    end;
    abs_float (local_marginal ~clamp:(prior_clamp kb) r q -. pf)
  in
  let errs = List.init n err in
  List.iteri
    (fun k e ->
      if k > 0 then
        check_bool
          (Printf.sprintf "error at %d hops <= error at %d hops" k (k - 1))
          true
          (e <= List.nth errs (k - 1) +. 1e-12))
    errs;
  check_bool "full-depth budget recovers the exact marginal" true
    (List.nth errs (n - 1) = 0.)

let test_budget_max_facts () =
  let n = 6 in
  let kb = chain_kb n 0.9 in
  let _, adj = grounded kb in
  let q = chain_top kb n in
  let r = Local.run ~budget:(Local.budget ~max_facts:1 ()) adj ~query:q in
  check_bool "interior is just the query" true (r.Local.interior = [| q |]);
  check_bool "support clamped at the boundary" true
    (Array.length r.Local.boundary = 1);
  check_bool "pruned mass recorded" true (r.Local.pruned_mass > 0.)

let test_budget_decay_threshold () =
  let n = 6 in
  let kb = chain_kb n 0.9 in
  let _, adj = grounded kb in
  let q = chain_top kb n in
  let r =
    Local.run ~budget:(Local.budget ~decay:0.5 ~min_influence:0.3 ()) adj
      ~query:q
  in
  (* decay^1 = 0.5 >= 0.3 but decay^2 = 0.25 < 0.3: exactly one hop is
     expanded beyond the query. *)
  check_int "one hop expanded" 1 r.Local.hops;
  check_bool "truncated" true r.Local.truncated;
  check_bool "pruned influence summed at 0.25" true
    (abs_float (r.Local.pruned_mass -. 0.25) < 1e-12)

(* --- qcheck differential on random KBs -------------------------------- *)

(* Seed-derived small KB: single class, a handful of entities/relations,
   random rules over all six patterns (fully duplicate signatures
   included: the walk reads TΦ, where the batch has already collapsed
   them) and random weighted base facts. *)
let random_kb seed =
  let st = Random.State.make [| seed; 0x10ca1 |] in
  let kb = Gamma.create () in
  let rel i = Printf.sprintf "r%d" i in
  let n_rules = 2 + Random.State.int st 3 in
  let rules = ref [] in
  for _ = 1 to n_rules do
    let shape = Random.State.int st 6 in
    let h = Random.State.int st 4 in
    let b1 = (h + 1 + Random.State.int st 3) mod 4 in
    let b2 = (h + 1 + Random.State.int st 3) mod 4 in
    let w = 0.3 +. (float_of_int (Random.State.int st 12) /. 10.) in
    let s =
      match shape with
      | 0 -> Printf.sprintf "%.2f %s(x:C, y:C) :- %s(x, y)" w (rel h) (rel b1)
      | 1 -> Printf.sprintf "%.2f %s(x:C, y:C) :- %s(y, x)" w (rel h) (rel b1)
      | 2 ->
        Printf.sprintf "%.2f %s(x:C, y:C) :- %s(z:C, x), %s(z, y)" w (rel h)
          (rel b1) (rel b2)
      | 3 ->
        Printf.sprintf "%.2f %s(x:C, y:C) :- %s(x, z:C), %s(z, y)" w (rel h)
          (rel b1) (rel b2)
      | 4 ->
        Printf.sprintf "%.2f %s(x:C, y:C) :- %s(z:C, x), %s(y, z)" w (rel h)
          (rel b1) (rel b2)
      | _ ->
        Printf.sprintf "%.2f %s(x:C, y:C) :- %s(x, z:C), %s(y, z)" w (rel h)
          (rel b1) (rel b2)
    in
    rules := s :: !rules
  done;
  ignore (Kb.Loader.load_rules kb !rules);
  let n_facts = 3 + Random.State.int st 4 in
  for _ = 1 to n_facts do
    let r = rel (Random.State.int st 4)
    and x = Printf.sprintf "e%d" (Random.State.int st 3)
    and y = Printf.sprintf "e%d" (Random.State.int st 3)
    and w = 0.55 +. (float_of_int (Random.State.int st 40) /. 100.) in
    match
      Storage.find (Gamma.pi kb) ~r:(Gamma.relation kb r)
        ~x:(Gamma.entity kb x) ~c1:(Gamma.cls kb "C") ~y:(Gamma.entity kb y)
        ~c2:(Gamma.cls kb "C")
    with
    | Some _ -> ()
    | None ->
      ignore (Gamma.add_fact_by_name kb ~r ~x ~c1:"C" ~y ~c2:"C" ~w)
  done;
  kb

(* Both sources: the CSR and the oracle's per-fact hash tables. *)
let test_differential_random =
  Tutil.qcheck_case ~count:60 "local = global on random KBs (both sources)"
    QCheck.small_nat (fun seed ->
      let kb = random_kb seed in
      let graph, csr = grounded kb in
      let c = Fgraph.compile graph in
      (* The exact enumerator is the differential oracle; skip the rare
         draw whose component outgrows it. *)
      Inference.Decompose.max_size c > Exact.max_vars
      ||
      let full = full_marginals graph in
      let tables = Snapshot_oracle.adjacency_of_graph graph in
      List.for_all
        (fun id ->
          let rc = Local.run csr ~query:id in
          let rt = Local.run tables ~query:id in
          let pf = Hashtbl.find full id in
          (not (rc.Local.truncated || rt.Local.truncated))
          && rows rc.Local.graph = rows rt.Local.graph
          && local_marginal rc id = pf
          && local_marginal rt id = pf)
        (all_fact_ids kb))

let test_budget_chain_monotone =
  (* On derivation chains — where each hop strictly refines the evidence
     between the query and the base fact — a larger hop budget never
     increases the error against the full closure, whatever the rule and
     extraction weights.  (On general graphs partial evidence can
     transiently overshoot, so monotonicity is a chain-family property,
     not a universal one.) *)
  Tutil.qcheck_case ~count:40 "chain error is monotone in the hop budget"
    QCheck.small_nat (fun seed ->
      let st = Random.State.make [| seed; 0xc4a1 |] in
      let n = 3 + Random.State.int st 4 in
      let kb = Gamma.create () in
      let rules =
        List.init (n - 1) (fun i ->
            Printf.sprintf "%.2f r%d(x:C, y:C) :- r%d(x, y)"
              (0.4 +. (float_of_int (Random.State.int st 15) /. 10.))
              (i + 1) i)
      in
      ignore (Kb.Loader.load_rules kb rules);
      let w0 = 0.3 +. (float_of_int (Random.State.int st 15) /. 10.) in
      ignore
        (Gamma.add_fact_by_name kb ~r:"r0" ~x:"a" ~c1:"C" ~y:"b" ~c2:"C"
           ~w:w0);
      let graph, adj = grounded kb in
      let full = full_marginals graph in
      let q = chain_top kb n in
      let pf = Hashtbl.find full q in
      let err k =
        let r =
          Local.run ~budget:(Local.budget ~max_hops:k ()) adj ~query:q
        in
        abs_float (local_marginal ~clamp:(prior_clamp kb) r q -. pf)
      in
      let errs = List.init n err in
      List.nth errs (n - 1) = 0.
      && List.for_all
           (fun k -> List.nth errs k <= List.nth errs (k - 1) +. 1e-12)
           (List.init (n - 1) (fun k -> k + 1)))

(* --- engine and session wiring ---------------------------------------- *)

let test_engine_query_local () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let e, snap =
    freeze_expansion ~config:(Probkb.Config.make ~inference:None ()) kb
  in
  let full = full_marginals e.Probkb.Engine.graph in
  Storage.iter
    (fun ~id ~r ~x ~c1 ~y ~c2 ~w:_ ->
      match Probkb.Snapshot.query_local snap ~r ~x ~c1 ~y ~c2 with
      | None -> Alcotest.failf "fact %d not answered" id
      | Some a ->
        check_bool "engine answer is bitwise exact" true
          (a.Probkb.Snapshot.marginal = Hashtbl.find full id);
        check_bool "solved by enumeration" true a.Probkb.Snapshot.enumerated;
        check_bool "not truncated" false a.Probkb.Snapshot.truncated;
        check_int "id echoes the fact" id a.Probkb.Snapshot.id)
    (Gamma.pi kb)

(* [Engine.run] writes the inferred facts' marginals into TΠ's weight
   column.  A snapshot reads priors from TΦ's singleton factors, which
   [store_marginals] never touches, so a freeze after the run answers
   every fact with its batch marginal (a reader of the weight column
   answered 0.5860 for born_in(Ruth Gruber, New York City), against
   0.5111). *)
let test_reads_after_run () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let engine = Probkb.Engine.create kb in
  let result = Probkb.Engine.run engine in
  let e = result.Probkb.Engine.expansion in
  let batch = Probkb.Engine.infer engine e in
  check_bool "marginals were stored" true
    (result.Probkb.Engine.marginals_stored > 0);
  let snap =
    Probkb.Snapshot.freeze ~pi:(Gamma.pi kb)
      ~lineage:(Factor_graph.Lineage.build e.Probkb.Engine.graph) ()
  in
  Storage.iter
    (fun ~id ~r ~x ~c1 ~y ~c2 ~w:_ ->
      match Probkb.Snapshot.query_local snap ~r ~x ~c1 ~y ~c2 with
      | None -> Alcotest.failf "fact %d not answered" id
      | Some a ->
        check_bool
          (Printf.sprintf "fact %d: answer = batch marginal, bitwise" id)
          true
          (Int64.bits_of_float a.Probkb.Snapshot.marginal
          = Int64.bits_of_float (Hashtbl.find batch id)))
    (Gamma.pi kb)

let test_session_query_local () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let engine =
    Probkb.Engine.create ~config:(Probkb.Config.make ~inference:None ()) kb
  in
  let s = Probkb.Engine.session engine in
  let check_epoch what =
    let full = full_marginals (Probkb.Engine.Session.graph s) in
    let snap = Probkb.Engine.Session.snapshot s in
    Storage.iter
      (fun ~id ~r ~x ~c1 ~y ~c2 ~w:_ ->
        match Probkb.Snapshot.query_local snap ~r ~x ~c1 ~y ~c2 with
        | None -> Alcotest.failf "fact %d not answered %s" id what
        | Some a ->
          check_bool
            (Printf.sprintf "%s answer is bitwise exact" what)
            true
            (a.Probkb.Snapshot.marginal = Hashtbl.find full id))
      (Gamma.pi kb)
  in
  check_epoch "session";
  (* The next epoch's snapshot keeps answering correctly. *)
  let st =
    Probkb.Engine.Session.ingest s
      [
        ( Gamma.relation kb "born_in", Gamma.entity kb "Saul Bellow",
          Gamma.cls kb "W", Gamma.entity kb "Brooklyn", Gamma.cls kb "P",
          0.88 );
      ]
  in
  check_bool "epoch ran" true (st.Probkb.Engine.Session.inserted = 1);
  check_epoch "post-ingest"

(* --- the lineage's adjacency ------------------------------------------ *)

(* The CSR of [Factor_graph.Lineage.build] lists, for every fact id, the
   same derivations, supports and prior as the per-fact hash tables it
   replaced (test/snapshot_oracle.ml), in the same order.  The random
   graphs carry duplicate factors, clauses whose two body slots hold one
   fact, heads repeated in their own body, several priors for one fact
   and null body slots. *)
type factor_spec = Prior of int * float | Clause of int * int * int * float

let gen_adjacency_graph =
  let open QCheck.Gen in
  int_range 1 8 >>= fun nids ->
  let id = int_bound (nids - 1) in
  let w = float_range (-3.) 3. in
  let spec =
    frequency
      [
        (2, map2 (fun i w -> Prior (i, w)) id w);
        ( 5,
          id >>= fun i1 ->
          let slot =
            frequency [ (1, return Fgraph.null); (1, return i1); (4, id) ]
          in
          slot >>= fun i2 ->
          frequency [ (1, return i2); (4, slot) ] >>= fun i3 ->
          map (fun w -> Clause (i1, i2, i3, w)) w );
      ]
  in
  list_size (int_bound 40) spec >>= fun specs ->
  (* Duplicate some rows outright. *)
  list_size (int_bound 6) (int_bound 40) >|= fun dups ->
  let arr = Array.of_list specs in
  let n = Array.length arr in
  specs @ List.filter_map (fun k -> if n = 0 then None else Some arr.(k mod n)) dups

let graph_of_specs specs =
  let g = Fgraph.create () in
  List.iter
    (function
      | Prior (i, w) -> Fgraph.add_singleton g ~i ~w
      | Clause (i1, i2, i3, w) ->
        Fgraph.add_clause g ~i1
          ?i2:(if i2 = Fgraph.null then None else Some i2)
          ?i3:(if i3 = Fgraph.null then None else Some i3)
          ~w ())
    specs;
  g

let test_adjacency_csr_equals_hashtbl =
  Tutil.qcheck_case ~count:500 "CSR adjacency = per-fact hash tables"
    (QCheck.make gen_adjacency_graph) (fun specs ->
      let g = graph_of_specs specs in
      let csr = Local.adjacency_of_lineage (Factor_graph.Lineage.build g)
      and old = Snapshot_oracle.adjacency_of_graph g in
      (* Every id the graph can mention, plus ids on either side. *)
      let ids = List.init 11 (fun i -> i - 1) in
      Tutil.adjacency_lists csr ids = Tutil.adjacency_lists old ids
      && List.for_all
           (fun f -> compare (csr.Local.factor_of f) (old.Local.factor_of f) = 0)
           (List.init (Fgraph.size g) Fun.id))

let () =
  Alcotest.run "local"
    [
      ( "identity",
        [
          Alcotest.test_case "ruth gruber: local = global" `Quick
            test_ruth_gruber_identity;
          test_differential_random;
        ] );
      ( "edges",
        [
          Alcotest.test_case "unknown fact" `Quick test_unknown_fact;
          Alcotest.test_case "engine: unknown key" `Quick
            test_engine_unknown_key;
          Alcotest.test_case "isolated fact" `Quick test_isolated_fact;
          Alcotest.test_case "budget validation" `Quick test_budget_validation;
        ] );
      ( "budget",
        [
          Alcotest.test_case "hop budget error is monotone" `Quick
            test_budget_hops_monotone;
          Alcotest.test_case "node cap" `Quick test_budget_max_facts;
          Alcotest.test_case "decay threshold" `Quick
            test_budget_decay_threshold;
          test_budget_chain_monotone;
        ] );
      ("csr", [ test_adjacency_csr_equals_hashtbl ]);
      ( "engine",
        [
          Alcotest.test_case "query_local = exact" `Quick
            test_engine_query_local;
          Alcotest.test_case "reads after Engine.run = batch marginals" `Quick
            test_reads_after_run;
          Alcotest.test_case "session query_local = exact" `Quick
            test_session_query_local;
        ] );
    ]
