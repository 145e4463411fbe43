(* Treewidth-aware hybrid inference: Triangulate / Jtree / Hybrid
   dispatch.  The load-bearing properties are (1) junction-tree variable
   elimination agrees with enumeration, (2) the dispatcher is
   bit-identical to [Exact] wherever it enumerates, and (3) hybrid
   marginals are bit-identical at any pool size. *)

module Fgraph = Factor_graph.Fgraph

let compile_graph build =
  let g = Fgraph.create () in
  build g;
  Fgraph.compile g

let the_component c =
  match Inference.Decompose.components c with
  | [| comp |] -> comp
  | comps -> Alcotest.failf "expected one component, got %d" (Array.length comps)

let max_abs_diff a b =
  let m = ref 0. in
  Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. b.(i)))) a;
  !m

(* --- induced width --- *)

let test_width_closed_forms () =
  let width build = Inference.Triangulate.width_of (the_component (compile_graph build)) in
  Alcotest.(check int) "single var" 0
    (width (fun g -> Fgraph.add_singleton g ~i:0 ~w:0.5));
  Alcotest.(check int) "path" 1
    (width (fun g ->
         for i = 0 to 8 do
           Fgraph.add_clause g ~i1:i ~i2:(i + 1) ~w:0.5 ()
         done));
  Alcotest.(check int) "star" 1
    (width (fun g ->
         for i = 1 to 9 do
           Fgraph.add_clause g ~i1:0 ~i2:i ~w:0.5 ()
         done));
  Alcotest.(check int) "cycle" 2
    (width (fun g ->
         for i = 0 to 5 do
           Fgraph.add_clause g ~i1:i ~i2:((i + 1) mod 6) ~w:0.5 ()
         done));
  Alcotest.(check int) "K4" 3
    (width (fun g ->
         for i = 0 to 3 do
           for j = i + 1 to 3 do
             Fgraph.add_clause g ~i1:i ~i2:j ~w:0.5 ()
           done
         done))

let test_width_cap_bails_early () =
  (* A 10-clique has width 9; with cap 3 the simulation must stop and
     report the lower bound cap + 1. *)
  let c =
    compile_graph (fun g ->
        for i = 0 to 9 do
          for j = i + 1 to 9 do
            Fgraph.add_clause g ~i1:i ~i2:j ~w:0.2 ()
          done
        done)
  in
  let comp = the_component c in
  Alcotest.(check int) "capped report" 4
    (Inference.Triangulate.width_of ~cap:3 comp);
  Alcotest.(check int) "uncapped is exact" 9
    (Inference.Triangulate.width_of comp)

(* The k-core certificate on closed forms: a neighbour counts once
   however many factors link it, a variable's own head-in-body clause
   adds no neighbour, and the peel keeps exactly the variables with [k]
   neighbours inside the core. *)
let test_core_closed_forms () =
  let core_size ?keep build k =
    let c = compile_graph build in
    let keep =
      match keep with
      | Some f -> Array.map f c.Fgraph.var_ids
      | None -> Array.make (Fgraph.nvars c) true
    in
    Array.fold_left
      (fun n inside -> if inside then n + 1 else n)
      0
      (Inference.Triangulate.core c ~k ~keep)
  in
  let clique n g =
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        Fgraph.add_clause g ~i1:i ~i2:j ~w:0.5 ()
      done
    done
  in
  Alcotest.(check int) "K5 is its own 4-core" 5 (core_size (clique 5) 4);
  Alcotest.(check int) "K5 has no 5-core" 0 (core_size (clique 5) 5);
  Alcotest.(check int) "k <= 0 keeps every variable" 5
    (core_size (clique 5) 0);
  let cycle g =
    for i = 0 to 5 do
      Fgraph.add_clause g ~i1:i ~i2:((i + 1) mod 6) ~w:0.5 ()
    done;
    (* a pendant path hangs off the cycle *)
    Fgraph.add_clause g ~i1:6 ~i2:0 ~w:0.5 ();
    Fgraph.add_clause g ~i1:7 ~i2:6 ~w:0.5 ()
  in
  Alcotest.(check int) "a cycle's 2-core drops its pendant path" 6
    (core_size cycle 2);
  Alcotest.(check int) "a cycle has no 3-core" 0 (core_size cycle 3);
  (* Every link in three factors, one of them a clause whose head is
     also a body atom: counted once per factor, every variable of the
     path would have at least three neighbours. *)
  let repeated_path g =
    for i = 0 to 7 do
      Fgraph.add_clause g ~i1:(i + 1) ~i2:i ~w:0.5 ();
      Fgraph.add_clause g ~i1:i ~i2:(i + 1) ~w:0.5 ();
      Fgraph.add_clause g ~i1:i ~i2:i ~i3:(i + 1) ~w:0.5 ()
    done
  in
  Alcotest.(check int) "a path of repeated factors has no 2-core" 0
    (core_size repeated_path 2);
  (* A triangle clause links all three of its variables. *)
  Alcotest.(check int) "a three-variable clause is a triangle" 3
    (core_size (fun g -> Fgraph.add_clause g ~i1:0 ~i2:1 ~i3:2 ~w:0.5 ()) 2);
  (* Variables outside [keep] are not neighbours: K5 less one vertex is
     a K4, whose 4-core is empty. *)
  Alcotest.(check int) "unkept variables are not neighbours" 0
    (core_size ~keep:(fun id -> id <> 0) (clique 5) 4);
  Alcotest.(check int) "unkept variables are never in the core" 4
    (core_size ~keep:(fun id -> id <> 0) (clique 5) 3)

(* --- junction tree vs enumeration --- *)

(* Random tree-shaped component: var i > 0 hangs off a random earlier
   var, every var gets a singleton prior.  Width 1, enumerable. *)
let random_tree_graph rng n =
  compile_graph (fun g ->
      for i = 0 to n - 1 do
        Fgraph.add_singleton g ~i ~w:(Random.State.float rng 3.0 -. 1.5)
      done;
      for i = 1 to n - 1 do
        let p = Random.State.int rng i in
        let w = Random.State.float rng 2.0 in
        if Random.State.bool rng then Fgraph.add_clause g ~i1:i ~i2:p ~w ()
        else Fgraph.add_clause g ~i1:p ~i2:i ~w ()
      done)

let test_jtree_matches_enumeration =
  Tutil.qcheck_case ~count:80 "jtree = enumeration on random trees"
    QCheck.(pair (int_range 1 14) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Tutil.rng (seed + (7919 * n)) in
      let comp = the_component (random_tree_graph rng n) in
      let exact = Inference.Exact.enumerate comp in
      let ve = Inference.Jtree.solve comp in
      max_abs_diff exact ve < 1e-9)

let test_jtree_matches_enumeration_loopy () =
  (* Cycles and a small clique: width 2-3, still enumerable. *)
  List.iter
    (fun seed ->
      let rng = Tutil.rng seed in
      let c =
        compile_graph (fun g ->
            for i = 0 to 9 do
              Fgraph.add_singleton g ~i ~w:(Random.State.float rng 2.0 -. 1.0)
            done;
            for i = 0 to 9 do
              Fgraph.add_clause g ~i1:i ~i2:((i + 1) mod 10)
                ~w:(Random.State.float rng 1.5) ()
            done;
            (* a chord and a triangle factor *)
            Fgraph.add_clause g ~i1:0 ~i2:5 ~w:0.7 ();
            Fgraph.add_clause g ~i1:2 ~i2:4 ~i3:6 ~w:0.9 ())
      in
      let comp = the_component c in
      let d = max_abs_diff (Inference.Exact.enumerate comp) (Inference.Jtree.solve comp) in
      if d > 1e-9 then Alcotest.failf "seed %d: VE deviates by %g" seed d)
    [ 1; 2; 3; 4; 5 ]

let test_jtree_scales_past_enumeration () =
  (* A 400-variable chain: far beyond the enumeration cap, width 1.  BP
     is exact on trees, so it cross-checks VE. *)
  let c =
    compile_graph (fun g ->
        for i = 0 to 399 do
          Fgraph.add_singleton g ~i ~w:((float_of_int (i mod 7) /. 3.) -. 1.)
        done;
        for i = 0 to 398 do
          Fgraph.add_clause g ~i1:(i + 1) ~i2:i ~w:0.8 ()
        done)
  in
  let ve = Inference.Jtree.marginals c in
  let bp, st = Bp_oracle.marginals c in
  Alcotest.(check bool) "BP converged" true st.Bp_oracle.converged;
  let d = max_abs_diff ve bp in
  Alcotest.(check bool)
    (Printf.sprintf "VE matches BP on the chain (%.2e)" d)
    true (d < 1e-5)

let test_jtree_deterministic () =
  let rng = Tutil.rng 99 in
  let c = random_tree_graph rng 200 in
  let a = Inference.Jtree.marginals c in
  let b = Inference.Jtree.marginals c in
  Alcotest.(check bool) "bit-identical" true (a = b)

let test_jtree_hub_underflow () =
  (* Regression: a hub with thousands of conflicting leaf factors has
     induced width 1, but the hub clique's belief is a product of ~2000
     message tables.  Without per-combine renormalization of the running
     products the belief entries decay like p^k, underflow to an
     all-zero table, and every marginal comes out NaN (0/0). *)
  let n = 2001 in
  let leaf_prior i = if i mod 3 = 0 then 0.4 else -0.3 in
  let clause_w i = if i mod 2 = 0 then 1.5 else -1.5 in
  let c =
    compile_graph (fun g ->
        for i = 1 to n - 1 do
          Fgraph.add_singleton g ~i ~w:(leaf_prior i);
          Fgraph.add_clause g ~i1:0 ~i2:i ~w:(clause_w i) ()
        done)
  in
  let marg = Inference.Jtree.marginals c in
  Array.iteri
    (fun v p ->
      if not (Float.is_finite p && 0. <= p && p <= 1.) then
        Alcotest.failf "var %d: marginal %g is not a probability" v p)
    marg;
  (* The conflict nets out against the hub: its log-odds fall linearly
     in n, so P(hub) ~ e^-cn is indistinguishable from 0 here and every
     leaf has the closed-form marginal P(leaf | hub = 0) =
     e^prior / (e^prior + e^w) — with the hub false, the implication is
     satisfied exactly when the leaf body is false.  (BP is no oracle at
     this scale: its hub product underflows the same way and it reports
     a "converged" 0.5.) *)
  let p v = marg.(Hashtbl.find c.Fgraph.var_of_id v) in
  Alcotest.(check bool) "hub settles at 0" true (p 0 < 1e-9);
  for i = 1 to n - 1 do
    let expected =
      exp (leaf_prior i) /. (exp (leaf_prior i) +. exp (clause_w i))
    in
    if Float.abs (p i -. expected) > 1e-9 then
      Alcotest.failf "leaf %d: %.12f should be %.12f" i (p i) expected
  done

let test_jtree_rejects_high_width () =
  let c =
    compile_graph (fun g ->
        for i = 0 to 9 do
          for j = i + 1 to 9 do
            Fgraph.add_clause g ~i1:i ~i2:j ~w:0.2 ()
          done
        done)
  in
  match Inference.Jtree.marginals ~max_width:3 c with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- the dispatcher --- *)

let random_graph seed nvars nfactors =
  let rng = Tutil.rng seed in
  compile_graph (fun g ->
      for i = 0 to nvars - 1 do
        Fgraph.add_singleton g ~i ~w:(Random.State.float rng 3.0 -. 1.5)
      done;
      for _ = 1 to nfactors do
        let i1 = Random.State.int rng nvars
        and i2 = Random.State.int rng nvars
        and i3 = Random.State.int rng nvars in
        let w = Random.State.float rng 2.0 in
        if Random.State.bool rng then Fgraph.add_clause g ~i1 ~i2 ~w ()
        else Fgraph.add_clause g ~i1 ~i2 ~i3 ~w ()
      done)

let test_hybrid_bit_identical_to_exact () =
  (* Every component fits under the enumeration cutoff, so the
     dispatcher must reproduce [Exact.marginals] bit for bit. *)
  List.iter
    (fun seed ->
      let c = random_graph seed Inference.Hybrid.enum_cutoff 14 in
      let exact = Inference.Exact.marginals c in
      let marg, report = Inference.Hybrid.solve c in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: bitwise equal" seed)
        true (marg = exact);
      Alcotest.(check int) "nothing sampled" 0
        report.Inference.Hybrid.sampled_components;
      Alcotest.(check (float 1e-12)) "all exact" 1.0
        (Inference.Hybrid.exact_fraction report))
    [ 10; 11; 12 ]

let test_hybrid_forced_elimination () =
  (* exact_max_vars = 0 shuts the enumerator off: low-width components
     must route through the junction tree and still be exact. *)
  let c = random_tree_graph (Tutil.rng 17) 18 in
  let options =
    { Inference.Hybrid.default_options with exact_max_vars = 0 }
  in
  let marg, report = Inference.Hybrid.solve ~options c in
  Alcotest.(check int) "no enumeration" 0
    report.Inference.Hybrid.enumerated_components;
  Alcotest.(check bool) "eliminated instead" true
    (report.Inference.Hybrid.eliminated_components > 0);
  Alcotest.(check (float 1e-12)) "still all exact" 1.0
    (Inference.Hybrid.exact_fraction report);
  let d = max_abs_diff marg (Inference.Exact.marginals c) in
  Alcotest.(check bool)
    (Printf.sprintf "VE marginals match enumeration (%.2e)" d)
    true (d < 1e-9)

let test_cost_aware_routing () =
  (* Past the enumeration cutoff a low-width component must route to
     variable elimination even though it fits under [exact_max_vars]:
     enumerating it costs O(2^k) against the junction tree's O(k·2^w). *)
  let tree = random_tree_graph (Tutil.rng 23) 20 in
  let marg, report = Inference.Hybrid.solve tree in
  Alcotest.(check int) "tree eliminated" 1
    report.Inference.Hybrid.eliminated_components;
  Alcotest.(check int) "nothing enumerated" 0
    report.Inference.Hybrid.enumerated_components;
  let d = max_abs_diff marg (Inference.Exact.marginals tree) in
  Alcotest.(check bool)
    (Printf.sprintf "still exact (%.2e)" d)
    true (d < 1e-9);
  (* A component past the cutoff but too dense to eliminate under the
     width bound falls back to enumeration, not sampling: K17 has width
     16 > the default bound, yet 17 vars fit the enumeration cap. *)
  let k17 =
    compile_graph (fun g ->
        for i = 0 to 16 do
          for j = i + 1 to 16 do
            Fgraph.add_clause g ~i1:i ~i2:j ~w:0.05 ()
          done
        done)
  in
  let marg, report = Inference.Hybrid.solve k17 in
  Alcotest.(check int) "dense fallback enumerated" 1
    report.Inference.Hybrid.enumerated_components;
  Alcotest.(check int) "nothing sampled" 0
    report.Inference.Hybrid.sampled_components;
  Alcotest.(check bool) "bitwise equal to enumeration" true
    (marg = Inference.Exact.marginals k17)

(* A K30 core (width 29 — beyond both the enumeration cap and any
   feasible elimination bound) plus easy satellites: the canonical
   mixed workload. *)
let mixed_graph () =
  compile_graph (fun g ->
      for i = 0 to 29 do
        for j = i + 1 to 29 do
          Fgraph.add_clause g ~i1:(1000 + i) ~i2:(1000 + j) ~w:0.05 ()
        done
      done;
      for i = 0 to 19 do
        Fgraph.add_singleton g ~i ~w:((float_of_int i /. 10.) -. 1.)
      done;
      for i = 0 to 8 do
        Fgraph.add_clause g ~i1:(100 + i + 1) ~i2:(100 + i) ~w:0.9 ()
      done)

let test_hybrid_mixed_workload () =
  let c = mixed_graph () in
  let marg, report = Inference.Hybrid.solve c in
  Alcotest.(check int) "one sampled core" 1
    report.Inference.Hybrid.sampled_components;
  Alcotest.(check bool) "satellites enumerated" true
    (report.Inference.Hybrid.enumerated_components > 0);
  Alcotest.(check int) "sampled vars = the clique" 30
    report.Inference.Hybrid.sampled_vars;
  let f = Inference.Hybrid.exact_fraction report in
  Alcotest.(check bool)
    (Printf.sprintf "exact fraction %.3f strictly between 0 and 1" f)
    true
    (f > 0. && f < 1.);
  (match report.Inference.Hybrid.gibbs with
  | Some i ->
    Alcotest.(check bool) "residual sampler ran" true
      (i.Inference.Chromatic.sweeps_run > 0)
  | None -> Alcotest.fail "sampled core must carry the sampler's run info");
  (* Exactly-solved components are bit-identical to enumeration. *)
  Array.iter
    (fun comp ->
      if Inference.Decompose.nvars comp <= Inference.Exact.max_vars then begin
        let e = Inference.Exact.enumerate comp in
        Array.iteri
          (fun l v ->
            if not (Float.equal marg.(v) e.(l)) then
              Alcotest.failf "component at root %d deviates"
                comp.Inference.Decompose.root)
          comp.Inference.Decompose.vars
      end)
    (Inference.Decompose.components c)

let test_hybrid_pool_deterministic () =
  let c = mixed_graph () in
  let options =
    {
      Inference.Hybrid.default_options with
      gibbs = { Inference.Gibbs.burn_in = 20; samples = 60; seed = 11 };
    }
  in
  let p1 = Pool.create 1 and p4 = Pool.create 4 in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown p1;
      Pool.shutdown p4)
    (fun () ->
      let a, ra = Inference.Hybrid.solve ~options ~pool:p1 c in
      let b, rb = Inference.Hybrid.solve ~options ~pool:p4 c in
      Alcotest.(check bool) "marginals bit-identical across pools" true (a = b);
      Alcotest.(check int) "same dispatch"
        ra.Inference.Hybrid.sampled_components
        rb.Inference.Hybrid.sampled_components;
      Alcotest.(check int) "same exact vars" ra.Inference.Hybrid.exact_vars
        rb.Inference.Hybrid.exact_vars)

let test_hybrid_permissive_width_samples () =
  (* A directly-built options record can carry a width bound past
     [Jtree.max_clique_vars] ([Config.make] rejects those, direct callers
     can't be stopped).  The planner must route the K30 core (width 29,
     under the permissive bound) to sampling instead of letting
     [Jtree.solve] abort the whole run on its clique-size guard. *)
  let options =
    {
      Inference.Hybrid.default_options with
      max_width = 100;
      gibbs = { Inference.Gibbs.burn_in = 10; samples = 20; seed = 3 };
    }
  in
  let marg, report = Inference.Hybrid.solve ~options (mixed_graph ()) in
  Alcotest.(check int) "clique core sampled, not eliminated" 1
    report.Inference.Hybrid.sampled_components;
  Array.iter
    (fun p ->
      if not (Float.is_finite p) then Alcotest.fail "non-finite marginal")
    marg

let test_neighborhood_dispatch () =
  (* A 100-var chain exceeds the enumeration cap but has width 1, so the
     neighbourhood dispatcher must still report an exact solve. *)
  let chain =
    compile_graph (fun g ->
        Fgraph.add_singleton g ~i:0 ~w:1.0;
        for i = 0 to 98 do
          Fgraph.add_clause g ~i1:(i + 1) ~i2:i ~w:0.7 ()
        done)
  in
  let marg, how = Inference.Neighborhood.solve chain in
  Alcotest.(check bool) "chain solved exactly" true
    (how = Inference.Neighborhood.Enumerated);
  let d = max_abs_diff marg (Inference.Jtree.marginals chain) in
  Alcotest.(check bool) "marginals are the VE solution" true (d < 1e-12);
  let _, how = Inference.Neighborhood.solve (mixed_graph ()) in
  Alcotest.(check bool) "clique core reports Sampled" true
    (how = Inference.Neighborhood.Sampled)

(* --- numerics: extreme weights on every route --- *)

(* The 2001-leaf hub star above as a property: random hub stars (up to
   2001 leaves), dense cores and sparse graphs, with weights up to
   |w| = 1e3, solved under options that force each route.  Every
   marginal must be a probability; enumerated components must equal the
   two-pass enumerator ([Exact_oracle.enumerate]) bit for bit; eliminated
   ones must be within 1e-9 of enumeration, or of the hub star's closed
   form where enumeration cannot go. *)

let extreme_weight rng =
  match Random.State.int rng 4 with
  | 0 -> if Random.State.bool rng then 1e3 else -1e3
  | 1 -> Random.State.float rng 2e3 -. 1e3
  | 2 -> Random.State.float rng 100. -. 50.
  | _ -> Random.State.float rng 6. -. 3.

type shape = Hub of int | Core of int | Sparse of int

let shape_graph seed shape =
  let rng = Tutil.rng seed in
  let w () = extreme_weight rng in
  compile_graph (fun g ->
      match shape with
      | Hub leaves ->
        (* Fact 0 is the hub: each leaf has a prior and derives it. *)
        Fgraph.add_singleton g ~i:0 ~w:(w ());
        for i = 1 to leaves do
          Fgraph.add_singleton g ~i ~w:(w ());
          Fgraph.add_clause g ~i1:0 ~i2:i ~w:(w ()) ()
        done
      | Core k ->
        for i = 0 to k - 1 do
          Fgraph.add_singleton g ~i ~w:(w ());
          for j = 0 to k - 1 do
            if i <> j then Fgraph.add_clause g ~i1:i ~i2:j ~w:(w ()) ()
          done;
          Fgraph.add_clause g ~i1:i ~i2:((i + 1) mod k) ~i3:((i + 2) mod k)
            ~w:(w ()) ()
        done
      | Sparse n ->
        for i = 0 to n - 1 do
          if Random.State.bool rng then Fgraph.add_singleton g ~i ~w:(w ())
        done;
        for _ = 1 to n do
          let v () = Random.State.int rng n in
          if Random.State.bool rng then
            Fgraph.add_clause g ~i1:(v ()) ~i2:(v ()) ~w:(w ()) ()
          else Fgraph.add_clause g ~i1:(v ()) ~i2:(v ()) ~i3:(v ()) ~w:(w ()) ()
        done)

(* The hub star's exact marginals in log space.  With leaf prior [a] and
   clause weight [b] (hub ← leaf), summing a leaf out adds
   [b + log (1 + e^a)] to the hub's log-weight when the hub is true and
   [logaddexp b a] when it is false; given the hub, a leaf is true with
   probability sigmoid a (hub true) or sigmoid (a - b) (hub false). *)
let hub_closed_form c =
  let log_add a b = Float.max a b +. Float.log1p (exp (-.Float.abs (a -. b))) in
  let softplus a = log_add 0. a in
  let sigmoid x = 1. /. (1. +. exp (-.x)) in
  let prior = Hashtbl.create 16 and clause = Hashtbl.create 16 in
  Array.iteri
    (fun f h ->
      let id v = c.Fgraph.var_ids.(v) in
      let w = c.Fgraph.fweight.(f) in
      if c.Fgraph.singleton.(f) then Hashtbl.replace prior (id h) w
      else Hashtbl.replace clause (id c.Fgraph.body1.(f)) w)
    c.Fgraph.head;
  let a i = Hashtbl.find prior i in
  let odds =
    Hashtbl.fold
      (fun i b acc -> acc +. (b +. softplus (a i)) -. log_add b (a i))
      clause (a 0)
  in
  let hub = sigmoid odds in
  Array.map
    (fun i ->
      if i = 0 then hub
      else
        let b = Hashtbl.find clause i in
        (hub *. sigmoid (a i)) +. ((1. -. hub) *. sigmoid (a i -. b)))
    c.Fgraph.var_ids

let route_options =
  let gibbs = { Inference.Gibbs.burn_in = 5; samples = 20; seed = 1 } in
  [
    (* up to 16 variables enumerate; the rest sample *)
    ( "enumerated",
      { Inference.Hybrid.exact_max_vars = 16; max_width = 0; gibbs } );
    (* no enumeration: width ≤ 12 eliminates, the rest sample *)
    ("jtree", { Inference.Hybrid.exact_max_vars = 0; max_width = 12; gibbs });
    (* nothing exact *)
    ("sampled", { Inference.Hybrid.exact_max_vars = 0; max_width = -1; gibbs });
  ]

let gen_shape =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun n -> Hub n) (int_range 1 2000));
        (1, map (fun k -> Core k) (int_range 3 9));
        (2, map (fun n -> Sparse n) (int_range 2 16));
      ])

let print_shape = function
  | Hub n -> Printf.sprintf "Hub %d" n
  | Core k -> Printf.sprintf "Core %d" k
  | Sparse n -> Printf.sprintf "Sparse %d" n

let test_extreme_weights =
  Tutil.qcheck_case ~count:40 "extreme weights on every route"
    QCheck.(pair small_nat (make ~print:print_shape gen_shape))
    (fun (seed, shape) ->
      let c = shape_graph seed shape in
      let comps = Inference.Decompose.components c in
      let closed =
        match shape with Hub _ -> Some (hub_closed_form c) | _ -> None
      in
      List.for_all
        (fun (route, options) ->
          let marg, report = Inference.Hybrid.solve ~options c in
          let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) route in
          Array.iteri
            (fun v p ->
              if not (Float.is_finite p && 0. <= p && p <= 1.) then
                fail "var %d: %g is not a probability" v p)
            marg;
          Array.iteri
            (fun i (info : Inference.Hybrid.component_info) ->
              let comp = comps.(i) in
              let exact () = Exact_oracle.enumerate comp in
              match info.Inference.Hybrid.solver with
              | Inference.Hybrid.Enumerated ->
                Array.iteri
                  (fun l p ->
                    let q = marg.(comp.Inference.Decompose.vars.(l)) in
                    if not (Float.equal p q) then
                      fail "enumerated var %d differs from the oracle" l)
                  (exact ())
              | Inference.Hybrid.Eliminated ->
                let reference =
                  match closed with
                  | _ when Inference.Decompose.nvars comp <= 16 -> exact ()
                  | Some m ->
                    Array.map (fun v -> m.(v)) comp.Inference.Decompose.vars
                  | None ->
                    fail "no oracle for a %d-variable component"
                      (Inference.Decompose.nvars comp)
                in
                Array.iteri
                  (fun l p ->
                    let q = marg.(comp.Inference.Decompose.vars.(l)) in
                    if Float.abs (p -. q) > 1e-9 then
                      fail "jtree var %d: %.12g, reference %.12g" l q p)
                  reference
              | Inference.Hybrid.Sampled -> (
                (* A hub star is a tree: the peel empties it, so even the
                   sampled route answers it exactly. *)
                match closed with
                | Some m ->
                  Array.iter
                    (fun v ->
                      if Float.abs (m.(v) -. marg.(v)) > 1e-9 then
                        fail "peeled var %d: %.12g, closed form %.12g" v
                          marg.(v) m.(v))
                    comp.Inference.Decompose.vars
                | None -> ()))
            report.Inference.Hybrid.components;
          true)
        route_options)

(* --- the peel --- *)

(* Random graphs over [n] variables with every [add_clause] shape:
   priors, clauses with one body atom in either slot or two, duplicated
   factors, heads that are also body atoms, weights up to |w| = 1e3.
   [Tree] graphs peel away entirely; [Dense] ones (each pair of
   variables linked both ways) have nothing to peel; [Mixed] ones hang
   trees and three-variable clauses off a dense core. *)
type peel_shape = Tree | Dense | Mixed

let peel_graph seed shape n =
  let rng = Tutil.rng seed in
  (* Odd seeds keep every weight moderate: near-deterministic variables
     hide a wrong joint, since their joints are the product of their
     marginals. *)
  let w () =
    if seed land 1 = 0 then extreme_weight rng
    else Random.State.float rng 4. -. 2.
  in
  let var () = Random.State.int rng n in
  let clause g i1 i2 i3 =
    match Random.State.int rng 6 with
    | 0 -> Fgraph.add_clause g ~i1 ~i2 ~w:(w ()) ()
    | 1 -> Fgraph.add_clause g ~i1 ~i3:i2 ~w:(w ()) ()
    | 2 -> Fgraph.add_clause g ~i1 ~i2 ~i3:i2 ~w:(w ()) ()
    | 3 -> Fgraph.add_clause g ~i1 ~i2:i1 ~i3:i2 ~w:(w ()) ()
    | _ -> Fgraph.add_clause g ~i1 ~i2 ~i3 ~w:(w ()) ()
  in
  compile_graph (fun g ->
      for i = 0 to n - 1 do
        if Random.State.int rng 4 > 0 then Fgraph.add_singleton g ~i ~w:(w ())
      done;
      (match shape with
      | Tree ->
        for i = 1 to n - 1 do
          let p = Random.State.int rng i in
          if Random.State.bool rng then clause g i p p else clause g p i i
        done
      | Dense ->
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            Fgraph.add_clause g ~i1:i ~i2:j ~w:(w ()) ();
            Fgraph.add_clause g ~i1:j ~i2:i ~w:(w ()) ()
          done
        done
      | Mixed ->
        let k = max 2 (n / 2) in
        for i = 0 to k - 1 do
          Fgraph.add_clause g ~i1:i ~i2:((i + 1) mod k) ~w:(w ()) ();
          Fgraph.add_clause g ~i1:((i + 1) mod k) ~i2:i ~w:(w ()) ()
        done;
        (* Each later variable joins earlier ones through one clause in
           which it takes a random role. *)
        for i = k to n - 1 do
          let vs = [| i; Random.State.int rng i; Random.State.int rng i |] in
          let r = Random.State.int rng 3 in
          clause g vs.(r) vs.((r + 1) mod 3) vs.((r + 2) mod 3)
        done;
        for _ = 1 to Random.State.int rng 4 do
          clause g (var ()) (var ()) (var ())
        done);
      (* A duplicated factor (two parallel factors: not a tree) and a
         clause over one variable. *)
      if shape <> Tree && n > 1 && Random.State.bool rng then begin
        let a = var () and b = var () in
        let x = w () in
        Fgraph.add_clause g ~i1:a ~i2:b ~w:x ();
        Fgraph.add_clause g ~i1:a ~i2:b ~w:x ()
      end;
      if Random.State.bool rng then
        let a = var () in
        Fgraph.add_clause g ~i1:a ~i2:a ~w:(w ()) ())

(* Exact marginals and pair joints P(a = 1, b = 1) of a whole compiled
   graph, by enumerating its worlds in log space. *)
let enumerate_joints c pairs =
  let n = Fgraph.nvars c in
  let a = Array.make n false in
  let energy () =
    let e = ref 0. in
    Array.iteri
      (fun f w -> if Fgraph.satisfied c f a then e := !e +. w)
      c.Fgraph.fweight;
    !e
  in
  let worlds body =
    for world = 0 to (1 lsl n) - 1 do
      for v = 0 to n - 1 do
        a.(v) <- (world lsr v) land 1 = 1
      done;
      body ()
    done
  in
  let top = ref neg_infinity in
  worlds (fun () -> top := Float.max !top (energy ()));
  let z = ref 0.
  and marg = Array.make n 0.
  and joint = Array.make (Array.length pairs) 0. in
  worlds (fun () ->
      let p = exp (energy () -. !top) in
      z := !z +. p;
      Array.iteri (fun v x -> if x then marg.(v) <- marg.(v) +. p) a;
      Array.iteri
        (fun k (x, y) -> if a.(x) && a.(y) then joint.(k) <- joint.(k) +. p)
        pairs);
  (Array.map (fun m -> m /. !z) marg, Array.map (fun m -> m /. !z) joint)

let gen_peel_case =
  QCheck.Gen.(
    triple small_nat
      (frequencyl [ (1, Tree); (1, Dense); (2, Mixed) ])
      (int_range 1 10))

let print_peel_case (seed, shape, n) =
  Printf.sprintf "seed %d, %s, %d vars" seed
    (match shape with Tree -> "Tree" | Dense -> "Dense" | Mixed -> "Mixed")
    n

let test_peel_exact =
  Tutil.qcheck_case ~count:400 "peel + downward pass = enumeration"
    (QCheck.make ~print:print_peel_case gen_peel_case)
    (fun (seed, shape, n) ->
      let c = peel_graph seed shape n in
      let peel = Inference.Peel.run c in
      let core = Inference.Peel.core peel in
      let core_marg, joints =
        enumerate_joints core (Inference.Peel.pairs peel)
      in
      let marg = Array.make (Fgraph.nvars c) Float.nan in
      Inference.Peel.expand peel ~core:core_marg ~joints marg;
      (match shape with
      | Tree when Fgraph.nvars core > 0 ->
        QCheck.Test.fail_reportf "a tree left a %d-variable core"
          (Fgraph.nvars core)
      | Dense when n > 2 && Inference.Peel.peeled peel > 0 ->
        QCheck.Test.fail_reportf "a dense graph peeled %d variables"
          (Inference.Peel.peeled peel)
      | _ -> ());
      Array.iter
        (fun comp ->
          Array.iteri
            (fun l p ->
              let v = comp.Inference.Decompose.vars.(l) in
              if Float.abs (p -. marg.(v)) > 1e-9 then
                QCheck.Test.fail_reportf "var %d: %.12g, enumeration %.12g" v
                  marg.(v) p)
            (Exact_oracle.enumerate comp))
        (Inference.Decompose.components c);
      true)

(* A ring of [k] variables coupled both ways by strong but finite
   weights, so neighbours are nearly equal yet each is uncertain, with
   [n - k] pendants, each in one clause over two earlier variables in a
   random role, under extreme weights.  A short chain's count of "both
   true" often exceeds one of the pair's marginals, which puts a negative
   cell in an unclamped joint. *)
let coupled_graph seed n =
  let rng = Tutil.rng seed in
  let k = max 3 (n / 4) in
  compile_graph (fun g ->
      for i = 0 to k - 1 do
        let j = (i + 1) mod k in
        let w () = 5. +. Random.State.float rng 45. in
        Fgraph.add_clause g ~i1:i ~i2:j ~w:(w ()) ();
        Fgraph.add_clause g ~i1:j ~i2:i ~w:(w ()) ()
      done;
      for i = k to n - 1 do
        Fgraph.add_singleton g ~i ~w:(extreme_weight rng);
        let vs = [| i; Random.State.int rng i; Random.State.int rng i |] in
        let r = Random.State.int rng 3 in
        Fgraph.add_clause g ~i1:vs.(r) ~i2:vs.((r + 1) mod 3)
          ~i3:vs.((r + 2) mod 3) ~w:(extreme_weight rng) ()
      done)

(* Short chains under extreme weights: the pair counts are rough
   estimates of the joints, and still every marginal is a probability. *)
let test_peeled_marginals_are_probabilities =
  let options =
    {
      Inference.Hybrid.exact_max_vars = 0;
      max_width = -1;
      gibbs = { Inference.Gibbs.burn_in = 5; samples = 20; seed = 1 };
    }
  in
  Tutil.qcheck_case ~count:300 "peeled marginals stay probabilities"
    (QCheck.make
       ~print:(fun (seed, coupled, n) ->
         Printf.sprintf "seed %d, %s, %d vars" seed
           (if coupled then "coupled ring" else "Mixed")
           n)
       QCheck.Gen.(
         triple small_nat
           (frequencyl [ (2, true); (1, false) ])
           (int_range 4 60)))
    (fun (seed, coupled, n) ->
      let c =
        if coupled then coupled_graph seed n else peel_graph seed Mixed n
      in
      let options =
        { options with gibbs = { options.gibbs with seed = seed + 1 } }
      in
      let marg, _ = Inference.Hybrid.solve ~options c in
      Array.iteri
        (fun v p ->
          if not (Float.is_finite p && 0. <= p && p <= 1.) then
            QCheck.Test.fail_reportf "var %d: %h is not a probability" v p)
        marg;
      true)

(* --- the route certificate --- *)

(* Graphs of one to three parts: the peel group's small graphs (trees,
   dense graphs, trees hung off a dense core; every clause shape,
   duplicated factors), dense graphs of 26 to 32 variables (over the
   default enumeration cap and the default width bound) and hub stars
   (any number of leaves, degeneracy 1). *)
type route_part = Small of peel_shape * int | Clique of int | Star of int

let gen_route_case =
  QCheck.Gen.(
    pair small_nat
      (list_size (int_range 1 3)
         (frequency
            [
              ( 3,
                map2
                  (fun shape n -> Small (shape, n))
                  (frequencyl [ (1, Tree); (1, Dense); (2, Mixed) ])
                  (int_range 1 10) );
              (1, map (fun n -> Clique n) (int_range 26 32));
              (1, map (fun n -> Star n) (int_range 1 300));
            ])))

let print_route_case (seed, parts) =
  Printf.sprintf "seed %d: %s" seed
    (String.concat ", "
       (List.map
          (function
            | Small (Tree, n) -> Printf.sprintf "Tree %d" n
            | Small (Dense, n) -> Printf.sprintf "Dense %d" n
            | Small (Mixed, n) -> Printf.sprintf "Mixed %d" n
            | Clique n -> Printf.sprintf "Clique %d" n
            | Star n -> Printf.sprintf "Star %d" n)
          parts))

(* The parts' factors in one graph, each part's fact ids shifted past
   the previous parts'. *)
let route_graph (seed, parts) =
  let g = Fgraph.create () in
  let offset = ref 0 in
  List.iteri
    (fun k part ->
      let c =
        match part with
        | Small (shape, n) -> peel_graph (seed + k) shape n
        | Clique n -> peel_graph (seed + k) Dense n
        | Star n -> shape_graph (seed + k) (Hub n)
      in
      let id v = !offset + c.Fgraph.var_ids.(v) in
      let opt v = if v < 0 then None else Some (id v) in
      Array.iteri
        (fun f h ->
          let w = c.Fgraph.fweight.(f) in
          if c.Fgraph.singleton.(f) then Fgraph.add_singleton g ~i:(id h) ~w
          else
            Fgraph.add_clause g ~i1:(id h) ?i2:(opt c.Fgraph.body1.(f))
              ?i3:(opt c.Fgraph.body2.(f)) ~w ())
        c.Fgraph.head;
      offset := !offset + 1 + Array.fold_left max 0 c.Fgraph.var_ids)
    parts;
  Fgraph.compile g

(* Options on both sides of every cutoff: the defaults, no enumeration
   at the default bound, tight bounds that the small graphs' cores
   cross, and a bound no component meets. *)
let route_oracle_options =
  let gibbs = { Inference.Gibbs.burn_in = 2; samples = 4; seed = 1 } in
  [
    { Inference.Hybrid.default_options with gibbs };
    { Inference.Hybrid.exact_max_vars = 0; max_width = 12; gibbs };
    { Inference.Hybrid.exact_max_vars = 0; max_width = 3; gibbs };
    { Inference.Hybrid.exact_max_vars = 6; max_width = 1; gibbs };
    { Inference.Hybrid.exact_max_vars = 0; max_width = -1; gibbs };
  ]

let solver_name = function
  | Inference.Hybrid.Enumerated -> "enumerated"
  | Eliminated -> "jtree"
  | Sampled -> "sampled"

(* [Hybrid.solve] decides a route from the k-core certificate before it
   builds a canonical form.  Its per-component report must equal the
   route of a solve that canonicalizes every component and runs the
   capped MCS fill-in, and wherever the certificate fires, that fill-in
   must report the cap's overflow. *)
let test_route_oracle =
  Tutil.qcheck_case ~count:200 "k-core route = canonical MCS route"
    (QCheck.make ~print:print_route_case gen_route_case)
    (fun case ->
      let c = route_graph case in
      let comps = Inference.Decompose.components c in
      List.iter
        (fun o ->
          let cap = o.Inference.Hybrid.max_width in
          let _, report = Inference.Hybrid.solve ~options:o c in
          let core =
            Inference.Triangulate.core c ~k:(cap + 1)
              ~keep:(Array.make (Fgraph.nvars c) true)
          in
          let reported = report.Inference.Hybrid.components in
          if Array.length reported <> Array.length comps then
            QCheck.Test.fail_reportf "%d components reported, %d expected"
              (Array.length reported) (Array.length comps);
          Array.iteri
            (fun i comp ->
              let k = Inference.Decompose.nvars comp in
              let width = Inference.Triangulate.width_of ~cap comp in
              let solver =
                if k <= min o.exact_max_vars Inference.Hybrid.enum_cutoff then
                  Inference.Hybrid.Enumerated
                else if width <= cap && width < Inference.Jtree.max_clique_vars
                then Inference.Hybrid.Eliminated
                else if k <= o.exact_max_vars then Inference.Hybrid.Enumerated
                else Inference.Hybrid.Sampled
              in
              let r = reported.(i) in
              if
                (r.Inference.Hybrid.vars, r.factors, r.width, r.solver)
                <> (k, Inference.Decompose.nfactors comp, width, solver)
              then
                QCheck.Test.fail_reportf
                  "cap %d, exact_max_vars %d, component %d (root %d): \
                   reported (%d vars, %d factors, width %d, %s), oracle \
                   (%d, %d, %d, %s)"
                  cap o.exact_max_vars i comp.Inference.Decompose.root
                  r.vars r.factors r.width
                  (solver_name r.solver)
                  k
                  (Inference.Decompose.nfactors comp)
                  width
                  (solver_name solver);
              if
                Array.exists (fun v -> core.(v)) comp.Inference.Decompose.vars
                && width <> cap + 1
              then
                QCheck.Test.fail_reportf
                  "cap %d: component %d meets the %d-core, yet its capped \
                   width is %d"
                  cap i (cap + 1) width)
            comps)
        route_oracle_options;
      true)

(* --- front-end and config --- *)

let test_marginal_hybrid_front_end () =
  let g = Fgraph.create () in
  Fgraph.add_singleton g ~i:42 ~w:1.0;
  Fgraph.add_clause g ~i1:7 ~i2:42 ~w:0.5 ();
  let m, Inference.Marginal.Hybrid_run r =
    Inference.Marginal.infer_full g Inference.Hybrid.default_options
  in
  Alcotest.(check bool) "fact ids mapped" true
    (Hashtbl.mem m 42 && Hashtbl.mem m 7);
  Alcotest.(check (float 1e-12)) "everything exact" 1.0
    (Inference.Hybrid.exact_fraction r)

let test_config_hybrid_knobs () =
  let c = Probkb.Config.make ~hybrid:true ~exact_max_vars:12 ~max_width:5 () in
  (match c.Probkb.Config.inference with
  | Some o ->
    Alcotest.(check int) "cap threaded" 12 o.Inference.Hybrid.exact_max_vars;
    Alcotest.(check int) "width threaded" 5 o.Inference.Hybrid.max_width;
    Alcotest.(check bool) "local reads solve with the same record" true
      (Probkb.Config.solver c = o)
  | None -> Alcotest.fail "inference is on by default");
  (match Probkb.Config.make ~exact_max_vars:31 () with
  | _ -> Alcotest.fail "exact_max_vars 31 must be rejected"
  | exception Invalid_argument _ -> ());
  (* Widths past Jtree's clique guard can only abort on allocation —
     e.g. `--max-width 40` used to crash mid-inference. *)
  match Probkb.Config.make ~max_width:40 () with
  | _ -> Alcotest.fail "max_width 40 must be rejected"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "hybrid"
    [
      ( "triangulate",
        [
          Alcotest.test_case "closed-form widths" `Quick
            test_width_closed_forms;
          Alcotest.test_case "cap bails early" `Quick test_width_cap_bails_early;
          Alcotest.test_case "k-core closed forms" `Quick
            test_core_closed_forms;
        ] );
      ( "jtree",
        [
          test_jtree_matches_enumeration;
          Alcotest.test_case "loopy components" `Quick
            test_jtree_matches_enumeration_loopy;
          Alcotest.test_case "scales past enumeration" `Quick
            test_jtree_scales_past_enumeration;
          Alcotest.test_case "deterministic" `Quick test_jtree_deterministic;
          Alcotest.test_case "hub underflow regression" `Quick
            test_jtree_hub_underflow;
          Alcotest.test_case "rejects high width" `Quick
            test_jtree_rejects_high_width;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "bit-identical to exact" `Quick
            test_hybrid_bit_identical_to_exact;
          Alcotest.test_case "forced elimination" `Quick
            test_hybrid_forced_elimination;
          Alcotest.test_case "cost-aware routing" `Quick
            test_cost_aware_routing;
          Alcotest.test_case "mixed workload" `Quick test_hybrid_mixed_workload;
          Alcotest.test_case "pool deterministic" `Quick
            test_hybrid_pool_deterministic;
          Alcotest.test_case "permissive width samples" `Quick
            test_hybrid_permissive_width_samples;
          Alcotest.test_case "neighbourhood dispatch" `Quick
            test_neighborhood_dispatch;
          test_extreme_weights;
          test_route_oracle;
        ] );
      ("peel", [ test_peel_exact; test_peeled_marginals_are_probabilities ]);
      ( "front-end",
        [
          Alcotest.test_case "hybrid run info" `Quick
            test_marginal_hybrid_front_end;
          Alcotest.test_case "config knobs" `Quick test_config_hybrid_knobs;
        ] );
    ]
