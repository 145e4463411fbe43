module Fgraph = Factor_graph.Fgraph

let compile_graph build =
  let g = Fgraph.create () in
  build g;
  Fgraph.compile g

(* --- closed forms --- *)

let test_singleton_closed_form () =
  (* One variable with a singleton factor of weight w:
     P(X=1) = e^w / (1 + e^w). *)
  List.iter
    (fun w ->
      let c = compile_graph (fun g -> Fgraph.add_singleton g ~i:7 ~w) in
      let expect = exp w /. (1. +. exp w) in
      let marg = Inference.Exact.marginals c in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "w=%.2f" w)
        expect marg.(0))
    [ -2.0; -0.5; 0.0; 0.96; 3.0 ]

let test_implication_raises_head () =
  (* X2 <- X1 with positive weight should raise P(X2) when X1 is likely. *)
  let base =
    compile_graph (fun g ->
        Fgraph.add_singleton g ~i:1 ~w:2.0;
        Fgraph.add_singleton g ~i:2 ~w:0.0)
  in
  let with_rule =
    compile_graph (fun g ->
        Fgraph.add_singleton g ~i:1 ~w:2.0;
        Fgraph.add_singleton g ~i:2 ~w:0.0;
        Fgraph.add_clause g ~i1:2 ~i2:1 ~w:1.5 ())
  in
  let m0 = Inference.Exact.marginals base in
  let m1 = Inference.Exact.marginals with_rule in
  Alcotest.(check bool) "rule raises head marginal" true (m1.(1) > m0.(1));
  Alcotest.(check bool) "body stays likely" true (m1.(0) > 0.7)

let test_hard_rules_excluded_from_compile () =
  let c =
    compile_graph (fun g ->
        Fgraph.add_singleton g ~i:1 ~w:1.0;
        Fgraph.add_clause g ~i1:2 ~i2:1 ~w:infinity ())
  in
  (* The infinite-weight factor is dropped; only variable 1 remains. *)
  Alcotest.(check int) "one variable" 1 (Fgraph.nvars c);
  Alcotest.(check int) "one factor" 1 (Array.length c.Fgraph.fweight)

let test_log_partition_independent_vars () =
  (* Two independent singletons: log Z = Σ log(1 + e^w). *)
  let c =
    compile_graph (fun g ->
        Fgraph.add_singleton g ~i:1 ~w:0.5;
        Fgraph.add_singleton g ~i:2 ~w:(-1.0))
  in
  let expect = log (1. +. exp 0.5) +. log (1. +. exp (-1.0)) in
  Alcotest.(check (float 1e-9)) "log Z" expect (Inference.Exact.log_partition c)

let test_exact_rejects_large () =
  (* Enumeration runs per connected component: many disconnected
     variables are fine ... *)
  let c =
    compile_graph (fun g ->
        for i = 0 to 30 do
          Fgraph.add_singleton g ~i ~w:0.1
        done)
  in
  let marg = Inference.Exact.marginals c in
  Alcotest.(check int) "disconnected vars all solved" 31 (Array.length marg);
  let p = 1. /. (1. +. exp (-0.1)) in
  Array.iter
    (fun m -> Alcotest.(check (float 1e-12)) "independent singleton" p m)
    marg;
  (* ... but a single component above the cap is rejected. *)
  let c =
    compile_graph (fun g ->
        for i = 0 to 29 do
          Fgraph.add_clause g ~i1:i ~i2:(i + 1) ~w:0.1 ()
        done)
  in
  match Inference.Exact.marginals c with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- samplers vs exact --- *)

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

let max_abs_diff a b =
  let m = ref 0. in
  Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. b.(i)))) a;
  !m

let sampler_options = { Inference.Gibbs.burn_in = 500; samples = 4000; seed = 11 }

let test_gibbs_matches_exact () =
  List.iter
    (fun seed ->
      let c = random_graph seed 8 10 in
      let exact = Inference.Exact.marginals c in
      let gibbs = Inference.Gibbs.marginals ~options:sampler_options c in
      let d = max_abs_diff exact gibbs in
      if d > 0.06 then
        Alcotest.failf "seed %d: Gibbs deviates by %.3f" seed d)
    [ 1; 2; 3 ]

(* The ground graph of the ReVerb-Sherlock generator KB at scale 0.005:
   3,812 variables, of which Hybrid settles 3,585 exactly. *)
let reverb_graph () =
  let g =
    Workload.Reverb_sherlock.generate
      { Workload.Reverb_sherlock.default_config with scale = 0.005 }
  in
  let kb = Workload.Reverb_sherlock.kb g in
  Fgraph.compile (Grounding.Ground.run kb).Grounding.Ground.graph

let test_chromatic_matches_exact () =
  List.iter
    (fun seed ->
      let c = random_graph seed 8 10 in
      let exact = Inference.Exact.marginals c in
      let chrom = Inference.Chromatic.marginals ~options:sampler_options c in
      let d = max_abs_diff exact chrom in
      if d > 0.06 then
        Alcotest.failf "seed %d: chromatic Gibbs deviates by %.3f" seed d)
    [ 4; 5; 6 ];
  (* At default options on a real ground graph, against the variables
     Hybrid solves exactly (its answer there is ground truth). *)
  let c = reverb_graph () in
  let exact, report = Inference.Hybrid.solve c in
  let chrom = Inference.Chromatic.marginals c in
  let n = ref 0 and sum = ref 0. and worst = ref 0. in
  Array.iteri
    (fun i comp ->
      if report.Inference.Hybrid.components.(i).Inference.Hybrid.solver
         <> Inference.Hybrid.Sampled
      then
        Array.iter
          (fun v ->
            let e = Float.abs (chrom.(v) -. exact.(v)) in
            incr n;
            sum := !sum +. e;
            worst := Float.max !worst e)
          comp.Inference.Decompose.vars)
    (Inference.Decompose.components c);
  Alcotest.(check int) "exactly settled variables" 3585 !n;
  let mean = !sum /. float_of_int !n in
  if mean >= 0.01 || !worst >= 0.1 then
    Alcotest.failf "chromatic Gibbs error on the exact subset: mean %.4f max %.4f"
      mean !worst

let test_gibbs_deterministic_given_seed () =
  let c = random_graph 42 10 15 in
  let a = Inference.Gibbs.marginals ~options:sampler_options c in
  let b = Inference.Gibbs.marginals ~options:sampler_options c in
  Alcotest.(check bool) "same seed, same result" true (a = b)

(* --- chromatic colouring properties --- *)

let test_coloring_is_proper =
  Tutil.qcheck_case ~count:60 "chromatic colouring is proper"
    QCheck.(pair (int_range 1 12) (int_range 0 25))
    (fun (nvars, nfactors) ->
      let c = random_graph (nvars + (100 * nfactors)) nvars nfactors in
      let colors = Inference.Chromatic.color c in
      let ok = ref true in
      Array.iteri
        (fun f _ ->
          let vars =
            List.filter (fun v -> v >= 0)
              [ c.Fgraph.head.(f); c.Fgraph.body1.(f); c.Fgraph.body2.(f) ]
            |> List.sort_uniq compare
          in
          List.iter
            (fun v1 ->
              List.iter
                (fun v2 -> if v1 <> v2 && colors.(v1) = colors.(v2) then ok := false)
                vars)
            vars)
        c.Fgraph.fweight;
      !ok)

let test_verify_coloring () =
  let c =
    compile_graph (fun g ->
        Fgraph.add_singleton g ~i:1 ~w:0.5;
        Fgraph.add_singleton g ~i:2 ~w:(-0.5);
        Fgraph.add_clause g ~i1:2 ~i2:1 ~w:1.0 ())
  in
  let colors = Inference.Chromatic.color c in
  Alcotest.(check bool) "greedy colouring verifies" true
    (Inference.Chromatic.verify_coloring c colors);
  Alcotest.(check bool) "all-zero colouring rejected" false
    (Inference.Chromatic.verify_coloring c (Array.make (Fgraph.nvars c) 0))

let test_chromatic_pool_deterministic () =
  (* A colour class bigger than the 256-slot RNG chunk, so a pool of 4
     really splits it — marginals must still be bit-identical to pool 1. *)
  let c =
    compile_graph (fun g ->
        for i = 0 to 1999 do
          Fgraph.add_singleton g ~i ~w:((float_of_int i /. 1000.) -. 1.)
        done;
        for i = 0 to 99 do
          Fgraph.add_clause g ~i1:(2 * i) ~i2:((2 * i) + 1) ~w:0.8 ()
        done)
  in
  let opts = { Inference.Gibbs.burn_in = 10; samples = 30; seed = 11 } in
  let p1 = Pool.create 1 and p4 = Pool.create 4 in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown p1;
      Pool.shutdown p4)
    (fun () ->
      let a = Inference.Chromatic.marginals ~options:opts ~pool:p1 c in
      let b = Inference.Chromatic.marginals ~options:opts ~pool:p4 c in
      Alcotest.(check bool) "marginals bit-identical across pools" true (a = b))

(* --- the conditional kernel against its satisfied-flip oracle --- *)

(* A factor as [(shape, i1, i2, i3, w)]; [add_factor] maps each shape to
   one of the forms [Fgraph.add_singleton] / [add_clause] accept. *)
let add_factor g (shape, i1, i2, i3, w) =
  match shape with
  | 0 -> Fgraph.add_singleton g ~i:i1 ~w
  | 1 -> Fgraph.add_clause g ~i1 ~w () (* no body: a prior *)
  | 2 -> Fgraph.add_clause g ~i1 ~i2 ~w ()
  | 3 -> Fgraph.add_clause g ~i1 ~i3 ~w () (* only body2 present *)
  | 4 -> Fgraph.add_clause g ~i1 ~i2 ~i3 ~w ()
  | 5 -> Fgraph.add_clause g ~i1 ~i2 ~i3:i2 ~w () (* body1 = body2 *)
  | 6 -> Fgraph.add_clause g ~i1 ~i2:i1 ~i3 ~w () (* head = body1 *)
  | 7 -> Fgraph.add_clause g ~i1 ~i2 ~i3:i1 ~w () (* head = body2 *)
  | _ -> Fgraph.add_clause g ~i1 ~i3:i1 ~w () (* head = lone body2 *)

(* Random graphs over at most 8 fact ids — so ids collide often —
   with mixed-sign weights up to |w| = 1e3, a duplicated prefix of the
   factor list, and one assignment bit per id. *)
let arb_kernel_case =
  let open QCheck.Gen in
  let gen =
    let* nids = int_range 1 8 in
    let id = int_bound (nids - 1) in
    let weight =
      oneof
        [
          float_range (-1e3) 1e3;
          float_range (-3.) 3.;
          oneofl [ 0.; -0.; 1e3; -1e3 ];
        ]
    in
    let factor =
      let+ shape = int_bound 8
      and+ i1 = id
      and+ i2 = id
      and+ i3 = id
      and+ w = weight in
      (shape, i1, i2, i3, w)
    in
    let* factors = list_size (int_range 1 16) factor in
    let* dups = int_bound 3 in
    let+ bits = array_repeat nids bool in
    (factors @ List.filteri (fun i _ -> i < dups) factors, bits)
  in
  let print (factors, bits) =
    Printf.sprintf "factors [%s] bits [%s]"
      (String.concat "; "
         (List.map
            (fun (s, a, b, c, w) -> Printf.sprintf "(%d,%d,%d,%d,%h)" s a b c w)
            factors))
      (String.concat ""
         (Array.to_list (Array.map (fun b -> if b then "1" else "0") bits)))
  in
  QCheck.make ~print gen

let test_kernel_matches_oracle =
  Tutil.qcheck_case ~count:1000 "kernel = satisfied-flip oracle, bit for bit"
    arb_kernel_case
    (fun (factors, bits) ->
      let c = compile_graph (fun g -> List.iter (add_factor g) factors) in
      let a = Array.init (Fgraph.nvars c) (fun v -> bits.(v)) in
      let out = { Inference.Gibbs.value = Float.nan } in
      for v = 0 to Fgraph.nvars c - 1 do
        let before = Array.copy a in
        Inference.Gibbs.conditional c a v out;
        if a <> before then QCheck.Test.fail_reportf "var %d: assignment written" v;
        let expect = Gibbs_oracle.conditional c a v in
        if Int64.bits_of_float out.value <> Int64.bits_of_float expect then
          QCheck.Test.fail_reportf "var %d: conditional %h, oracle %h" v
            out.value expect;
        let got = Inference.Map_inference.flip_delta c a v
        and expect = Gibbs_oracle.flip_delta c a v in
        if got <> expect then
          QCheck.Test.fail_reportf "var %d: flip delta %h, oracle %h" v got
            expect
      done;
      true)

let digest_marginals m =
  let b = Buffer.create (8 * Array.length m) in
  Array.iter (fun p -> Buffer.add_int64_le b (Int64.bits_of_float p)) m;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Marginals pinned end to end: digests of every marginal's bits on the
   ReVerb-Sherlock generator KB at scale 0.005 (3,812 variables; Hybrid
   samples 227 of them), recorded with the satisfied-flip conditional
   ({!Gibbs_oracle}) on x86-64 Linux (glibc libm).  The role-coded kernel
   must reproduce them bit for bit, at pool sizes 1 and 4. *)
let test_marginals_pinned () =
  let c = reverb_graph () in
  List.iter
    (fun d ->
      let pool = Pool.create d in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          Alcotest.(check string)
            (Printf.sprintf "chromatic, pool %d" d)
            "1481f2d9674b2e5224357d3626284782"
            (digest_marginals (Inference.Chromatic.marginals ~pool c));
          Alcotest.(check string)
            (Printf.sprintf "hybrid, pool %d" d)
            "f4509210a34923091d72910637ff2844"
            (digest_marginals (fst (Inference.Hybrid.solve ~pool c)))))
    [ 1; 4 ]

(* Allocation guard.  Per variable update a chromatic sweep allocates the
   boxed uniform draw of [Random.State.float] (2 words) and its share of
   the per-chunk RNG set-up; a conditional that returned a boxed float
   would add 2 more. *)
let test_chromatic_alloc_per_update () =
  let n = 3000 in
  let c =
    compile_graph (fun g ->
        for i = 0 to n - 1 do
          Fgraph.add_singleton g ~i ~w:(float_of_int (i mod 7) -. 3.)
        done;
        for i = 1 to n - 1 do
          Fgraph.add_clause g ~i1:i ~i2:(i - 1) ~w:0.7 ()
        done;
        for i = 0 to (n / 3) - 1 do
          Fgraph.add_clause g ~i1:(3 * i) ~i2:((3 * i) + 1)
            ~i3:((3 * i) + 2) ~w:(-0.4) ()
        done)
  in
  let options = { Inference.Gibbs.burn_in = 20; samples = 80; seed = 3 } in
  let pool = Pool.create 1 in
  let w0 = Gc.minor_words () in
  ignore (Inference.Chromatic.marginals ~options ~pool c);
  let words = Gc.minor_words () -. w0 in
  let per_update = words /. float_of_int (100 * Fgraph.nvars c) in
  if per_update > 3. then
    Alcotest.failf "%.2f minor words per variable update (limit 3)" per_update

let test_schedule_stats () =
  let c = random_graph 9 10 12 in
  let s = Inference.Chromatic.schedule_stats c in
  Alcotest.(check bool) "at least one colour" true (s.Inference.Chromatic.n_colors >= 1);
  Alcotest.(check bool) "speedup >= 1" true (s.Inference.Chromatic.ideal_speedup >= 1.)

(* --- belief propagation --- *)

let test_bp_exact_on_singletons () =
  let c =
    compile_graph (fun g ->
        Fgraph.add_singleton g ~i:1 ~w:0.8;
        Fgraph.add_singleton g ~i:2 ~w:(-0.4))
  in
  let bp, st = Inference.Bp.marginals c in
  Alcotest.(check bool) "converged" true st.Inference.Bp.converged;
  let exact = Inference.Exact.marginals c in
  Array.iteri
    (fun v p -> Alcotest.(check (float 1e-6)) "singleton belief" exact.(v) p)
    bp

let test_bp_exact_on_trees () =
  (* A chain 0 -> 1 -> 2 -> 3: the ground factor graph is a tree, so BP
     is exact. *)
  let c =
    compile_graph (fun g ->
        Fgraph.add_singleton g ~i:0 ~w:1.2;
        Fgraph.add_clause g ~i1:1 ~i2:0 ~w:0.9 ();
        Fgraph.add_clause g ~i1:2 ~i2:1 ~w:0.7 ();
        Fgraph.add_clause g ~i1:3 ~i2:2 ~w:1.5 ())
  in
  let bp, st = Inference.Bp.marginals c in
  Alcotest.(check bool) "converged" true st.Inference.Bp.converged;
  let exact = Inference.Exact.marginals c in
  Array.iteri
    (fun v p ->
      Alcotest.(check (float 1e-5)) (Printf.sprintf "var %d" v) exact.(v) p)
    bp

let test_bp_close_on_loopy_graphs () =
  List.iter
    (fun seed ->
      let c = random_graph seed 8 10 in
      let exact = Inference.Exact.marginals c in
      let bp, _ = Inference.Bp.marginals c in
      let d = max_abs_diff exact bp in
      if d > 0.12 then Alcotest.failf "seed %d: BP deviates by %.3f" seed d)
    [ 1; 2; 3 ]

let test_bp_deterministic () =
  let c = random_graph 55 12 18 in
  let a, _ = Inference.Bp.marginals c in
  let b, _ = Inference.Bp.marginals c in
  Alcotest.(check bool) "deterministic" true (a = b)

(* --- MAP inference --- *)

let test_map_matches_exact () =
  List.iter
    (fun seed ->
      let c = random_graph seed 10 14 in
      let _, exact_score = Inference.Map_inference.exact_map c in
      let _, solved = Inference.Map_inference.solve c in
      (* Annealing + ICM must find the global optimum on graphs this
         small. *)
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "seed %d" seed)
        exact_score solved)
    [ 21; 22; 23; 24 ]

let test_icm_reaches_local_optimum () =
  let c = random_graph 31 12 20 in
  let a, s = Inference.Map_inference.icm ~seed:5 c in
  Alcotest.(check (float 1e-9)) "score consistent" s
    (Inference.Map_inference.score c a);
  (* No single flip improves. *)
  Array.iteri
    (fun v _ ->
      a.(v) <- not a.(v);
      let s' = Inference.Map_inference.score c a in
      a.(v) <- not a.(v);
      if s' > s +. 1e-9 then Alcotest.failf "flip of %d improves" v)
    a

let test_map_prefers_satisfying_world () =
  (* Singleton w=3 on X1 and implication X2 <- X1 (w=2): MAP sets both. *)
  let c =
    compile_graph (fun g ->
        Fgraph.add_singleton g ~i:1 ~w:3.0;
        Fgraph.add_clause g ~i1:2 ~i2:1 ~w:2.0 ())
  in
  let a, _ = Inference.Map_inference.exact_map c in
  Alcotest.(check bool) "all true" true (Array.for_all Fun.id a)

(* --- convergence diagnostics --- *)

let test_rhat_converges_on_easy_graph () =
  let c = random_graph 77 6 6 in
  let report =
    Inference.Diagnostics.r_hat ~chains:4
      ~options:{ Inference.Gibbs.burn_in = 300; samples = 1500; seed = 3 }
      c
  in
  Alcotest.(check bool)
    (Printf.sprintf "max R-hat %.3f < 1.1" report.Inference.Diagnostics.max_r_hat)
    true
    (Inference.Diagnostics.converged report);
  Alcotest.(check int) "per-variable" (Fgraph.nvars c)
    (Array.length report.Inference.Diagnostics.r_hat)

let test_rhat_flags_short_chains () =
  (* With essentially no samples, chains disagree and R-hat is large for
     at least some variable (or the threshold check is inconclusive but
     must not crash). *)
  let c = random_graph 78 10 20 in
  let report =
    Inference.Diagnostics.r_hat ~chains:4
      ~options:{ Inference.Gibbs.burn_in = 0; samples = 5; seed = 3 }
      c
  in
  Alcotest.(check bool) "R-hat computed" true
    (report.Inference.Diagnostics.max_r_hat >= 1.0)

let test_rhat_requires_two_chains () =
  let c = random_graph 79 3 2 in
  match Inference.Diagnostics.r_hat ~chains:1 c with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_rhat_zero_variance_is_one () =
  (* Singletons at w = ±20: the Rao-Blackwellized conditional is the same
     constant every sweep, so within-chain variance is exactly zero and
     the variable must report R̂ = 1, not NaN or a blow-up. *)
  let c =
    compile_graph (fun g ->
        Fgraph.add_singleton g ~i:0 ~w:20.0;
        Fgraph.add_singleton g ~i:1 ~w:(-20.0))
  in
  let report =
    Inference.Diagnostics.r_hat ~chains:4
      ~options:{ Inference.Gibbs.burn_in = 10; samples = 50; seed = 5 }
      c
  in
  Array.iter
    (fun r -> Alcotest.(check (float 1e-12)) "R-hat is 1" 1.0 r)
    report.Inference.Diagnostics.r_hat;
  Alcotest.(check (float 1e-12)) "max R-hat is 1" 1.0
    report.Inference.Diagnostics.max_r_hat

(* --- online diagnostics --- *)

let online_options = { Inference.Gibbs.burn_in = 100; samples = 400; seed = 7 }

let test_online_report_sanity () =
  let c = random_graph 77 6 6 in
  let _, info =
    Inference.Chromatic.marginals_info ~options:online_options ~online:true c
  in
  Alcotest.(check int) "full budget" online_options.Inference.Gibbs.samples
    info.Inference.Chromatic.sweeps_run;
  Alcotest.(check bool) "no early stop without criteria" true
    (info.Inference.Chromatic.stopped_at_sweep = None);
  match info.Inference.Chromatic.diag with
  | None -> Alcotest.fail "online requested but no report"
  | Some d ->
    let open Inference.Diagnostics.Online in
    Alcotest.(check int) "report covers the run"
      online_options.Inference.Gibbs.samples d.sweeps;
    Alcotest.(check bool)
      (Printf.sprintf "max R-hat %.3f computable and near 1" d.max_r_hat)
      true
      (Float.is_finite d.max_r_hat && d.max_r_hat < 1.5);
    Array.iter
      (fun e ->
        if not (Float.is_nan e) then
          Alcotest.(check bool) "ESS within [1, n]" true
            (e >= 1. && e <= float_of_int online_options.Inference.Gibbs.samples))
      d.ess

let test_online_zero_variance () =
  let c =
    compile_graph (fun g ->
        Fgraph.add_singleton g ~i:0 ~w:20.0;
        Fgraph.add_singleton g ~i:1 ~w:(-20.0))
  in
  let _, info =
    Inference.Chromatic.marginals_info ~options:online_options ~online:true c
  in
  match info.Inference.Chromatic.diag with
  | None -> Alcotest.fail "no report"
  | Some d ->
    Array.iter
      (fun r ->
        Alcotest.(check (float 1e-12)) "pinned variable reports R-hat 1" 1.0 r)
      d.Inference.Diagnostics.Online.r_hat

let test_online_early_stop () =
  let c = random_graph 77 6 6 in
  let budget = { online_options with samples = 4000 } in
  let marg_full, info_full =
    Inference.Chromatic.marginals_info ~options:budget ~online:true c
  in
  let crit =
    { Inference.Diagnostics.Online.target_r_hat = 1.1; min_ess = 30. }
  in
  let marg_early, info =
    Inference.Chromatic.marginals_info ~options:budget ~early_stop:crit c
  in
  (match info.Inference.Chromatic.stopped_at_sweep with
  | None -> Alcotest.fail "easy graph should trigger the early stop"
  | Some s ->
    Alcotest.(check bool)
      (Printf.sprintf "stopped at %d, well under the budget" s)
      true
      (s < budget.Inference.Gibbs.samples);
    Alcotest.(check int) "sweeps_run matches the stop" s
      info.Inference.Chromatic.sweeps_run);
  (match info.Inference.Chromatic.diag with
  | Some d ->
    let open Inference.Diagnostics.Online in
    Alcotest.(check bool) "final report satisfies the criteria" true
      (satisfied crit d)
  | None -> Alcotest.fail "early-stopped run must carry its diagnostics");
  ignore info_full;
  let d = max_abs_diff marg_full marg_early in
  Alcotest.(check bool)
    (Printf.sprintf "early-stop marginals within 0.05 of full run (%.4f)" d)
    true (d < 0.05)

let test_online_deterministic_across_pools () =
  (* Diagnostics accumulate per-variable state under the chromatic
     schedule, so the report must be bit-identical for any pool size. *)
  let c =
    compile_graph (fun g ->
        for i = 0 to 999 do
          Fgraph.add_singleton g ~i ~w:((float_of_int i /. 500.) -. 1.)
        done;
        for i = 0 to 99 do
          Fgraph.add_clause g ~i1:(2 * i) ~i2:((2 * i) + 1) ~w:0.8 ()
        done)
  in
  let opts = { Inference.Gibbs.burn_in = 10; samples = 60; seed = 11 } in
  let p1 = Pool.create 1 and p4 = Pool.create 4 in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown p1;
      Pool.shutdown p4)
    (fun () ->
      let run pool =
        Inference.Chromatic.marginals_info ~options:opts ~pool ~online:true c
      in
      let m1, i1 = run p1 and m4, i4 = run p4 in
      Alcotest.(check bool) "marginals identical" true (m1 = m4);
      match (i1.Inference.Chromatic.diag, i4.Inference.Chromatic.diag) with
      | Some d1, Some d4 ->
        let open Inference.Diagnostics.Online in
        Alcotest.(check bool) "R-hat bit-identical" true
          (d1.r_hat = d4.r_hat);
        Alcotest.(check bool) "ESS bit-identical" true (d1.ess = d4.ess)
      | _ -> Alcotest.fail "missing online report")

let test_online_never_stops_on_short_chain () =
  (* Fewer sweeps than two checkpoint windows: R̂ is incomputable (NaN),
     and NaN must never satisfy the stop criteria. *)
  let o = Inference.Diagnostics.Online.create ~segment:20 2 in
  for i = 1 to 15 do
    Inference.Diagnostics.Online.begin_sweep o;
    Inference.Diagnostics.Online.observe o 0 (0.3 +. (0.02 *. float_of_int i));
    Inference.Diagnostics.Online.observe o 1 (0.9 -. (0.01 *. float_of_int i))
  done;
  let r = Inference.Diagnostics.Online.report o in
  Alcotest.(check bool) "lenient criteria still unsatisfied" false
    (Inference.Diagnostics.Online.satisfied
       { Inference.Diagnostics.Online.target_r_hat = 10.; min_ess = 0. }
       r)

(* --- front-end --- *)

let test_marginal_front_end () =
  let g = Fgraph.create () in
  Fgraph.add_singleton g ~i:42 ~w:1.0;
  let m = Inference.Marginal.infer g Inference.Marginal.Exact in
  Alcotest.(check (float 1e-9)) "fact id mapping"
    (exp 1.0 /. (1. +. exp 1.0))
    (Hashtbl.find m 42)

let () =
  Alcotest.run "inference"
    [
      ( "exact",
        [
          Alcotest.test_case "singleton closed form" `Quick
            test_singleton_closed_form;
          Alcotest.test_case "implication raises head" `Quick
            test_implication_raises_head;
          Alcotest.test_case "hard rules excluded" `Quick
            test_hard_rules_excluded_from_compile;
          Alcotest.test_case "log partition" `Quick
            test_log_partition_independent_vars;
          Alcotest.test_case "size limit" `Quick test_exact_rejects_large;
        ] );
      ( "samplers",
        [
          Alcotest.test_case "gibbs vs exact" `Slow test_gibbs_matches_exact;
          Alcotest.test_case "chromatic vs exact" `Slow
            test_chromatic_matches_exact;
          Alcotest.test_case "deterministic" `Quick
            test_gibbs_deterministic_given_seed;
        ] );
      ( "chromatic",
        [
          test_coloring_is_proper;
          Alcotest.test_case "verify coloring" `Quick test_verify_coloring;
          Alcotest.test_case "pool deterministic" `Quick
            test_chromatic_pool_deterministic;
          Alcotest.test_case "schedule stats" `Quick test_schedule_stats;
        ] );
      ( "kernel",
        [
          test_kernel_matches_oracle;
          Alcotest.test_case "marginals pinned" `Quick test_marginals_pinned;
          Alcotest.test_case "allocation per update" `Quick
            test_chromatic_alloc_per_update;
        ] );
      ( "bp",
        [
          Alcotest.test_case "singletons exact" `Quick test_bp_exact_on_singletons;
          Alcotest.test_case "trees exact" `Quick test_bp_exact_on_trees;
          Alcotest.test_case "loopy close" `Quick test_bp_close_on_loopy_graphs;
          Alcotest.test_case "deterministic" `Quick test_bp_deterministic;
        ] );
      ( "map",
        [
          Alcotest.test_case "annealing vs exact" `Slow test_map_matches_exact;
          Alcotest.test_case "icm local optimum" `Quick
            test_icm_reaches_local_optimum;
          Alcotest.test_case "satisfying world" `Quick
            test_map_prefers_satisfying_world;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "converges on easy graph" `Slow
            test_rhat_converges_on_easy_graph;
          Alcotest.test_case "short chains flagged" `Quick
            test_rhat_flags_short_chains;
          Alcotest.test_case "needs two chains" `Quick
            test_rhat_requires_two_chains;
          Alcotest.test_case "zero variance is R-hat 1" `Quick
            test_rhat_zero_variance_is_one;
        ] );
      ( "online",
        [
          Alcotest.test_case "report sanity" `Quick test_online_report_sanity;
          Alcotest.test_case "zero variance" `Quick test_online_zero_variance;
          Alcotest.test_case "early stop" `Slow test_online_early_stop;
          Alcotest.test_case "deterministic across pools" `Quick
            test_online_deterministic_across_pools;
          Alcotest.test_case "short chain never stops" `Quick
            test_online_never_stops_on_short_chain;
        ] );
      ("front-end", [ Alcotest.test_case "id mapping" `Quick test_marginal_front_end ]);
    ]
