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
  Alcotest.(check (float 1e-9)) "log Z" expect (Exact_oracle.log_partition c)

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

(* Early-stop criteria that never hold: the sampler tracks its online
   diagnostics and runs its full budget. *)
let never_stop =
  {
    Inference.Diagnostics.Online.target_r_hat = neg_infinity;
    min_ess = infinity;
  }

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
      let chrom =
        fst (Inference.Chromatic.marginals_info ~options:sampler_options c)
      in
      let d = max_abs_diff exact chrom in
      if d > 0.06 then
        Alcotest.failf "seed %d: chromatic Gibbs deviates by %.3f" seed d)
    [ 4; 5; 6 ];
  (* At default options on a real ground graph, against the variables
     Hybrid solves exactly (its answer there is ground truth). *)
  let c = reverb_graph () in
  let exact, report = Inference.Hybrid.solve c in
  let chrom = fst (Inference.Chromatic.marginals_info c) in
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
  (* A colour class bigger than the 256-variable RNG chunk, so it spans
     several streams.  The chain takes no pool: it sweeps on the domain
     that calls it, so a run on the main domain and one on a fresh domain
     (where a server's point read runs it) must give the same bits. *)
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
  let run () = fst (Inference.Chromatic.marginals_info ~options:opts c) in
  let a = run () and b = Domain.join (Domain.spawn run) in
  Alcotest.(check bool) "marginals bit-identical across domains" true (a = b)

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

(* Mixed-sign weights up to |w| = 1e3, and factors of every shape over
   the ids [id] draws. *)
let gen_weight =
  QCheck.Gen.(
    oneof
      [
        float_range (-1e3) 1e3;
        float_range (-3.) 3.;
        oneofl [ 0.; -0.; 1e3; -1e3 ];
      ])

let gen_factor id =
  QCheck.Gen.(
    let+ shape = int_bound 8
    and+ i1 = id
    and+ i2 = id
    and+ i3 = id
    and+ w = gen_weight in
    (shape, i1, i2, i3, w))

let print_factors factors =
  String.concat "; "
    (List.map
       (fun (s, a, b, c, w) -> Printf.sprintf "(%d,%d,%d,%d,%h)" s a b c w)
       factors)

(* Random graphs over at most 8 fact ids — so ids collide often —
   with a duplicated prefix of the factor list, and one assignment bit
   per id. *)
let arb_kernel_case =
  let open QCheck.Gen in
  let gen =
    let* nids = int_range 1 8 in
    let* factors =
      list_size (int_range 1 16) (gen_factor (int_bound (nids - 1)))
    in
    let* dups = int_bound 3 in
    let+ bits = array_repeat nids bool in
    (factors @ List.filteri (fun i _ -> i < dups) factors, bits)
  in
  let print (factors, bits) =
    Printf.sprintf "factors [%s] bits [%s]" (print_factors factors)
      (String.concat ""
         (Array.to_list (Array.map (fun b -> if b then "1" else "0") bits)))
  in
  QCheck.make ~print gen

let test_kernel_matches_oracle =
  Tutil.qcheck_case ~count:1000 "kernel = satisfied-flip oracle, bit for bit"
    arb_kernel_case
    (fun (factors, bits) ->
      let c = compile_graph (fun g -> List.iter (add_factor g) factors) in
      let n = Fgraph.nvars c in
      let kernel = Inference.Gibbs.kernel c in
      let a = Array.init n (fun v -> bits.(v)) in
      let st = Inference.Gibbs.state n (fun v -> a.(v)) in
      let out = { Inference.Gibbs.value = Float.nan } in
      for v = 0 to n - 1 do
        let before = Array.copy st in
        Inference.Gibbs.conditional kernel st v out;
        if st <> before then QCheck.Test.fail_reportf "var %d: state written" v;
        let expect = Gibbs_oracle.conditional c a v in
        if Int64.bits_of_float out.value <> Int64.bits_of_float expect then
          QCheck.Test.fail_reportf "var %d: conditional %h, oracle %h" v
            out.value expect
      done;
      (* The kernel reads its slots unchecked: a state without its two
         constant cells is refused, not read past its end. *)
      match Inference.Gibbs.log_odds kernel (Array.sub st 0 n) 0 with
      | exception Invalid_argument _ -> true
      | _ -> QCheck.Test.fail_reportf "a %d-cell state was read" n)

let digest_marginals m =
  let b = Buffer.create (8 * Array.length m) in
  Array.iter (fun p -> Buffer.add_int64_le b (Int64.bits_of_float p)) m;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Marginals pinned end to end: digests of every marginal's bits on the
   ReVerb-Sherlock generator KB at scale 0.005 (3,812 variables; Hybrid
   samples 227 of them), recorded with the satisfied-flip conditional
   ({!Gibbs_oracle}) on x86-64 Linux (glibc libm).  The mask-form kernel
   must reproduce them bit for bit, the hybrid solve at pool sizes 1, 2
   and 4 (the chain itself takes no pool).  The
   hybrid digest was re-recorded when the sampled route began to peel
   the residual down to its 2-core and sample only that (74 of the 227
   are peeled). *)
let test_marginals_pinned () =
  let c = reverb_graph () in
  Alcotest.(check string) "chromatic" "1481f2d9674b2e5224357d3626284782"
    (digest_marginals (fst (Inference.Chromatic.marginals_info c)));
  List.iter
    (fun d ->
      let pool = Pool.create d in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          Alcotest.(check string)
            (Printf.sprintf "hybrid, pool %d" d)
            "1c052592e67fe4bc082ae093efa6f5f0"
            (digest_marginals (fst (Inference.Hybrid.solve ~pool c)))))
    [ 1; 2; 4 ]

(* --- the class-major sweep and the bitmask enumerator against the
   code they replaced --- *)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* A renumbered graph: the log-odds of every variable are the
   original's bit for bit, every factor sees the same assignment, and
   ids map to the new numbers both ways. *)
let test_permute_keeps_log_odds =
  Tutil.qcheck_case ~count:1000 "log-odds survive a renumbering, bit for bit"
    QCheck.(pair arb_kernel_case small_nat)
    (fun ((factors, bits), seed) ->
      let c = compile_graph (fun g -> List.iter (add_factor g) factors) in
      let n = Fgraph.nvars c in
      let perm = Array.init n Fun.id in
      let rng = Tutil.rng seed in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let pc = Fgraph.permute c perm in
      let a = Array.init n (fun v -> bits.(v)) in
      let pa = Array.map (fun v -> a.(v)) perm in
      let k = Inference.Gibbs.kernel c and pk = Inference.Gibbs.kernel pc in
      let st = Inference.Gibbs.state n (fun v -> a.(v))
      and pst = Inference.Gibbs.state n (fun v -> pa.(v)) in
      Array.iteri
        (fun nv v ->
          let id = c.Fgraph.var_ids.(v) in
          if pc.Fgraph.var_ids.(nv) <> id
             || Hashtbl.find pc.Fgraph.var_of_id id <> nv
          then QCheck.Test.fail_reportf "var %d: id map not renumbered" v;
          let x = Inference.Gibbs.log_odds k st v
          and y = Inference.Gibbs.log_odds pk pst nv in
          if not (same_bits [| x |] [| y |]) then
            QCheck.Test.fail_reportf "var %d: log-odds %h, renumbered %h" v x y)
        perm;
      Array.iteri
        (fun f _ ->
          if Fgraph.satisfied c f a <> Fgraph.satisfied pc f pa then
            QCheck.Test.fail_reportf "factor %d: satisfaction moved" f)
        c.Fgraph.fweight;
      true)

(* Random graphs up to 700 variables, so some colour classes span
   several 256-variable chunks, swept with no diagnostics, with online
   diagnostics (an early stop that never fires), and with an early stop
   that fires at the second checkpoint: marginals, pair joints, sweep
   counts and the diagnostics report must equal the per-variable
   sweep's, bit for bit.  The pairs are each clause's head and first
   body atom, and random pairs, a variable paired with itself among
   them. *)
let test_chromatic_matches_sweep_oracle () =
  let fires =
    { Inference.Diagnostics.Online.target_r_hat = infinity; min_ess = 0. }
  in
  List.iter
    (fun (seed, nvars) ->
      let c = random_graph seed nvars (nvars + (seed * 37 mod nvars)) in
      let options = { Inference.Gibbs.burn_in = 3; samples = 25; seed } in
      let pairs =
        let rng = Tutil.rng (seed + 1000) and n = Fgraph.nvars c in
        let clauses = ref [] in
        Array.iteri
          (fun f h ->
            let b = c.Fgraph.body1.(f) in
            if b >= 0 && b <> h then clauses := (h, b) :: !clauses)
          c.Fgraph.head;
        Array.append
          (Array.of_list (List.rev !clauses))
          (Array.init 8 (fun i ->
               let a = Random.State.int rng n in
               (a, if i = 0 then a else Random.State.int rng n)))
      in
      List.iter
        (fun (mode, early_stop) ->
          let expect_m, expect_j, expect =
            Gibbs_oracle.chromatic ~options ~checkpoint:5 ?early_stop ~pairs c
          in
          if
            mode = "early stop"
            && expect.Inference.Chromatic.stopped_at_sweep = None
          then Alcotest.failf "seed %d: the early stop never fired" seed;
          let m, j, info =
            Inference.Chromatic.marginals_joints ~options ~checkpoint:5
              ?early_stop ~pairs c
          in
          let where = Printf.sprintf "seed %d, %d vars, %s" seed nvars mode in
          Alcotest.(check bool) (where ^ ": marginals") true
            (same_bits m expect_m);
          Alcotest.(check bool) (where ^ ": joints") true
            (same_bits j expect_j);
          Alcotest.(check int) (where ^ ": sweeps run")
            expect.Inference.Chromatic.sweeps_run
            info.Inference.Chromatic.sweeps_run;
          Alcotest.(check (option int)) (where ^ ": stopped at")
            expect.Inference.Chromatic.stopped_at_sweep
            info.Inference.Chromatic.stopped_at_sweep;
          let open Inference.Diagnostics.Online in
          match
            (expect.Inference.Chromatic.diag, info.Inference.Chromatic.diag)
          with
          | None, None -> ()
          | Some d, Some e ->
            Alcotest.(check int) (where ^ ": report sweeps") d.sweeps e.sweeps;
            Alcotest.(check bool) (where ^ ": report") true
              (same_bits d.r_hat e.r_hat && same_bits d.ess e.ess
              && same_bits
                   [| d.max_r_hat; d.min_ess |]
                   [| e.max_r_hat; e.min_ess |])
          | _ -> Alcotest.failf "%s: diagnostics on one side only" where)
        [
          ("plain", None);
          ("online", Some never_stop);
          ("early stop", Some fires);
        ])
    [ (1, 1); (2, 7); (3, 40); (4, 300); (5, 700); (6, 520); (7, 90) ]

(* Random components of 1-20 variables — both sides of the enumerator's
   16-variable stored-sum bound — held together by a random tree of
   one- and two-body clauses, plus factors of every shape (priors,
   heads that are also body atoms) with |w| up to 1e3. *)
let test_enumerate_matches_oracle =
  let gen =
    let open QCheck.Gen in
    let* n = int_range 1 20 in
    let id = int_bound (n - 1) in
    let edge i =
      let+ p = int_bound (i - 1)
      and+ shape = oneofl [ 2; 4 ]
      and+ i3 = id
      and+ w = gen_weight in
      (shape, i, p, i3, w)
    in
    let* tree = flatten_l (List.init (n - 1) (fun i -> edge (i + 1))) in
    let+ extra = list_size (int_range 1 (2 * n)) (gen_factor id) in
    tree @ extra
  in
  Tutil.qcheck_case ~count:30 "bitmask enumerator = two-pass enumerator"
    (QCheck.make ~print:print_factors gen)
    (fun factors ->
      let c = compile_graph (fun g -> List.iter (add_factor g) factors) in
      Array.for_all
        (fun comp ->
          same_bits
            (Inference.Exact.enumerate comp)
            (Exact_oracle.enumerate comp))
        (Inference.Decompose.components c))

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
  let w0 = Gc.minor_words () in
  ignore (Inference.Chromatic.marginals_info ~options c);
  let words = Gc.minor_words () -. w0 in
  let per_update = words /. float_of_int (100 * Fgraph.nvars c) in
  if per_update > 3. then
    Alcotest.failf "%.2f minor words per variable update (limit 3)" per_update

let test_schedule_stats () =
  let c = random_graph 9 10 12 in
  let s = Gibbs_oracle.schedule_stats c in
  Alcotest.(check bool) "at least one colour" true (s.Gibbs_oracle.n_colors >= 1);
  Alcotest.(check bool) "speedup >= 1" true (s.Gibbs_oracle.ideal_speedup >= 1.)

(* --- belief propagation --- *)

let test_bp_exact_on_singletons () =
  let c =
    compile_graph (fun g ->
        Fgraph.add_singleton g ~i:1 ~w:0.8;
        Fgraph.add_singleton g ~i:2 ~w:(-0.4))
  in
  let bp, st = Bp_oracle.marginals c in
  Alcotest.(check bool) "converged" true st.Bp_oracle.converged;
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
  let bp, st = Bp_oracle.marginals c in
  Alcotest.(check bool) "converged" true st.Bp_oracle.converged;
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
      let bp, _ = Bp_oracle.marginals c in
      let d = max_abs_diff exact bp in
      if d > 0.12 then Alcotest.failf "seed %d: BP deviates by %.3f" seed d)
    [ 1; 2; 3 ]

let test_bp_deterministic () =
  let c = random_graph 55 12 18 in
  let a, _ = Bp_oracle.marginals c in
  let b, _ = Bp_oracle.marginals c in
  Alcotest.(check bool) "deterministic" true (a = b)

(* --- the online estimator, fed directly --- *)

(* [sweeps] sweeps of one variable whose observation at sweep [i]
   (1-based) is [f i]. *)
let online_run ?(segment = 20) sweeps f =
  let o = Inference.Diagnostics.Online.create ~segment 1 in
  for i = 1 to sweeps do
    Inference.Diagnostics.Online.begin_sweep o;
    Inference.Diagnostics.Online.observe o 0 (f i)
  done;
  Inference.Diagnostics.Online.report o

let noise seed =
  let st = Random.State.make [| seed |] in
  fun _ -> Random.State.float st 1.0

let lenient = { Inference.Diagnostics.Online.target_r_hat = 10.; min_ess = 0. }

let test_estimator_pinned () =
  (* A constant conditional has exactly zero variance: R̂ = 1 and
     ESS = n, per variable and in the aggregates. *)
  let r = online_run ~segment:10 50 (fun _ -> 0.7) in
  let open Inference.Diagnostics.Online in
  Alcotest.(check (float 0.)) "R-hat is 1" 1.0 r.r_hat.(0);
  Alcotest.(check (float 0.)) "ESS is n" 50. r.ess.(0);
  Alcotest.(check (float 0.)) "max R-hat is 1" 1.0 r.max_r_hat;
  Alcotest.(check (float 0.)) "min ESS is n" 50. r.min_ess

let test_estimator_needs_two_windows () =
  (* Split-R̂ compares the first half of the run against the second: one
     checkpoint window has no second half, two do. *)
  let one = online_run 20 (noise 1) and two = online_run 40 (noise 1) in
  let open Inference.Diagnostics.Online in
  Alcotest.(check bool) "one window: R-hat NaN" true
    (Float.is_nan one.max_r_hat);
  Alcotest.(check bool) "one window: lenient criteria unsatisfied" false
    (satisfied lenient one);
  Alcotest.(check bool)
    (Printf.sprintf "two windows: R-hat %.3f finite" two.max_r_hat)
    true
    (Float.is_finite two.max_r_hat);
  Alcotest.(check bool) "two windows: lenient criteria satisfied" true
    (satisfied lenient two)

let test_estimator_flags_drift () =
  (* Same spread in both halves, but the second half sits 0.6 higher:
     between-half variance dwarfs within-half variance. *)
  let jitter = noise 2 in
  let stationary = online_run 80 (fun i -> 0.45 +. (0.1 *. jitter i)) in
  let drifting =
    online_run 80 (fun i ->
        (if i <= 40 then 0.15 else 0.75) +. (0.1 *. jitter i))
  in
  let open Inference.Diagnostics.Online in
  Alcotest.(check bool)
    (Printf.sprintf "stationary R-hat %.3f < 1.1" stationary.max_r_hat)
    true (stationary.max_r_hat < 1.1);
  Alcotest.(check bool)
    (Printf.sprintf "drifting R-hat %.3f > 2" drifting.max_r_hat)
    true (drifting.max_r_hat > 2.);
  Alcotest.(check bool) "drifting chain never satisfies the defaults" false
    (satisfied default_criteria drifting)

let test_estimator_sticky_ess () =
  (* Runs of ten equal values: lag-1 autocorrelation near 0.8 leaves an
     effective sample size around a tenth of the draws; independent
     draws keep most of them. *)
  let sticky =
    online_run 80 (fun i -> if (i - 1) / 10 mod 2 = 0 then 0.1 else 0.9)
  in
  let iid = online_run 80 (noise 3) in
  let open Inference.Diagnostics.Online in
  Alcotest.(check bool)
    (Printf.sprintf "sticky ESS %.1f < 16" sticky.min_ess)
    true (sticky.min_ess < 16.);
  Alcotest.(check bool)
    (Printf.sprintf "independent ESS %.1f > 40" iid.min_ess)
    true (iid.min_ess > 40.)

(* --- online diagnostics --- *)

let online_options = { Inference.Gibbs.burn_in = 100; samples = 400; seed = 7 }

let test_online_report_sanity () =
  let c = random_graph 77 6 6 in
  let _, info =
    Inference.Chromatic.marginals_info ~options:online_options ~early_stop:never_stop c
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
    Inference.Chromatic.marginals_info ~options:online_options ~early_stop:never_stop c
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
    Inference.Chromatic.marginals_info ~options:budget ~early_stop:never_stop c
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
     schedule; the chain sweeps on the domain that calls it, so the
     report must be the same bits on the main domain and on a fresh
     one. *)
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
  let run () =
    Inference.Chromatic.marginals_info ~options:opts ~early_stop:never_stop c
  in
  let m1, i1 = run () and m2, i2 = Domain.join (Domain.spawn run) in
  Alcotest.(check bool) "marginals identical" true (m1 = m2);
  match (i1.Inference.Chromatic.diag, i2.Inference.Chromatic.diag) with
  | Some d1, Some d2 ->
    let open Inference.Diagnostics.Online in
    Alcotest.(check bool) "R-hat bit-identical" true (d1.r_hat = d2.r_hat);
    Alcotest.(check bool) "ESS bit-identical" true (d1.ess = d2.ess)
  | _ -> Alcotest.fail "missing online report"

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
  let m, _ = Inference.Marginal.infer_full g Inference.Hybrid.default_options in
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
          Alcotest.test_case "chromatic vs exact" `Slow
            test_chromatic_matches_exact;
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
          test_permute_keeps_log_odds;
          Alcotest.test_case "class-major sweep = per-variable sweep" `Quick
            test_chromatic_matches_sweep_oracle;
          test_enumerate_matches_oracle;
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
      ( "diagnostics",
        [
          Alcotest.test_case "pinned: R-hat 1, ESS n" `Quick
            test_estimator_pinned;
          Alcotest.test_case "split R-hat needs two windows" `Quick
            test_estimator_needs_two_windows;
          Alcotest.test_case "split R-hat flags drift" `Quick
            test_estimator_flags_drift;
          Alcotest.test_case "sticky chain has low ESS" `Quick
            test_estimator_sticky_ess;
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
