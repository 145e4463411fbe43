(* Sampler accuracy: the sampled route (peel the residual down to its
   2-core, sample the core, answer the peeled variables by the downward
   pass) against a chain over the whole unpeeled residual, both scored
   against a long unpeeled reference chain.  Reported, not gated: the
   run fails only on a marginal that is not a probability. *)

open Bench_util
module Fgraph = Factor_graph.Fgraph
module Hybrid = Inference.Hybrid
module Chromatic = Inference.Chromatic
module Peel = Inference.Peel

let reference_options =
  { Inference.Gibbs.burn_in = 2000; samples = 20000; seed = 7 }

let seeds = [ 42; 43; 44 ]

(* The closed KB of the repository benchmark: the generator's KB at seed
   42, Ω once, four closure iterations. *)
let closed_graph scale =
  let g =
    Workload.Reverb_sherlock.generate
      { Workload.Reverb_sherlock.default_config with scale; seed = 42 }
  in
  let kb = Workload.Reverb_sherlock.kb g in
  ignore (Quality.Semantic.apply (Kb.Gamma.pi kb) (Kb.Gamma.omega kb));
  let r =
    Grounding.Ground.run
      ~options:{ Grounding.Ground.default_options with max_iterations = 4 }
      kb
  in
  Fgraph.compile r.Grounding.Ground.graph

(* The factors of the components [report] sampled, and their subgraph
   compiled on its own, rows in factor order: the residual the sampled
   route peels. *)
let residual c (report : Hybrid.report) =
  let p = Inference.Decompose.partition c in
  let keep = Array.make (Array.length c.Fgraph.head) false in
  Array.iteri
    (fun i (info : Hybrid.component_info) ->
      if info.Hybrid.solver = Hybrid.Sampled then
        Array.iter
          (fun f -> keep.(f) <- true)
          p.Inference.Decompose.members.(i))
    report.Hybrid.components;
  let g = Fgraph.create () in
  let id v = if v < 0 then None else Some c.Fgraph.var_ids.(v) in
  Array.iteri
    (fun f k ->
      if k then
        if c.Fgraph.singleton.(f) then
          Fgraph.add_singleton g ~i:c.Fgraph.var_ids.(c.Fgraph.head.(f))
            ~w:c.Fgraph.fweight.(f)
        else
          Fgraph.add_clause g ~i1:c.Fgraph.var_ids.(c.Fgraph.head.(f))
            ?i2:(id c.Fgraph.body1.(f)) ?i3:(id c.Fgraph.body2.(f))
            ~w:c.Fgraph.fweight.(f) ())
    keep;
  (keep, Fgraph.compile g)

let cpu f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

let sampler () =
  section
    "Sampler accuracy — the peeled 2-core against the unpeeled residual";
  let scale = scale_or 0.04 in
  let c = closed_graph scale in
  let _, report = Hybrid.solve c in
  let keep, res = residual c report in
  let n = Fgraph.nvars res in
  let peel = Peel.run ~keep c in
  let core = Peel.core peel in
  let in_core v = Hashtbl.mem core.Fgraph.var_of_id res.Fgraph.var_ids.(v) in
  note "KB scale %.3f, generator seed 42, Ω, 4 iterations: %d variables" scale
    (Fgraph.nvars c);
  note
    "residual: %d variables, %d factors, %d slots; core: %d variables, %d \
     slots"
    n (Array.length res.Fgraph.head) (Array.length res.Fgraph.adj)
    (Fgraph.nvars core) (Array.length core.Fgraph.adj);
  note "reference: the unpeeled residual, %d + %d sweeps, seed %d"
    reference_options.burn_in reference_options.samples reference_options.seed;
  let reference, _ = Chromatic.marginals_info ~options:reference_options res in
  let bad = ref 0 in
  (* Mean and max |error| over all, core and peeled variables. *)
  let score marg =
    let sum = Array.make 3 0.
    and top = Array.make 3 0.
    and cnt = Array.make 3 0 in
    Array.iteri
      (fun v p ->
        if not (Float.is_finite p && 0. <= p && p <= 1.) then incr bad;
        let e = Float.abs (p -. reference.(v)) in
        List.iter
          (fun k ->
            sum.(k) <- sum.(k) +. e;
            top.(k) <- Float.max top.(k) e;
            cnt.(k) <- cnt.(k) + 1)
          [ 0; (if in_core v then 1 else 2) ])
      marg;
    ( Array.mapi (fun k s -> s /. float_of_int (max 1 cnt.(k))) sum, top )
  in
  pf "  %-5s %-9s | %-29s | %-29s | %s@." "seed" "route"
    "mean |err|: all / core / peeled" "max |err|: all / core / peeled"
    "sampler CPU s";
  List.iter
    (fun seed ->
      let gibbs = { Inference.Gibbs.default_options with seed } in
      let unpeeled, unpeeled_s =
        cpu (fun () -> fst (Chromatic.marginals_info ~options:gibbs res))
      in
      (* The sampled route's phase on its own, timed: peel, chain on the
         core, downward pass.  It must give Hybrid's answers. *)
      let replica = Array.make (Fgraph.nvars c) Float.nan in
      let (), peeled_s =
        cpu (fun () ->
            let peel = Peel.run ~keep c in
            let core = Peel.core peel in
            let m, joints =
              if Fgraph.nvars core = 0 then ([||], [||])
              else
                let m, j, _ =
                  Chromatic.marginals_joints ~options:gibbs
                    ~pairs:(Peel.pairs peel) core
                in
                (m, j)
            in
            Peel.expand peel ~core:m ~joints replica)
      in
      let marg, _ =
        Hybrid.solve ~options:{ Hybrid.default_options with gibbs } c
      in
      let on_residual m =
        Array.map (fun id -> m.(Hashtbl.find c.Fgraph.var_of_id id))
          res.Fgraph.var_ids
      in
      let routed = on_residual marg in
      if routed <> on_residual replica then begin
        Format.eprintf "sampler: the timed phase differs from Hybrid.solve@.";
        exit 1
      end;
      List.iter
        (fun (route, m, s) ->
          let mean, top = score m in
          pf
            "  %-5d %-9s | %.5f / %.5f / %.5f   | %.4f / %.4f / %.4f      | \
             %.3f@."
            seed route mean.(0) mean.(1) mean.(2) top.(0) top.(1) top.(2) s)
        [ ("unpeeled", unpeeled, unpeeled_s); ("peeled", routed, peeled_s) ])
    seeds;
  note "default sweeps (%d + %d) on both routes; the unpeeled route's core and \
        peeled columns split the same chain's answers"
    Inference.Gibbs.default_options.burn_in
    Inference.Gibbs.default_options.samples;
  if !bad > 0 then begin
    Format.eprintf "sampler: %d marginals are not probabilities@." !bad;
    exit 1
  end
