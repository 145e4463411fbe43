module Fgraph = Factor_graph.Fgraph

type options = {
  exact_max_vars : int;
  max_width : int;
  gibbs : Gibbs.options;
}

let default_options =
  {
    exact_max_vars = Exact.max_vars;
    max_width = Jtree.default_max_width;
    gibbs = Gibbs.default_options;
  }

(* Enumeration costs O(2^k · (k + factors)); variable elimination costs
   O(k · 2^(width+2)).  Past [enum_cutoff] variables enumeration loses by
   orders of magnitude whenever the induced width is under the bound —
   the quality workload's 17-25-variable components are two decimal
   orders slower to enumerate than to eliminate — so bigger components
   prefer the junction tree and enumeration is kept where it is the
   cheapest exact route, or the only one (small but too dense to
   eliminate under the width bound). *)
let enum_cutoff = 16

type solver = Enumerated | Eliminated | Sampled

let solver_name = function
  | Enumerated -> "enumerated"
  | Eliminated -> "jtree"
  | Sampled -> "sampled"

type component_info = {
  vars : int;
  factors : int;
  width : int;
  solver : solver;
  seconds : float;
}

type report = {
  components : component_info array;
  total_vars : int;
  exact_vars : int;
  sampled_vars : int;
  enumerated_components : int;
  eliminated_components : int;
  sampled_components : int;
  max_width_solved : int;
  gibbs : Chromatic.run_info option;
  exact_seconds : float;
  gibbs_seconds : float;
}

let exact_fraction r =
  if r.total_vars = 0 then 1.
  else float_of_int r.exact_vars /. float_of_int r.total_vars

(* Per-component spans get emitted only on modestly decomposed graphs —
   a closure with 10^5 singleton components would drown the trace; the
   aggregate counters always fire. *)
let max_component_spans = 256

let solve ?(options = default_options) ?(obs = Obs.null) ?pool ?checkpoint
    ?online ?early_stop c =
  let n = Fgraph.nvars c in
  let marg = Array.make n 0. in
  Obs.with_span obs "hybrid" ~cat:"inference" @@ fun () ->
  let comps =
    Obs.with_span obs "hybrid.decompose" ~cat:"inference" (fun () ->
        Decompose.components c)
  in
  let nc = Array.length comps in
  (* Routing: components under the enumeration cutoff keep the canonical
     enumerator (bit-identical to [Exact.marginals] by construction);
     larger components go to variable elimination when their induced
     width is under the bound, falling back to enumeration when they are
     small enough for the cap but too dense to eliminate; the remaining
     high-treewidth cores are sampled together in one chromatic Gibbs
     run over their subgraph.  Elimination cliques hold width + 1
     variables, so widths at or past [Jtree.max_clique_vars] never route
     to [Eliminated] even under a permissive [max_width] (an options
     record built directly can exceed [Config.make]'s bound) — those
     components degrade to the next solver instead of letting
     [Jtree.solve] abort the run on its allocation guard. *)
  let plans =
    Obs.with_span obs "hybrid.plan" ~cat:"inference" (fun () ->
        Array.map
          (fun comp ->
            let tri = Triangulate.analyze ~cap:options.max_width comp in
            let k = Decompose.nvars comp in
            let solver =
              if k <= min options.exact_max_vars enum_cutoff then Enumerated
              else if
                tri.Triangulate.width <= options.max_width
                && tri.Triangulate.width < Jtree.max_clique_vars
              then Eliminated
              else if k <= options.exact_max_vars then Enumerated
              else Sampled
            in
            (solver, tri))
          comps)
  in
  let infos =
    Array.map
      (fun comp ->
        {
          vars = Decompose.nvars comp;
          factors = Decompose.nfactors comp;
          width = 0;
          solver = Sampled;
          seconds = 0.;
        })
      comps
  in
  (* Exact phase: components are independent and each writes a disjoint
     slice of [marg], so the pool order cannot affect the result —
     bit-identical at any pool size. *)
  let pool = match pool with Some p -> p | None -> Pool.get_default () in
  let (), exact_seconds =
    let t0 = Obs.now () in
    Obs.with_span obs "hybrid.exact" ~cat:"inference" (fun () ->
        Pool.parallel_for pool ~n:nc (fun i ->
            let solver, tri = plans.(i) in
            let t0 = Obs.now () in
            (match solver with
            | Sampled -> ()
            | Enumerated ->
              Exact.solve_component ~max_vars:options.exact_max_vars
                comps.(i) marg
            | Eliminated ->
              let local =
                Jtree.solve ~order:tri.Triangulate.order comps.(i)
              in
              Array.iteri
                (fun v p -> marg.(comps.(i).Decompose.vars.(v)) <- p)
                local);
            infos.(i) <-
              {
                (infos.(i)) with
                width = tri.Triangulate.width;
                solver;
                seconds =
                  (match solver with
                  | Sampled -> 0.
                  | _ -> Obs.now () -. t0);
              }));
    ((), Obs.now () -. t0)
  in
  (* Sampled phase: one chromatic Gibbs run over the subgraph of the
     high-treewidth cores only. *)
  let sampled = ref [] in
  Array.iteri
    (fun i (solver, _) -> if solver = Sampled then sampled := i :: !sampled)
    plans;
  let sampled = List.rev !sampled in
  let gibbs_info, gibbs_seconds =
    match sampled with
    | [] -> (None, 0.)
    | _ ->
      Obs.with_span obs "hybrid.gibbs" ~cat:"inference" (fun () ->
          let t0 = Obs.now () in
          let m = Array.length c.Fgraph.head in
          let keep = Array.make m false in
          List.iter
            (fun i ->
              Array.iter
                (fun f -> keep.(f) <- true)
                comps.(i).Decompose.factors)
            sampled;
          (* Rebuild the residual rows in original factor order, so the
             subgraph — and the sampler's variable numbering, colouring
             and RNG streams — is a pure function of the input graph. *)
          let g = Fgraph.create () in
          let id v = c.Fgraph.var_ids.(v) in
          for f = 0 to m - 1 do
            if keep.(f) then
              if c.Fgraph.singleton.(f) then
                Fgraph.add_singleton g ~i:(id c.Fgraph.head.(f))
                  ~w:c.Fgraph.fweight.(f)
              else
                Fgraph.add_clause g
                  ~i1:(id c.Fgraph.head.(f))
                  ?i2:
                    (if c.Fgraph.body1.(f) >= 0 then
                       Some (id c.Fgraph.body1.(f))
                     else None)
                  ?i3:
                    (if c.Fgraph.body2.(f) >= 0 then
                       Some (id c.Fgraph.body2.(f))
                     else None)
                  ~w:c.Fgraph.fweight.(f) ()
          done;
          let sub = Fgraph.compile g in
          let smarg, info =
            Chromatic.marginals_info ~options:options.gibbs ~obs ~pool
              ?checkpoint ?online ?early_stop sub
          in
          Array.iteri
            (fun sv p ->
              marg.(Hashtbl.find c.Fgraph.var_of_id sub.Fgraph.var_ids.(sv)) <-
                p)
            smarg;
          let seconds = Obs.now () -. t0 in
          List.iter
            (fun i ->
              let _, tri = plans.(i) in
              infos.(i) <-
                { (infos.(i)) with width = tri.Triangulate.width })
            sampled;
          (Some info, seconds))
  in
  (* Telemetry: aggregate counters always; per-component spans only on
     modestly decomposed graphs. *)
  let total_vars = ref 0
  and exact_vars = ref 0
  and sampled_vars = ref 0
  and enumerated_components = ref 0
  and eliminated_components = ref 0
  and sampled_components = ref 0
  and max_width_solved = ref 0 in
  Array.iter
    (fun info ->
      total_vars := !total_vars + info.vars;
      (match info.solver with
      | Enumerated ->
        incr enumerated_components;
        exact_vars := !exact_vars + info.vars
      | Eliminated ->
        incr eliminated_components;
        exact_vars := !exact_vars + info.vars;
        max_width_solved := max !max_width_solved info.width
      | Sampled ->
        incr sampled_components;
        sampled_vars := !sampled_vars + info.vars);
      Obs.observe obs "hybrid.component_width" (float_of_int info.width))
    infos;
  Obs.add obs "hybrid.components" nc;
  Obs.add obs "hybrid.components_enumerated" !enumerated_components;
  Obs.add obs "hybrid.components_jtree" !eliminated_components;
  Obs.add obs "hybrid.components_sampled" !sampled_components;
  Obs.add obs "hybrid.vars_exact" !exact_vars;
  Obs.add obs "hybrid.vars_sampled" !sampled_vars;
  Obs.add_time obs "hybrid.exact_seconds" exact_seconds;
  Obs.add_time obs "hybrid.gibbs_seconds" gibbs_seconds;
  if nc <= max_component_spans then
    Array.iteri
      (fun i info ->
        let sp =
          Obs.begin_span ~cat:"inference" obs
            (Printf.sprintf "hybrid.component %d" i)
        in
        Obs.end_span obs sp
          ~attrs:
            [
              ("solver", Obs.S (solver_name info.solver));
              ("vars", Obs.I info.vars);
              ("factors", Obs.I info.factors);
              ("width", Obs.I info.width);
              ("seconds", Obs.F info.seconds);
            ])
      infos;
  ( marg,
    {
      components = infos;
      total_vars = !total_vars;
      exact_vars = !exact_vars;
      sampled_vars = !sampled_vars;
      enumerated_components = !enumerated_components;
      eliminated_components = !eliminated_components;
      sampled_components = !sampled_components;
      max_width_solved = !max_width_solved;
      gibbs = gibbs_info;
      exact_seconds;
      gibbs_seconds;
    } )
