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

(* What the exact phase runs on a component this call solves: the
   canonical form, and for elimination its order.  A sampled component
   needs neither: the peel reads it straight from the graph. *)
type plan =
  | Enumerate of Decompose.component
  | Eliminate of Decompose.component * int array
  | Sample

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
  peeled_vars : int;
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

(* What a solve made with a memo keeps for the next one: the fact id,
   marginal and component of each of its variables, and the component
   reports — flat arrays, which a collector scans cheaply while the
   session serves reads.  [inputs] are the solve's arguments other than
   the graph; the results stand only for the same ones. *)
type last = {
  inputs : options * int option * Diagnostics.Online.criteria option;
  var_ids : int array;
  marg : float array;
  comp_of_var : int array;
  infos : component_info array;
}

type memo = { mutable last : last option }

let memo () = { last = None }

let memo_vars m =
  match m.last with Some l -> Array.length l.var_ids | None -> 0

let solve ?(options = default_options) ?(obs = Obs.null) ?pool ?checkpoint
    ?early_stop ?memo c =
  let n = Fgraph.nvars c in
  let marg = Array.make n 0. in
  let inputs = (options, checkpoint, early_stop) in
  (* The memo is emptied first, so a solve that raises leaves nothing a
     later solve could wrongly reuse. *)
  let last, dirty =
    match memo with
    | None -> (None, Hashtbl.create 0)
    | Some (m, dirty) ->
      let last = m.last in
      m.last <- None;
      ( (match last with Some l when l.inputs = inputs -> Some l | _ -> None),
        dirty )
  in
  Obs.with_span obs "hybrid" ~cat:"inference" @@ fun () ->
  (* Reuse: a component none of whose variables is dirty has exactly the
     factors it had at the last solve (every appended or killed row's
     facts are dirty), so it is that solve's component, and its
     canonical form, plan and exact answer are the same.  [cached.(i)] is
     the last solve's report of such a component; only the others are
     planned.  A sampled answer is never copied: it depends on the whole
     residual subgraph, so the sampler runs on every solve that has a
     sampled component, clean ones keeping their plan. *)
  let p, old_of_var, cached, size =
    Obs.with_span obs "hybrid.decompose" ~cat:"inference" (fun () ->
        let p = Decompose.partition c in
        let nc = Array.length p.Decompose.roots in
        let cached = Array.make nc None in
        (* [old_of_var.(v)] is variable [v]'s index at the last solve, or
           -1 for a variable that is new. *)
        let old_of_var =
          match last with
          | None -> [||]
          | Some l ->
            let old_of_var = Array.make n (-1) in
            Array.iteri
              (fun ov id ->
                Option.iter
                  (fun v -> old_of_var.(v) <- ov)
                  (Hashtbl.find_opt c.Fgraph.var_of_id id))
              l.var_ids;
            let dirty_comp = Array.make nc false in
            Hashtbl.iter
              (fun id () ->
                Option.iter
                  (fun v -> dirty_comp.(p.Decompose.comp_of_var.(v)) <- true)
                  (Hashtbl.find_opt c.Fgraph.var_of_id id))
              dirty;
            Array.iteri
              (fun i root ->
                let ov = old_of_var.(root) in
                if ov >= 0 && not dirty_comp.(i) then
                  cached.(i) <- Some l.infos.(l.comp_of_var.(ov)))
              p.Decompose.roots;
            old_of_var
        in
        (p, old_of_var, cached, Decompose.sizes p))
  in
  let nc = Array.length cached in
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
     [Jtree.solve] abort the run on its allocation guard.

     The sampler's question is answered before any canonical form is
     built: a component too big to enumerate that meets the graph's
     (max_width + 1)-core has width over the bound along every order
     ({!Triangulate.core}), which is what the capped fill-in would
     report, so it is sampled with width [max_width + 1] and no
     canonical form, MCS or fill-in.  Every other component is
     canonicalized and triangulated. *)
  let plans =
    Obs.with_span obs "hybrid.plan" ~cat:"inference" (fun () ->
        let sample = Array.make nc false in
        let keep =
          Array.map
            (fun i ->
              Option.is_none cached.(i) && size.(i) > options.exact_max_vars)
            p.Decompose.comp_of_var
        in
        Array.iteri
          (fun v inside ->
            if inside then sample.(p.Decompose.comp_of_var.(v)) <- true)
          (Triangulate.core c ~k:(options.max_width + 1) ~keep);
        Array.mapi
          (fun i cached ->
            if Option.is_some cached then None
            else if sample.(i) then Some (Sample, options.max_width + 1)
            else
              let comp = Decompose.canonical c p i in
              if size.(i) <= min options.exact_max_vars enum_cutoff then
                Some
                  ( Enumerate comp,
                    Triangulate.width_of ~cap:options.max_width comp )
              else
                let tri = Triangulate.analyze ~cap:options.max_width comp in
                let width = tri.Triangulate.width in
                if width <= options.max_width && width < Jtree.max_clique_vars
                then Some (Eliminate (comp, tri.Triangulate.order), width)
                else if size.(i) <= options.exact_max_vars then
                  Some (Enumerate comp, width)
                else Some (Sample, width))
          cached)
  in
  let infos =
    Array.mapi
      (fun i -> function
        | None -> Option.get cached.(i)
        | Some (plan, width) ->
          {
            vars = size.(i);
            factors = Array.length p.Decompose.members.(i);
            width;
            solver =
              (match plan with
              | Enumerate _ -> Enumerated
              | Eliminate _ -> Eliminated
              | Sample -> Sampled);
            seconds = 0.;
          })
      plans
  in
  (* Exact phase: components are independent and each writes a disjoint
     slice of [marg], so the pool order cannot affect the result —
     bit-identical at any pool size. *)
  let pool = match pool with Some p -> p | None -> Pool.get_default () in
  let (), exact_seconds =
    let t0 = Obs.now () in
    Obs.with_span obs "hybrid.exact" ~cat:"inference" (fun () ->
        Pool.parallel_for pool ~n:nc (fun i ->
            let timed solve =
              let t0 = Obs.now () in
              solve ();
              infos.(i) <- { (infos.(i)) with seconds = Obs.now () -. t0 }
            in
            match plans.(i) with
            | None | Some (Sample, _) -> ()
            | Some (Enumerate comp, _) ->
              timed (fun () ->
                  Exact.solve_component ~max_vars:options.exact_max_vars comp
                    marg)
            | Some (Eliminate (comp, order), _) ->
              timed (fun () ->
                  Array.iteri
                    (fun v p -> marg.(comp.Decompose.vars.(v)) <- p)
                    (Jtree.solve ~order comp))));
    ((), Obs.now () -. t0)
  in
  (* Sampled phase: the subgraph of the high-treewidth components, peeled
     down to its 2-core by exact elimination ({!Peel}); one chromatic
     Gibbs run over the core, and a downward pass for the rest. *)
  let sampled = ref [] in
  for i = nc - 1 downto 0 do
    if infos.(i).solver = Sampled then sampled := i :: !sampled
  done;
  let sampled = !sampled in
  let gibbs_info, peeled_vars, gibbs_seconds =
    match sampled with
    | [] -> (None, 0, 0.)
    | _ ->
      Obs.with_span obs "hybrid.gibbs" ~cat:"inference" (fun () ->
          let t0 = Obs.now () in
          let m = Array.length c.Fgraph.head in
          let keep = Array.make m false in
          List.iter
            (fun i ->
              Array.iter (fun f -> keep.(f) <- true) p.Decompose.members.(i))
            sampled;
          (* The peel takes the residual's variables in the input graph's
             order, so the core's numbering, colouring and RNG streams
             are a pure function of the input graph. *)
          let peel =
            Obs.with_span obs "hybrid.peel" ~cat:"inference" (fun () ->
                Peel.run ~keep c)
          in
          let core = Peel.core peel in
          (* A residual that peels away entirely runs no chain. *)
          let core_marg, joints, info =
            if Fgraph.nvars core = 0 then ([||], [||], None)
            else
              let core_marg, joints, info =
                Chromatic.marginals_joints ~options:options.gibbs ~obs
                  ?checkpoint ?early_stop ~pairs:(Peel.pairs peel) core
              in
              (core_marg, joints, Some info)
          in
          Peel.expand peel ~core:core_marg ~joints marg;
          (info, Peel.peeled peel, Obs.now () -. t0))
  in
  (* Reused components copy the last solve's marginals. *)
  let reused =
    Array.map
      (function Some info -> info.solver <> Sampled | None -> false)
      cached
  in
  Option.iter
    (fun l ->
      Array.iteri
        (fun v i -> if reused.(i) then marg.(v) <- l.marg.(old_of_var.(v)))
        p.Decompose.comp_of_var)
    last;
  (* Telemetry: the report describes the whole graph; the counters count
     what this call solved, and what it reused. *)
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
      match info.solver with
      | Enumerated ->
        incr enumerated_components;
        exact_vars := !exact_vars + info.vars
      | Eliminated ->
        incr eliminated_components;
        exact_vars := !exact_vars + info.vars;
        max_width_solved := max !max_width_solved info.width
      | Sampled ->
        incr sampled_components;
        sampled_vars := !sampled_vars + info.vars)
    infos;
  let solved = ref 0
  and solved_by = Array.make 3 0
  and seconds_by = Array.make 3 0.
  and vars_exact = ref 0
  and vars_sampled = ref 0
  and vars_reused = ref 0 in
  Array.iteri
    (fun i info ->
      if reused.(i) then vars_reused := !vars_reused + info.vars
      else begin
        incr solved;
        let k =
          match info.solver with
          | Enumerated -> 0
          | Eliminated -> 1
          | Sampled -> 2
        in
        solved_by.(k) <- solved_by.(k) + 1;
        seconds_by.(k) <- seconds_by.(k) +. info.seconds;
        if info.solver = Sampled then vars_sampled := !vars_sampled + info.vars
        else vars_exact := !vars_exact + info.vars;
        Obs.observe obs "hybrid.component_width" (float_of_int info.width)
      end)
    infos;
  Obs.add obs "hybrid.components" !solved;
  Obs.add obs "hybrid.components_enumerated" solved_by.(0);
  Obs.add obs "hybrid.components_jtree" solved_by.(1);
  Obs.add obs "hybrid.components_sampled" solved_by.(2);
  Obs.add obs "hybrid.components_reused" (nc - !solved);
  Obs.add obs "hybrid.vars_exact" !vars_exact;
  Obs.add obs "hybrid.vars_sampled" !vars_sampled;
  Obs.add obs "hybrid.vars_peeled" peeled_vars;
  Obs.add obs "hybrid.vars_reused" !vars_reused;
  if Option.is_some gibbs_info then Obs.incr obs "hybrid.sampler_runs";
  Obs.add_time obs "hybrid.exact_seconds" exact_seconds;
  Obs.add_time obs "hybrid.enumerate_seconds" seconds_by.(0);
  Obs.add_time obs "hybrid.jtree_seconds" seconds_by.(1);
  Obs.add_time obs "hybrid.gibbs_seconds" gibbs_seconds;
  if nc <= max_component_spans then
    Array.iteri
      (fun i info ->
        if not reused.(i) then begin
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
              ]
        end)
      infos;
  Option.iter
    (fun (m, _) ->
      m.last <-
        Some
          {
            inputs;
            var_ids = c.Fgraph.var_ids;
            marg = Array.copy marg;
            comp_of_var = p.Decompose.comp_of_var;
            infos;
          })
    memo;
  ( marg,
    {
      components = infos;
      total_vars = !total_vars;
      exact_vars = !exact_vars;
      sampled_vars = !sampled_vars;
      peeled_vars;
      enumerated_components = !enumerated_components;
      eliminated_components = !eliminated_components;
      sampled_components = !sampled_components;
      max_width_solved = !max_width_solved;
      gibbs = gibbs_info;
      exact_seconds;
      gibbs_seconds;
    } )
