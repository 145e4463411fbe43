module Table = Relational.Table
module Pattern = Mln.Pattern
module Storage = Kb.Storage
module Fgraph = Factor_graph.Fgraph

let src = Logs.Src.create "probkb.grounding" ~doc:"ProbKB grounding driver"

module Log = (val Logs.src_log src)

type options = {
  max_iterations : int;
  apply_constraints : (Storage.t -> int * int) option;
  build_factors : bool;
  delta_from : int option;
  on_iteration : (iteration:int -> new_facts:int -> unit) option;
  obs : Obs.t;
}

let default_options =
  {
    max_iterations = 15;
    apply_constraints = None;
    build_factors = true;
    delta_from = None;
    on_iteration = None;
    obs = Obs.null;
  }

type trajectory_point = {
  iteration : int;
  new_facts : int;
  total_facts : int;
  violations : int;
  removed : int;
}

type result = {
  graph : Fgraph.t;
  iterations : int;
  converged : bool;
  trajectory : trajectory_point list;
  new_fact_count : int;
  removed_by_constraints : int;
  n_singleton_factors : int;
  n_clause_factors : int;
}

type executor = {
  stage : string;
  cat : string;
  atoms : delta_from:int option -> Pattern.t list -> (Pattern.t * Table.t) list;
  singletons : Fgraph.t -> int;
  point_data : unit -> (string * Obs.value) list;
}

let pattern_name pat = Printf.sprintf "M%d" (Pattern.index pat + 1)

(* Algorithm 1, once for every route: the executor runs the joins, this
   loop owns everything between them. *)
let drive options exec kb =
  if options.build_factors && options.delta_from <> None then
    invalid_arg "Ground.drive: delta_from with build_factors";
  let obs = options.obs in
  let counter name = exec.stage ^ "." ^ name in
  let pi = Kb.Gamma.pi kb in
  let patterns =
    List.filter
      (fun pat -> Mln.Partition.count (Kb.Gamma.partitions kb) pat > 0)
      Pattern.all
  in
  let graph = Fgraph.create () in
  let removed = ref 0 in
  let total_new = ref 0 in
  let trajectory = ref [] in
  let iterations = ref 0 in
  let converged = ref false in
  (* The first id of the facts the previous iteration added (or
     [delta_from]): from the second iteration on, every Query 1-i joins
     only derivations that use a fact from that id on.  A derivation over
     older facts alone ran in an earlier iteration, so its head is in TΠ
     already or was deleted and banned by Ω — merging it again adds
     nothing.  Those facts are the rows of TΠ from that id: a constraint
     pass deletes and compacts in one call, and compaction keeps row
     order, so the rows from the id are exactly the surviving new facts —
     a consequence of a deleted fact is never re-derived from its row. *)
  let delta_from = ref options.delta_from in
  (* Every derivation row the closure's joins returned, per pattern, in
     iteration order: Query 2-i's rows before head resolution.  Each
     derivation over the final TΠ is joined in exactly one iteration —
     the first, if its body facts are base facts, else the one after its
     newest body fact arrived — so these rows are Query 2-i's, less
     those a later Ω pass made stale.  They are copied out of the join
     outputs, which are sized for their probe side. *)
  let kept =
    Array.init (List.length Pattern.all) (fun _ ->
        Table.create ~weighted:true ~name:"derivations" Queries.atom_i_cols)
  in
  let keep results =
    if options.build_factors then
      List.iter
        (fun (pat, rows) -> Table.append_all kept.(Pattern.index pat) rows)
        results
  in
  (* Returns this pass's (violations, facts removed). *)
  let constrain () =
    match options.apply_constraints with
    | Some f ->
      let nviol, n =
        Obs.timed obs (counter "constraints_seconds") (fun () -> f pi)
      in
      Obs.add obs (counter "constraint_removed") n;
      removed := !removed + n;
      (nviol, n)
    | None -> (0, 0)
  in
  let record_point ~iteration ~new_facts (violations, rm) =
    let total_facts = Storage.size pi in
    trajectory :=
      { iteration; new_facts; total_facts; violations; removed = rm }
      :: !trajectory;
    Obs.snapshot obs ~stage:exec.stage ~point:"iteration" ~step:iteration
      ~perf:(Obs.mem_stats ())
      ([
         ("new_facts", Obs.I new_facts);
         ("total_facts", Obs.I total_facts);
         ("violations", Obs.I violations);
         ("removed", Obs.I rm);
       ]
      @ exec.point_data ())
  in
  (* Constraints are applied once before inference starts (the paper's
     Section 6.1.1 protocol) and then after every iteration (Algorithm 1,
     line 6): an entity that already violates Ω must not seed the very
     first round of joins.  This pre-pass is trajectory point 0. *)
  if options.apply_constraints <> None then
    record_point ~iteration:0 ~new_facts:0 (constrain ());
  (* Closure phase: Algorithm 1, lines 2-7. *)
  Obs.with_span obs "closure" ~cat:exec.cat (fun () ->
      while (not !converged) && !iterations < options.max_iterations do
        incr iterations;
        let iteration = !iterations in
        Obs.with_span obs
          (Printf.sprintf "iteration %d" iteration)
          ~cat:exec.cat
          (fun () ->
            (* Algorithm 1, lines 3-5: every Ti is computed against the
               same TΠ snapshot; the results are merged only after all
               partitions ran, sequentially in pattern order. *)
            let results = exec.atoms ~delta_from:!delta_from patterns in
            let first_new = Storage.next_id pi in
            (* Merging a pattern's results into TΠ is part of that
               pattern's work, so it lands in the same M-span path (the
               summary aggregates the query and merge instances).  A
               head is merged at its first occurrence: merging skips a
               key that has a live row. *)
            let new_facts =
              List.fold_left
                (fun n (pat, rows) ->
                  Obs.incr obs (counter "atom_queries");
                  Obs.with_span obs (pattern_name pat) ~cat:exec.cat (fun () ->
                      Obs.timed obs (counter "merge_seconds") (fun () ->
                          n + Storage.merge_new pi rows)))
                0 results
            in
            keep results;
            delta_from := Some first_new;
            let point = constrain () in
            total_new := !total_new + new_facts;
            Obs.add obs (counter "new_facts") new_facts;
            Obs.incr obs (counter "iterations");
            Log.debug (fun m ->
                m "%s iteration %d: +%d facts (T_Pi now %d)" exec.stage
                  iteration new_facts (Storage.size pi));
            record_point ~iteration ~new_facts point;
            Option.iter (fun f -> f ~iteration ~new_facts) options.on_iteration;
            if new_facts = 0 then converged := true)
      done);
  (* Factor phase: Algorithm 1, lines 8-10, over the kept rows. *)
  let n_clause_factors = ref 0 in
  let n_singleton_factors = ref 0 in
  if options.build_factors then begin
    Obs.with_span obs "factors" ~cat:exec.cat (fun () ->
        (* A closure cut short by the iteration budget has not joined
           the derivations that use its last iteration's facts: one more
           delta pass finds them, and merges nothing.  (With no
           iteration at all, that pass is the full query.) *)
        if not !converged then
          Obs.with_span obs "last delta" ~cat:exec.cat (fun () ->
              keep (exec.atoms ~delta_from:!delta_from patterns));
        (* A body fact Ω deleted after its derivation was joined is not
           in the final TΠ, and neither are its derivations. *)
        let body_live rows r =
          let live c =
            let id = Table.get rows r c in
            id = Fgraph.null || Option.is_some (Storage.row_of_id pi id)
          in
          live 5 && live 6
        in
        List.iter
          (fun pat ->
            n_clause_factors :=
              !n_clause_factors
              + Obs.with_span obs (pattern_name pat) ~cat:exec.cat (fun () ->
                    let rows = kept.(Pattern.index pat) in
                    let rows =
                      if !removed = 0 then rows
                      else Table.filter rows (body_live rows)
                    in
                    Queries.resolve_heads
                      ~order:(Queries.scan_order pat rows)
                      rows pi graph))
          patterns;
        n_singleton_factors :=
          Obs.with_span obs "singletons" ~cat:exec.cat (fun () ->
              exec.singletons graph));
    Obs.add obs (counter "clause_factors") !n_clause_factors;
    Obs.add obs (counter "singleton_factors") !n_singleton_factors;
    Log.debug (fun m ->
        m "factors: %d clause + %d singleton" !n_clause_factors
          !n_singleton_factors)
  end;
  {
    graph;
    iterations = !iterations;
    converged = !converged;
    trajectory = List.rev !trajectory;
    new_fact_count = !total_new;
    removed_by_constraints = !removed;
    n_singleton_factors = !n_singleton_factors;
    n_clause_factors = !n_clause_factors;
  }

(* The local executor: the M1..M6 queries run concurrently on the domain
   pool — they only read TΠ and their own rule partition — probing the
   partial-key indexes of TΠ from the delta, or scanning the resident
   table. *)
let local_executor options kb =
  let obs = options.obs in
  let pi = Kb.Gamma.pi kb in
  let prepared = Queries.prepare (Kb.Gamma.partitions kb) in
  let atoms ~delta_from patterns =
    let pats = Array.of_list patterns in
    let query =
      match delta_from with
      | Some id ->
        (* The delta queries probe TΠ's partial-key indexes; their first
           build mutates the store, so it happens here, before the
           workers share it.  Δ is read in place. *)
        Storage.build_partial_indexes pi;
        fun pat -> Queries.derivations_delta prepared pat pi ~from:id
      | None -> fun pat -> Queries.derivations prepared pat pi
    in
    Pool.map_reduce (Pool.get_default ()) ~n:(Array.length pats)
      ~map:(fun i ->
        let pat = pats.(i) in
        let sp = Obs.begin_span ~cat:"grounding" obs (pattern_name pat) in
        let rows = query pat in
        Obs.end_span obs sp ~attrs:[ ("rows", Obs.I (Table.nrows rows)) ];
        (pat, rows))
      ~fold:(fun acc r -> r :: acc)
      ~init:[]
    |> List.rev
  in
  {
    stage = "ground";
    cat = "grounding";
    atoms;
    singletons = Queries.singleton_factors pi;
    point_data = (fun () -> []);
  }

let run ?(options = default_options) kb =
  Obs.with_ambient options.obs @@ fun () ->
  drive options (local_executor options kb) kb

let closure ?(options = default_options) kb =
  run ~options:{ options with build_factors = false } kb
