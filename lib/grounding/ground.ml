module Table = Relational.Table
module Ops = Relational.Ops
module Stats = Relational.Stats
module Pattern = Mln.Pattern

(* The segment-store aliases must precede the [Kb.Storage] rebinding:
   [Storage] names the out-of-core library only up to the next line. *)
module Seg_store = Storage.Store
module Spill = Storage.Spill
module Storage = Kb.Storage
module Fgraph = Factor_graph.Fgraph

let src = Logs.Src.create "probkb.grounding" ~doc:"ProbKB grounding driver"

module Log = (val Logs.src_log src)

type options = {
  max_iterations : int;
  apply_constraints : (Storage.t -> int * int) option;
  distinct_before_merge : bool;
  build_factors : bool;
  semi_naive : bool;
  initial_delta : Table.t option;
  on_iteration : (iteration:int -> new_facts:int -> unit) option;
  spill : Spill.t option;
  obs : Obs.t;
}

let default_options =
  {
    max_iterations = 15;
    apply_constraints = None;
    distinct_before_merge = true;
    build_factors = true;
    semi_naive = false;
    initial_delta = None;
    on_iteration = None;
    spill = None;
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
  facts_per_iteration : int list;
  trajectory : trajectory_point list;
  new_fact_count : int;
  removed_by_constraints : int;
  n_singleton_factors : int;
  n_clause_factors : int;
  stats : Stats.t;
}

let all_atom_cols = [| 0; 1; 2; 3; 4 |]

let active_patterns prepared =
  List.filter
    (fun pat -> Mln.Partition.count (Queries.partitions prepared) pat > 0)
    Pattern.all

let pattern_name pat = Printf.sprintf "M%d" (Pattern.index pat + 1)

let run ?(options = default_options) kb =
  let obs = options.obs in
  Obs.with_ambient obs @@ fun () ->
  let pi = Kb.Gamma.pi kb in
  let prepared = Queries.prepare (Kb.Gamma.partitions kb) in
  let patterns = active_patterns prepared in
  let stats = Stats.create () in
  let graph = Fgraph.create () in
  let removed = ref 0 in
  let total_new = ref 0 in
  let facts_per_iteration = ref [] in
  let trajectory = ref [] in
  let iterations = ref 0 in
  let converged = ref false in
  (* Returns this pass's (violations, facts removed). *)
  let constrain pi =
    match options.apply_constraints with
    | Some f ->
      let nviol, n =
        Obs.timed obs "ground.constraints_seconds" (fun () -> f pi)
      in
      Obs.add obs "ground.constraint_removed" n;
      removed := !removed + n;
      (nviol, n)
    | None -> (0, 0)
  in
  let record_point ~iteration ~new_facts ~violations ~removed:rm =
    let total_facts = Storage.size pi in
    trajectory :=
      { iteration; new_facts; total_facts; violations; removed = rm }
      :: !trajectory;
    Obs.snapshot obs ~stage:"ground" ~point:"iteration" ~step:iteration
      ~perf:(Obs.mem_stats ())
      [
        ("new_facts", Obs.I new_facts);
        ("total_facts", Obs.I total_facts);
        ("violations", Obs.I violations);
        ("removed", Obs.I rm);
      ]
  in
  let semi_naive = options.semi_naive || options.initial_delta <> None in
  let delta = ref options.initial_delta in
  (* Out-of-core probing: once [TΠ] crosses the spill threshold, keep an
     on-disk segment-store copy in step (whole segments appended per
     iteration; the partial tail stays resident) and probe the closure
     and factor joins from it instead of the resident table.  The
     resident store remains the authority — merges, head resolution and
     constraint passes are untouched — and segmented probes are
     bit-identical to resident ones, so spilling changes I/O, never
     results. *)
  let spill_store = ref None in
  let sync_spill () =
    match options.spill with
    | None -> ()
    | Some policy -> (
      let facts = Storage.table pi in
      match !spill_store with
      | Some st ->
        spill_store := Some (Obs.timed obs "storage.spill_seconds" (fun () ->
            Seg_store.sync st facts))
      | None ->
        if Spill.should_spill policy facts then
          spill_store :=
            Some
              (Obs.timed obs "storage.spill_seconds" (fun () ->
                   Seg_store.spill
                     ~segment_rows:(Spill.segment_rows policy)
                     ~tail:false
                     ~dir:(Spill.fresh_dir policy ~prefix:"tpi")
                     facts)))
  in
  let fact_src () =
    Option.map
      (fun st -> Seg_store.source ~tail:(Storage.table pi) st)
      !spill_store
  in
  (* Deletions interact with semi-naive evaluation in exactly one place:
     the saved delta may still hold rows the constraint pass just removed
     from [TΠ], and joining against them would re-derive consequences of
     deleted facts.  Dropping those rows from the delta restores the
     semi-naive invariant (the delta is precisely the surviving facts the
     rest of [TΠ] has not yet been joined against), so a firing constraint
     hook no longer forces naive evaluation.  Banned keys vanish here too:
     a banned fact is deleted from storage, so its delta row dies with
     it. *)
  let filter_delta () =
    match !delta with
    | Some d ->
      delta :=
        Some
          (Table.filter d (fun r ->
               Storage.find pi ~r:(Table.get d r 1) ~x:(Table.get d r 2)
                 ~c1:(Table.get d r 3) ~y:(Table.get d r 4)
                 ~c2:(Table.get d r 5)
               <> None))
    | None -> ()
  in
  (* Constraints are applied once before inference starts (the paper's
     Section 6.1.1 protocol) and then after every iteration (Algorithm 1,
     line 6): an entity that already violates Ω must not seed the very
     first round of joins.  This pre-pass is trajectory point 0. *)
  if options.apply_constraints <> None then begin
    let violations, rm = constrain pi in
    if rm > 0 then filter_delta ();
    record_point ~iteration:0 ~new_facts:0 ~violations ~removed:rm
  end;
  (* Closure phase: Algorithm 1, lines 2-7. *)
  Obs.with_span obs "closure" ~cat:"grounding" (fun () ->
      while (not !converged) && !iterations < options.max_iterations do
        incr iterations;
        let iteration = !iterations in
        Obs.with_span obs
          (Printf.sprintf "iteration %d" iteration)
          ~cat:"grounding"
          (fun () ->
            let new_facts = ref 0 in
            (* Algorithm 1, lines 3-5: every Ti is computed against the same
               TΠ snapshot; the results are merged only after all partitions
               ran.  The snapshot isolation is what makes the per-partition
               queries (M1..M6) embarrassingly parallel — they only read TΠ
               and their own rule partition — so they run concurrently on
               the domain pool, and the merge below happens sequentially in
               pattern order. *)
            let pats = Array.of_list patterns in
            sync_spill ();
            (* One segmented source per iteration, shared read-only by
               the per-pattern workers (mmap'd segments are
               position-independent; each worker scans with its own
               batches). *)
            let src = fact_src () in
            (* The delta queries probe TΠ's partial-key indexes; their
               first build mutates the store, so it happens here, before
               the workers share it. *)
            if semi_naive && !delta <> None then
              Storage.build_partial_indexes pi;
            let results =
              Pool.map_reduce (Pool.get_default ()) ~n:(Array.length pats)
                ~map:(fun i ->
                  let pat = pats.(i) in
                  let sp = Obs.begin_span ~cat:"grounding" obs (pattern_name pat) in
                  let t0 = Stats.now () in
                  let raw =
                    match (semi_naive, !delta, src) with
                    | true, Some d, _ ->
                      Queries.ground_atoms_delta prepared pat pi ~delta:d
                    | _, _, Some src ->
                      Queries.ground_atoms_spilled prepared pat ~src
                    | _ -> Queries.ground_atoms prepared pat pi
                  in
                  let t =
                    if options.distinct_before_merge then
                      Ops.distinct raw all_atom_cols
                    else raw
                  in
                  Obs.end_span obs sp
                    ~attrs:
                      [
                        ("rows_raw", Obs.I (Table.nrows raw));
                        ("rows_out", Obs.I (Table.nrows t));
                        ("dedup", Obs.I (Table.nrows raw - Table.nrows t));
                      ];
                  (pat, t, Stats.now () -. t0))
                ~fold:(fun acc r -> r :: acc)
                ~init:[]
              |> List.rev
              |> List.map (fun (pat, t, seconds) ->
                     let label =
                       Printf.sprintf "Query 1-%d" (Pattern.index pat + 1)
                     in
                     Stats.record stats ~label ~seconds
                       ~rows_out:(Table.nrows t);
                     (pat, t))
            in
            let before_merge = Table.nrows (Storage.table pi) in
            (* Merging a pattern's results into TΠ is part of that
               pattern's work, so it lands in the same M-span path (the
               summary aggregates the query and merge instances). *)
            List.iter
              (fun (pat, atoms) ->
                Obs.with_span obs (pattern_name pat) ~cat:"grounding"
                  (fun () ->
                    Obs.timed obs "ground.merge_seconds" (fun () ->
                        new_facts := !new_facts + Storage.merge_new pi atoms)))
              results;
            if semi_naive then begin
              let facts = Storage.table pi in
              delta :=
                Some
                  (Table.sub facts
                     (Array.init
                        (Table.nrows facts - before_merge)
                        (fun i -> before_merge + i)))
            end;
            let violations, rm = constrain pi in
            if rm > 0 && semi_naive then filter_delta ();
            total_new := !total_new + !new_facts;
            Obs.add obs "ground.new_facts" !new_facts;
            Obs.incr obs "ground.iterations";
            Log.debug (fun m ->
                m "iteration %d: +%d facts (T_Pi now %d)" iteration !new_facts
                  (Storage.size pi));
            facts_per_iteration := Storage.size pi :: !facts_per_iteration;
            record_point ~iteration ~new_facts:!new_facts ~violations
              ~removed:rm;
            (match options.on_iteration with
            | Some f -> f ~iteration ~new_facts:!new_facts
            | None -> ());
            if !new_facts = 0 then converged := true)
      done);
  (* Factor phase: Algorithm 1, lines 8-10. *)
  let n_clause_factors = ref 0 in
  let n_singleton_factors = ref 0 in
  if options.build_factors then begin
    Obs.with_span obs "factors" ~cat:"grounding" (fun () ->
        sync_spill ();
        let src = fact_src () in
        List.iter
          (fun pat ->
            let label = Printf.sprintf "Query 2-%d" (Pattern.index pat + 1) in
            let produced =
              Obs.with_span obs (pattern_name pat) ~cat:"grounding" (fun () ->
                  Stats.time stats ~label ~rows:Fun.id (fun () ->
                      match src with
                      | Some src ->
                        Queries.ground_factors_spilled prepared pat pi ~src
                          graph
                      | None -> Queries.ground_factors prepared pat pi graph))
            in
            n_clause_factors := !n_clause_factors + produced)
          patterns;
        n_singleton_factors :=
          Obs.with_span obs "singletons" ~cat:"grounding" (fun () ->
              Stats.time stats ~label:"singletons" ~rows:Fun.id (fun () ->
                  Queries.singleton_factors pi graph)));
    Obs.add obs "ground.clause_factors" !n_clause_factors;
    Obs.add obs "ground.singleton_factors" !n_singleton_factors;
    Log.debug (fun m ->
        m "factors: %d clause + %d singleton" !n_clause_factors
          !n_singleton_factors)
  end;
  {
    graph;
    iterations = !iterations;
    converged = !converged;
    facts_per_iteration = List.rev !facts_per_iteration;
    trajectory = List.rev !trajectory;
    new_fact_count = !total_new;
    removed_by_constraints = !removed;
    n_singleton_factors = !n_singleton_factors;
    n_clause_factors = !n_clause_factors;
    stats;
  }

let closure ?(options = default_options) kb =
  run ~options:{ options with build_factors = false } kb

(* Query-driven local grounding (ROADMAP item 2): ground only the proof
   neighbourhood of one fact instead of the whole of [TΦ].  See {!Local}
   for the walk and budget semantics. *)
let local ?budget ?source kb ~query =
  let source =
    match source with
    | Some s -> s
    | None ->
      Local.of_kb (Queries.prepare (Kb.Gamma.partitions kb)) (Kb.Gamma.pi kb)
  in
  Local.run ?budget source ~query
