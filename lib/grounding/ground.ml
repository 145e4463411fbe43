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
  trajectory : trajectory_point list;
  new_fact_count : int;
  removed_by_constraints : int;
  n_singleton_factors : int;
  n_clause_factors : int;
  stats : Stats.t;
}

type executor = {
  stage : string;
  cat : string;
  atoms :
    delta:Table.t option -> Pattern.t list -> (Pattern.t * Table.t * float) list;
  factors : unit -> Pattern.t -> Fgraph.t -> int;
  singletons : Fgraph.t -> int;
  point_data : unit -> (string * Obs.value) list;
}

let all_atom_cols = [| 0; 1; 2; 3; 4 |]
let pattern_name pat = Printf.sprintf "M%d" (Pattern.index pat + 1)

(* Algorithm 1, once for every route: the executor runs the joins, this
   loop owns everything between them. *)
let drive options exec kb =
  let obs = options.obs in
  let counter name = exec.stage ^ "." ^ name in
  let pi = Kb.Gamma.pi kb in
  let patterns =
    List.filter
      (fun pat -> Mln.Partition.count (Kb.Gamma.partitions kb) pat > 0)
      Pattern.all
  in
  let stats = Stats.create () in
  let graph = Fgraph.create () in
  let removed = ref 0 in
  let total_new = ref 0 in
  let trajectory = ref [] in
  let iterations = ref 0 in
  let converged = ref false in
  let semi_naive = options.semi_naive || options.initial_delta <> None in
  let delta = ref options.initial_delta in
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
  (* Returns this pass's (violations, facts removed). *)
  let constrain () =
    match options.apply_constraints with
    | Some f ->
      let nviol, n =
        Obs.timed obs (counter "constraints_seconds") (fun () -> f pi)
      in
      Obs.add obs (counter "constraint_removed") n;
      removed := !removed + n;
      if n > 0 then filter_delta ();
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
            let results = exec.atoms ~delta:!delta patterns in
            let before_merge = Table.nrows (Storage.table pi) in
            (* Merging a pattern's results into TΠ is part of that
               pattern's work, so it lands in the same M-span path (the
               summary aggregates the query and merge instances). *)
            let new_facts =
              List.fold_left
                (fun n (pat, atoms, seconds) ->
                  Stats.record stats
                    ~label:(Printf.sprintf "Query 1-%d" (Pattern.index pat + 1))
                    ~seconds ~rows_out:(Table.nrows atoms);
                  Obs.with_span obs (pattern_name pat) ~cat:exec.cat (fun () ->
                      Obs.timed obs (counter "merge_seconds") (fun () ->
                          n + Storage.merge_new pi atoms)))
                0 results
            in
            if semi_naive then begin
              let facts = Storage.table pi in
              delta :=
                Some
                  (Table.sub facts
                     (Array.init
                        (Table.nrows facts - before_merge)
                        (fun i -> before_merge + i)))
            end;
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
  (* Factor phase: Algorithm 1, lines 8-10. *)
  let n_clause_factors = ref 0 in
  let n_singleton_factors = ref 0 in
  if options.build_factors then begin
    Obs.with_span obs "factors" ~cat:exec.cat (fun () ->
        let query = exec.factors () in
        List.iter
          (fun pat ->
            let label = Printf.sprintf "Query 2-%d" (Pattern.index pat + 1) in
            n_clause_factors :=
              !n_clause_factors
              + Obs.with_span obs (pattern_name pat) ~cat:exec.cat (fun () ->
                    Stats.time stats ~label ~rows:Fun.id (fun () ->
                        query pat graph)))
          patterns;
        n_singleton_factors :=
          Obs.with_span obs "singletons" ~cat:exec.cat (fun () ->
              Stats.time stats ~label:"singletons" ~rows:Fun.id (fun () ->
                  exec.singletons graph)));
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
    stats;
  }

(* The local executor: the M1..M6 queries run concurrently on the domain
   pool — they only read TΠ and their own rule partition — probing the
   delta's partial-key indexes, a spilled segment store, or the resident
   table. *)
let local_executor options kb =
  let obs = options.obs in
  let pi = Kb.Gamma.pi kb in
  let prepared = Queries.prepare (Kb.Gamma.partitions kb) in
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
  (* One segmented source per phase step, shared read-only by the
     per-pattern workers (mmap'd segments are position-independent; each
     worker scans with its own batches). *)
  let fact_src () =
    sync_spill ();
    Option.map
      (fun st -> Seg_store.source ~tail:(Storage.table pi) st)
      !spill_store
  in
  let atoms ~delta patterns =
    let pats = Array.of_list patterns in
    let src = fact_src () in
    (* The delta queries probe TΠ's partial-key indexes; their first
       build mutates the store, so it happens here, before the workers
       share it. *)
    if delta <> None then Storage.build_partial_indexes pi;
    Pool.map_reduce (Pool.get_default ()) ~n:(Array.length pats)
      ~map:(fun i ->
        let pat = pats.(i) in
        let sp = Obs.begin_span ~cat:"grounding" obs (pattern_name pat) in
        let t0 = Obs.now () in
        let raw =
          match (delta, src) with
          | Some d, _ -> Queries.ground_atoms_delta prepared pat pi ~delta:d
          | None, Some src -> Queries.ground_atoms_spilled prepared pat ~src
          | None, None -> Queries.ground_atoms prepared pat pi
        in
        let t = Ops.distinct raw all_atom_cols in
        Obs.end_span obs sp
          ~attrs:
            [
              ("rows_raw", Obs.I (Table.nrows raw));
              ("rows_out", Obs.I (Table.nrows t));
              ("dedup", Obs.I (Table.nrows raw - Table.nrows t));
            ];
        (pat, t, Obs.now () -. t0))
      ~fold:(fun acc r -> r :: acc)
      ~init:[]
    |> List.rev
  in
  let factors () =
    match fact_src () with
    | Some src ->
      fun pat graph -> Queries.ground_factors_spilled prepared pat pi ~src graph
    | None -> fun pat graph -> Queries.ground_factors prepared pat pi graph
  in
  {
    stage = "ground";
    cat = "grounding";
    atoms;
    factors;
    singletons = Queries.singleton_factors pi;
    point_data = (fun () -> []);
  }

let run ?(options = default_options) kb =
  Obs.with_ambient options.obs @@ fun () ->
  drive options (local_executor options kb) kb

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
