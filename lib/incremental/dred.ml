module Table = Relational.Table
module Storage = Kb.Storage
module Gamma = Kb.Gamma
module Fgraph = Factor_graph.Fgraph
module Pattern = Mln.Pattern
module Queries = Grounding.Queries

type t = {
  kb : Gamma.t;
  graph : Fgraph.t;
  prov : Provenance.t;
  mutable prepared : Queries.prepared;
  obs : Obs.t;
}

let create ?(obs = Obs.null) kb graph =
  {
    kb;
    graph;
    prov = Provenance.of_graph graph;
    prepared = Queries.prepare (Gamma.partitions kb);
    obs;
  }

let kb t = t.kb
let graph t = t.graph
let provenance t = t.prov

let refresh_rules t = t.prepared <- Queries.prepare (Gamma.partitions t.kb)

(* The provenance index as a local-grounding source: the fact↔factor
   adjacency is already maintained across epochs, so a point query walks
   it directly instead of re-deriving the neighbourhood from the rule
   tables. *)
let local_adjacency t =
  Provenance.sync t.prov t.graph;
  {
    Grounding.Local.iter_derivations = Provenance.iter_derivations t.prov;
    iter_supports = Provenance.iter_supports t.prov;
    singleton_of = Provenance.singleton_of t.prov;
    factor_of = Fgraph.factor t.graph;
  }

type retract_stats = {
  requested : int;
  cone : int;
  overdeleted : int;
  rederived : int;
  demoted : int;
  factors_removed : int;
  empty_cone : bool;
  deleted_ids : int list;
  touched_ids : int list;
}

let no_retract =
  {
    requested = 0;
    cone = 0;
    overdeleted = 0;
    rederived = 0;
    demoted = 0;
    factors_removed = 0;
    empty_cone = true;
    deleted_ids = [];
    touched_ids = [];
  }

type ingest_stats = {
  inserted : int;
  promoted : int;
  derived : int;
  new_factors : int;
  closure_iterations : int;
  converged : bool;
  new_ids : int list;
}

let no_ingest =
  {
    inserted = 0;
    promoted = 0;
    derived = 0;
    new_factors = 0;
    closure_iterations = 0;
    converged = true;
    new_ids = [];
  }

let active_patterns st =
  List.filter
    (fun pat -> Mln.Partition.count (Queries.partitions st.prepared) pat > 0)
    Pattern.all

let tpi_cols = [| "I"; "R"; "x"; "C1"; "y"; "C2" |]

(* The facts newer than [watermark] ([id >= watermark]) are a contiguous
   suffix of [TΠ]: ids are assigned in insertion order and ascend along
   the rows.  [new_rows t watermark] is the first row of that suffix,
   found by walking back from the end — O(new facts). *)
let new_rows t watermark =
  let start = ref (Table.nrows t) in
  while !start > 0 && Table.get t (!start - 1) 0 >= watermark do
    decr start
  done;
  !start

let suffix t start =
  Table.sub t (Array.init (Table.nrows t - start) (( + ) start))

let suffix_ids t start =
  List.init (Table.nrows t - start) (fun i -> Table.get t (start + i) 0)

(* The frontier of one overdelete wave as a delta table with the [TΠ]
   schema (the facts are still physically present — deleted facts must
   stay joinable while their consequence cone is computed). *)
let delta_of_ids pi ids =
  let t = Storage.table pi in
  let d = Table.create ~weighted:true ~name:"delta_retract" tpi_cols in
  List.iter
    (fun id ->
      match Storage.row_of_id pi id with
      | Some row -> Table.append_from d t row
      | None -> ())
    ids;
  d

(* Overdelete (DRed phase 1): the descendant cone of the seeds, computed
   semi-naively with the M1..M6 partition queries — each wave joins the
   current frontier as the delta, exactly like [initial_delta] does for
   inserts.  Only inferred facts (no singleton support) enter the cone;
   base facts found as heads keep their extraction support and stop the
   wave.  Returns the membership set and the discovery order. *)
let expand_cone st pi ~seeds ~in_cone =
  let order = ref (List.rev seeds) in
  let frontier = ref seeds in
  let patterns = active_patterns st in
  while !frontier <> [] do
    let delta = delta_of_ids pi !frontier in
    let next = ref [] in
    List.iter
      (fun pat ->
        Obs.with_span st.obs (Pattern.to_string pat) ~cat:"incremental"
          (fun () ->
            let atoms = Queries.ground_atoms_delta st.prepared pat pi ~delta in
            for row = 0 to Table.nrows atoms - 1 do
              match
                Storage.find pi ~r:(Table.get atoms row 0)
                  ~x:(Table.get atoms row 1) ~c1:(Table.get atoms row 2)
                  ~y:(Table.get atoms row 3) ~c2:(Table.get atoms row 4)
              with
              | Some id
                when (not (Hashtbl.mem in_cone id))
                     && not (Provenance.is_base st.prov id) ->
                Hashtbl.replace in_cone id ();
                order := id :: !order;
                next := id :: !next
              | Some _ | None -> ()
            done))
      patterns;
    frontier := List.rev !next
  done;
  List.rev !order

(* Rederive (DRed phase 2): a worklist fixpoint over the provenance index.
   A cone fact survives when some recorded derivation has its whole body
   alive (outside the cone, or already rederived); each rescue re-examines
   the cone facts it supports.  On a converged closure the factor graph
   records {e every} derivation among the stored facts (Query 2 enumerates
   them all), so this pure index walk is complete — no queries needed. *)
let rederive st ~in_cone ~order ~banned =
  let rederived = Hashtbl.create 64 in
  let alive id =
    (not (Hashtbl.mem in_cone id)) || Hashtbl.mem rederived id
  in
  let exception Found in
  let supported id =
    try
      Provenance.iter_derivations st.prov id (fun f ->
          let _, i2, i3, _ = Fgraph.factor st.graph f in
          if (i2 = Fgraph.null || alive i2) && (i3 = Fgraph.null || alive i3)
          then raise_notrace Found);
      false
    with Found -> true
  in
  let queue = Queue.create () in
  List.iter (fun id -> Queue.add id queue) order;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    if
      Hashtbl.mem in_cone id
      && (not (Hashtbl.mem rederived id))
      && (not (Hashtbl.mem banned id))
      && supported id
    then begin
      Hashtbl.replace rederived id ();
      (* A rescued fact may complete the last missing body atom of a
         derivation of another cone fact. *)
      Provenance.iter_supports st.prov id (fun f ->
          let h, _, _, _ = Fgraph.factor st.graph f in
          if Hashtbl.mem in_cone h && not (Hashtbl.mem rederived h) then
            Queue.add h queue)
    end
  done;
  rederived

(* Splice (DRed phase 3): drop every factor that mentions a dead fact,
   plus the singletons of demoted base facts; remap the provenance index
   through the surviving positions. *)
let splice st ~dead ~demoted =
  let keep = Array.make (Fgraph.size st.graph) true in
  Fgraph.iter
    (fun f (i1, i2, i3, _w) ->
      if i2 = Fgraph.null && i3 = Fgraph.null then begin
        if Hashtbl.mem dead i1 || Hashtbl.mem demoted i1 then keep.(f) <- false
      end
      else if
        Hashtbl.mem dead i1
        || (i2 <> Fgraph.null && Hashtbl.mem dead i2)
        || (i3 <> Fgraph.null && Hashtbl.mem dead i3)
      then keep.(f) <- false)
    st.graph;
  let removed, remap = Fgraph.retain st.graph ~keep in
  Provenance.remap st.prov remap;
  removed

(* The shared delete–rederive core.  [seeds] are the facts whose support
   just changed (already deduplicated, present in [TΠ]); [withdrawn] are
   the seeds losing their {e base} (singleton) support — explicitly
   retracted extractions; [ban] additionally bans the keys of the
   retracted facts that end up deleted and blocks their rederivation. *)
let run_dred st ~seeds ~withdrawn ~ban =
  let pi = Gamma.pi st.kb in
  let in_cone = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace in_cone id ()) seeds;
  let empty_cone =
    not (List.exists (fun id -> Provenance.has_supports st.prov id) seeds)
  in
  let order =
    if empty_cone then begin
      (* None of the retracted facts supports any derivation: skip the
         M-query machinery entirely — delete, rederive locally, splice. *)
      Obs.incr st.obs "incremental.empty_cone_fast_path";
      seeds
    end
    else
      Obs.with_span st.obs "overdelete" ~cat:"incremental" (fun () ->
          expand_cone st pi ~seeds ~in_cone)
  in
  let banned = Hashtbl.create 16 in
  if ban then List.iter (fun id -> Hashtbl.replace banned id ()) withdrawn;
  let rederived =
    Obs.with_span st.obs "rederive" ~cat:"incremental" (fun () ->
        rederive st ~in_cone ~order ~banned)
  in
  (* Survivors of the withdrawn set keep the fact but lose base status:
     the singleton factor goes, the weight becomes null (inferred). *)
  let demoted = Hashtbl.create 16 in
  List.iter
    (fun id ->
      if Hashtbl.mem rederived id && Provenance.is_base st.prov id then
        Hashtbl.replace demoted id ())
    withdrawn;
  let dead = Hashtbl.create 64 in
  let deleted_ids =
    List.filter
      (fun id ->
        if Hashtbl.mem rederived id then false
        else begin
          Hashtbl.replace dead id ();
          true
        end)
      order
  in
  Obs.with_span st.obs "splice" ~cat:"incremental" (fun () ->
      (* Ban only the explicitly retracted keys — the overdeleted cone
         remains legitimately re-derivable should new support arrive. *)
      if ban then
        List.iter
          (fun id -> if Hashtbl.mem dead id then Storage.ban_id pi id)
          withdrawn;
      let tbl = Storage.table pi in
      Hashtbl.iter
        (fun id () ->
          match Storage.row_of_id pi id with
          | Some row -> Table.set_weight tbl row Table.null_weight
          | None -> ())
        demoted;
      let overdeleted = Storage.delete_ids pi deleted_ids in
      let factors_removed = splice st ~dead ~demoted in
      let stats =
        {
          requested = List.length seeds;
          cone = List.length order;
          overdeleted;
          rederived = Hashtbl.length rederived;
          demoted = Hashtbl.length demoted;
          factors_removed;
          empty_cone;
          deleted_ids;
          touched_ids = order;
        }
      in
      Obs.add st.obs "incremental.cone" stats.cone;
      Obs.add st.obs "incremental.overdeleted" stats.overdeleted;
      Obs.add st.obs "incremental.rederived" stats.rederived;
      Obs.add st.obs "incremental.factors_removed" stats.factors_removed;
      stats)

let retract ?(ban = false) st ids =
  Obs.with_ambient st.obs @@ fun () ->
  Obs.with_span st.obs "retract" ~cat:"incremental" @@ fun () ->
  Provenance.sync st.prov st.graph;
  let pi = Gamma.pi st.kb in
  let requested =
    List.sort_uniq compare ids
    |> List.filter (fun id -> Storage.row_of_id pi id <> None)
  in
  if requested = [] then no_retract
  else run_dred st ~seeds:requested ~withdrawn:requested ~ban

(* Rule retraction: enumerate the ground instances of the removed rules
   over the current [TΠ] (the batch Query 2 with a single-partition rule
   set), remove exactly those factor rows from the graph (multiset
   subtraction — identical instances from identical surviving rules are
   not over-removed), then DRed from the orphaned heads under the
   remaining rule set. *)
let retract_rules st ~remove =
  Obs.with_ambient st.obs @@ fun () ->
  Obs.with_span st.obs "retract" ~cat:"incremental" @@ fun () ->
  Provenance.sync st.prov st.graph;
  let removed_rules, kept_rules = List.partition remove (Gamma.rules st.kb) in
  if removed_rules = [] then no_retract
  else begin
    let pi = Gamma.pi st.kb in
    let tmp = Fgraph.create () in
    let rp = Queries.prepare (Mln.Partition.of_rules removed_rules) in
    List.iter
      (fun pat ->
        if Mln.Partition.count (Queries.partitions rp) pat > 0 then
          ignore (Queries.ground_factors rp pat pi tmp))
      Pattern.all;
    let want = Hashtbl.create 64 in
    Fgraph.iter
      (fun _ row ->
        Hashtbl.replace want row
          (1 + Option.value ~default:0 (Hashtbl.find_opt want row)))
      tmp;
    let keep = Array.make (Fgraph.size st.graph) true in
    let seen_seed = Hashtbl.create 16 in
    let seeds = ref [] in
    Fgraph.iter
      (fun f ((i1, i2, i3, _w) as row) ->
        if i2 <> Fgraph.null || i3 <> Fgraph.null then
          match Hashtbl.find_opt want row with
          | Some n when n > 0 ->
            Hashtbl.replace want row (n - 1);
            keep.(f) <- false;
            if
              (not (Hashtbl.mem seen_seed i1))
              && not (Provenance.is_base st.prov i1)
            then begin
              Hashtbl.replace seen_seed i1 ();
              seeds := i1 :: !seeds
            end
          | _ -> ())
      st.graph;
    let rule_factors_removed, remap =
      Obs.with_span st.obs "splice" ~cat:"incremental" (fun () ->
          Fgraph.retain st.graph ~keep)
    in
    Provenance.remap st.prov remap;
    (* The remaining rules take over before the cone is explored: every
       head of a removed instance is a seed already, so descendants via
       the removed rules need no queries — only the surviving rules can
       extend the cone. *)
    Gamma.set_rules st.kb kept_rules;
    refresh_rules st;
    let stats =
      match List.rev !seeds with
      | [] ->
        Obs.incr st.obs "incremental.empty_cone_fast_path";
        no_retract
      | seeds -> run_dred st ~seeds ~withdrawn:[] ~ban:false
    in
    Obs.add st.obs "incremental.factors_removed" rule_factors_removed;
    { stats with factors_removed = stats.factors_removed + rule_factors_removed }
  end

(* Constraint enforcement as a retraction delta (paper, Section 5.1 —
   errors are removed "to avoid further propagation"): the violating
   groups are retracted through DRed with their keys banned, so their
   already-derived consequences leave [TΠ] {e and} [TΦ] — instead of the
   in-closure hook's delete-and-re-close. *)
let enforce_constraints st =
  Obs.with_ambient st.obs @@ fun () ->
  let pi = Gamma.pi st.kb in
  let omega = Gamma.omega st.kb in
  let vs = Quality.Semantic.violations pi omega in
  if vs = [] then (0, no_retract)
  else begin
    let bad_subject = Hashtbl.create 64 and bad_object = Hashtbl.create 64 in
    List.iter
      (fun (v : Quality.Semantic.violation) ->
        let tbl =
          match v.Quality.Semantic.ftype with
          | Kb.Funcon.Type_I -> bad_subject
          | Kb.Funcon.Type_II -> bad_object
        in
        Hashtbl.replace tbl (v.Quality.Semantic.entity, v.Quality.Semantic.cls) ())
      vs;
    let t = Storage.table pi in
    let doomed = ref [] in
    Table.iter
      (fun row ->
        if
          Hashtbl.mem bad_subject (Table.get t row 2, Table.get t row 3)
          || Hashtbl.mem bad_object (Table.get t row 4, Table.get t row 5)
        then doomed := Table.get t row 0 :: !doomed)
      t;
    (List.length vs, retract ~ban:true st (List.rev !doomed))
  end

(* --- insert epochs: closure + incremental factor maintenance --------- *)

let ingest ?(max_iterations = 15) st facts =
  Obs.with_ambient st.obs @@ fun () ->
  Obs.with_span st.obs "ingest" ~cat:"incremental" @@ fun () ->
  Provenance.sync st.prov st.graph;
  let pi = Gamma.pi st.kb in
  let watermark = Storage.next_id pi in
  let delta = Table.create ~weighted:true ~name:"delta" tpi_cols in
  let inserted = ref [] and promoted = ref [] in
  List.iter
    (fun (r, x, c1, y, c2, w) ->
      if not (Storage.is_banned pi ~r ~x ~c1 ~y ~c2) then
        match Storage.find pi ~r ~x ~c1 ~y ~c2 with
        | None ->
          let id = Gamma.add_fact st.kb ~r ~x ~c1 ~y ~c2 ~w in
          Table.append_w delta [| id; r; x; c1; y; c2 |] w;
          inserted := id :: !inserted
        | Some id ->
          (* An extraction arriving for an already-inferred fact promotes
             it to a base fact: it gains the extraction weight and a
             singleton factor; its consequences are already derived.  A
             second extraction of an existing base fact is a no-op (first
             weight wins, as in batch loading). *)
          if
            (not (Provenance.is_base st.prov id))
            && not (Table.is_null_weight w)
          then begin
            (match Storage.row_of_id pi id with
            | Some row -> Table.set_weight (Storage.table pi) row w
            | None -> ());
            promoted := id :: !promoted
          end)
    facts;
  let inserted = List.rev !inserted and promoted = List.rev !promoted in
  let closure_result =
    if inserted = [] then None
    else
      Some
        (Grounding.Ground.closure
           ~options:
             {
               Grounding.Ground.default_options with
               max_iterations;
               initial_delta = Some delta;
               obs = st.obs;
             }
           st.kb)
  in
  (* Incremental factor maintenance: every ground-clause instance with at
     least one atom among this epoch's new facts (inserted or derived —
     exactly the rows with [id >= watermark], a contiguous suffix of the
     table since ids are assigned in insertion order), plus one singleton
     per new or promoted base fact. *)
  let new_factors = ref 0 in
  let t = Storage.table pi in
  let start = new_rows t watermark in
  Obs.with_span st.obs "factors" ~cat:"incremental" (fun () ->
      let fdelta = suffix t start in
      if Table.nrows fdelta > 0 then
        List.iter
          (fun pat ->
            Obs.with_span st.obs (Pattern.to_string pat) ~cat:"incremental"
              (fun () ->
                new_factors :=
                  !new_factors
                  + Queries.ground_factors_delta st.prepared pat pi
                      ~delta:fdelta ~watermark st.graph))
          (active_patterns st);
      List.iter
        (fun id ->
          match Storage.row_of_id pi id with
          | Some row ->
            let w = Table.weight t row in
            if not (Table.is_null_weight w) then begin
              Fgraph.add_singleton st.graph ~i:id ~w;
              incr new_factors
            end
          | None -> ())
        (inserted @ promoted));
  Provenance.sync st.prov st.graph;
  let derived, iters, converged =
    match closure_result with
    | Some r ->
      ( r.Grounding.Ground.new_fact_count,
        r.Grounding.Ground.iterations,
        r.Grounding.Ground.converged )
    | None -> (0, 0, true)
  in
  let new_ids = promoted @ suffix_ids t start in
  Obs.add st.obs "incremental.inserted" (List.length inserted);
  Obs.add st.obs "incremental.promoted" (List.length promoted);
  Obs.add st.obs "incremental.derived" derived;
  Obs.add st.obs "incremental.new_factors" !new_factors;
  {
    inserted = List.length inserted;
    promoted = List.length promoted;
    derived;
    new_factors = !new_factors;
    closure_iterations = iters;
    converged;
    new_ids;
  }

(* Rule addition / re-expansion.  New rules can fire on pairs of {e old}
   facts, so the closure runs naively; the factor extension splits into
   (a) a batch pass with just the new rules over the whole of [TΠ] and
   (b) the delta factor queries with the {e previous} rule set over the
   facts the closure added — together exactly the new instances, counted
   once. *)
let extend_rules ?(max_iterations = 15) st rules =
  Obs.with_ambient st.obs @@ fun () ->
  Obs.with_span st.obs "reexpand" ~cat:"incremental" @@ fun () ->
  Provenance.sync st.prov st.graph;
  let pi = Gamma.pi st.kb in
  let watermark = Storage.next_id pi in
  let prepared_old = st.prepared in
  let old_patterns = active_patterns st in
  List.iter (Gamma.add_rule st.kb) rules;
  refresh_rules st;
  let result =
    Grounding.Ground.closure
      ~options:
        {
          Grounding.Ground.default_options with
          max_iterations;
          obs = st.obs;
        }
      st.kb
  in
  let new_factors = ref 0 in
  let t = Storage.table pi in
  let start = new_rows t watermark in
  Obs.with_span st.obs "factors" ~cat:"incremental" (fun () ->
      (if rules <> [] then
         let rp = Queries.prepare (Mln.Partition.of_rules rules) in
         List.iter
           (fun pat ->
             if Mln.Partition.count (Queries.partitions rp) pat > 0 then
               new_factors :=
                 !new_factors + Queries.ground_factors rp pat pi st.graph)
           Pattern.all);
      let fdelta = suffix t start in
      if Table.nrows fdelta > 0 then
        List.iter
          (fun pat ->
            new_factors :=
              !new_factors
              + Queries.ground_factors_delta prepared_old pat pi ~delta:fdelta
                  ~watermark st.graph)
          old_patterns);
  Provenance.sync st.prov st.graph;
  let new_ids = suffix_ids t start in
  {
    inserted = 0;
    promoted = 0;
    derived = result.Grounding.Ground.new_fact_count;
    new_factors = !new_factors;
    closure_iterations = result.Grounding.Ground.iterations;
    converged = result.Grounding.Ground.converged;
    new_ids;
  }

let reexpand ?max_iterations st = extend_rules ?max_iterations st []
