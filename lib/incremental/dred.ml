module Table = Relational.Table
module Storage = Kb.Storage
module Gamma = Kb.Gamma
module Fgraph = Factor_graph.Fgraph
module Lineage = Factor_graph.Lineage
module Pattern = Mln.Pattern
module Queries = Grounding.Queries

type t = {
  kb : Gamma.t;
  graph : Fgraph.t;
  mutable synced : int;
      (* [Fgraph.bound graph] at the last [sync]: the rows past it are
         the ones appended since *)
  mutable lineage : Lineage.t option;
      (* over [graph] as of the last [sync]; [None] once rows were
         appended or moved, until the next read builds it again *)
  mutable prepared : Queries.prepared;
  mutable compactions : int;
  mutable dirty : (int, unit) Hashtbl.t;
      (* fact ids of the TΦ rows appended or killed since [take_dirty] *)
  obs : Obs.t;
}

let create ?(obs = Obs.null) kb graph =
  {
    kb;
    graph;
    synced = Fgraph.bound graph;
    lineage = None;
    prepared = Queries.prepare (Gamma.partitions kb);
    compactions = 0;
    dirty = Hashtbl.create 64;
    obs;
  }

let kb t = t.kb
let graph t = t.graph
let compactions t = t.compactions

(* Every TΦ row killed passes through here, by position, before any
   compaction can move it; appended rows reach it through [sync]. *)
let note_factor t f =
  let i1, i2, i3, _ = Fgraph.factor t.graph f in
  Hashtbl.replace t.dirty i1 ();
  if i2 <> Fgraph.null then Hashtbl.replace t.dirty i2 ();
  if i3 <> Fgraph.null then Hashtbl.replace t.dirty i3 ()

(* The rows past the watermark are the rows appended since the last
   sync — by a finished operation or by one that raised halfway.
   Noting them here is the only way an appended row reaches the dirty
   set, so none is missed; and since the lineage does not list them, it
   goes. *)
let sync t =
  let n = Fgraph.bound t.graph in
  if n <> t.synced then begin
    for f = t.synced to n - 1 do
      note_factor t f
    done;
    t.synced <- n;
    t.lineage <- None
  end

(* Kills need no rebuild: the lineage skips the positions the graph has
   killed when it is read. *)
let lineage t =
  sync t;
  match t.lineage with
  | Some l -> l
  | None ->
    let l = Lineage.build t.graph in
    t.lineage <- Some l;
    l

let take_dirty t =
  sync t;
  let d = t.dirty in
  t.dirty <- Hashtbl.create 64;
  d

let dirty_count t =
  sync t;
  Hashtbl.length t.dirty

let refresh_rules t = t.prepared <- Queries.prepare (Gamma.partitions t.kb)

type retract_stats = {
  requested : int;
  cone : int;
  overdeleted : int;
  rederived : int;
  demoted : int;
  factors_removed : int;
  empty_cone : bool;
  deleted_ids : int list;
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
  }

type ingest_stats = {
  inserted : int;
  promoted : int;
  derived : int;
  new_factors : int;
  closure_iterations : int;
  converged : bool;
}

let no_ingest =
  {
    inserted = 0;
    promoted = 0;
    derived = 0;
    new_factors = 0;
    closure_iterations = 0;
    converged = true;
  }

let active_patterns st =
  List.filter
    (fun pat -> Mln.Partition.count (Queries.partitions st.prepared) pat > 0)
    Pattern.all

(* Overdelete (DRed phase 1): the descendant cone of the seeds, walked
   breadth first through the lineage.  TΦ holds Query 2 over
   TΠ, so the live factors a fact supports are exactly the derivations
   that use it, and each names a head that loses one.  Only inferred
   facts (no singleton support) enter the cone; base facts found as
   heads keep their extraction support and stop the wave.  Returns the
   discovery order, seeds first. *)
let expand_cone st lin ~seeds ~in_cone =
  let order = ref (List.rev seeds) in
  let frontier = Queue.of_seq (List.to_seq seeds) in
  while not (Queue.is_empty frontier) do
    Lineage.iter_supports lin (Queue.pop frontier) (fun f ->
        let h, _, _, _ = Fgraph.factor st.graph f in
        if (not (Hashtbl.mem in_cone h)) && not (Lineage.is_base lin h)
        then begin
          Hashtbl.replace in_cone h ();
          order := h :: !order;
          Queue.add h frontier
        end)
  done;
  List.rev !order

(* Rederive (DRed phase 2): a worklist fixpoint over the lineage.
   A cone fact survives when some recorded derivation has its whole body
   alive (outside the cone, or already rederived); each rescue re-examines
   the cone facts it supports.  TΦ holds Query 2 over TΠ — {e every}
   derivation among the stored facts — so this pure index walk is
   complete: no queries needed. *)
let rederive st lin ~in_cone ~order ~banned =
  let rederived = Hashtbl.create 64 in
  let alive id =
    (not (Hashtbl.mem in_cone id)) || Hashtbl.mem rederived id
  in
  let exception Found in
  let supported id =
    try
      Lineage.iter_derivations lin id (fun f ->
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
      Lineage.iter_supports lin id (fun f ->
          let h, _, _, _ = Fgraph.factor st.graph f in
          if Hashtbl.mem in_cone h && not (Hashtbl.mem rederived h) then
            Queue.add h queue)
    end
  done;
  rederived

(* Retire (DRed phase 3): kill every factor that mentions a dead fact —
   found through the lineage, O(cone × degree), never a pass over TΦ —
   plus the singletons of demoted base facts.  No position moves, and
   the lineage skips what died from now on.  Returns the count. *)
let retire st lin ~dead ~demoted =
  let killed = ref 0 in
  let kill f =
    if Fgraph.kill st.graph f then begin
      note_factor st f;
      incr killed
    end
  in
  let kill_singleton id = Option.iter kill (Lineage.singleton_of lin id) in
  Hashtbl.iter
    (fun id () ->
      Lineage.iter_derivations lin id kill;
      Lineage.iter_supports lin id kill;
      kill_singleton id)
    dead;
  Hashtbl.iter (fun id () -> kill_singleton id) demoted;
  !killed

(* Dead rows are compacted away once they pass this fraction of a
   table's physical rows, decided for TΠ and TΦ separately.  A
   compaction costs O(rows) and removes at least a quarter of them, so
   its cost is paid back by the retractions that killed them — O(Δ)
   amortised per retract.  Compacting sooner buys little; later leaves
   more dead rows for every probe to skip and every publish to copy. *)
let compact_fraction = 0.25

let over_fraction ~dead ~rows =
  float_of_int dead > compact_fraction *. float_of_int rows

let compacted st f =
  Obs.with_span st.obs "compact" ~cat:"incremental" f;
  st.compactions <- st.compactions + 1;
  Obs.incr st.obs "incremental.compactions"

(* Compaction never moves a fact id, so only TΦ's invalidates the
   lineage. *)
let compact_facts st =
  let pi = Gamma.pi st.kb in
  if Storage.pending_deletes pi > 0 then
    compacted st (fun () -> ignore (Storage.flush_deletes pi))

let compact_factors st =
  if Fgraph.dead_rows st.graph > 0 then
    compacted st (fun () ->
        sync st;
        Fgraph.compact st.graph;
        st.synced <- Fgraph.bound st.graph;
        st.lineage <- None)

let compact st =
  Obs.with_ambient st.obs @@ fun () ->
  compact_facts st;
  compact_factors st

(* The compaction policy, run at the end of every retracting epoch. *)
let compact_if_due st =
  let pi = Gamma.pi st.kb in
  if
    over_fraction ~dead:(Storage.pending_deletes pi)
      ~rows:(Table.nrows (Storage.table pi))
  then compact_facts st;
  if
    over_fraction ~dead:(Fgraph.dead_rows st.graph)
      ~rows:(Fgraph.bound st.graph)
  then compact_factors st

(* The shared delete–rederive core.  [seeds] are the facts whose support
   just changed (already deduplicated, present in [TΠ]); [withdrawn] are
   the seeds losing their {e base} (singleton) support — explicitly
   retracted extractions; [ban] additionally bans the keys of the
   retracted facts that end up deleted and blocks their rederivation. *)
let run_dred st ~seeds ~withdrawn ~ban =
  let pi = Gamma.pi st.kb in
  let lin = lineage st in
  let in_cone = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace in_cone id ()) seeds;
  let empty_cone =
    not (List.exists (fun id -> Lineage.has_supports lin id) seeds)
  in
  let order =
    if empty_cone then begin
      (* None of the retracted facts supports any derivation: there is
         no cone to walk — rederive locally, retire. *)
      Obs.incr st.obs "incremental.empty_cone_fast_path";
      seeds
    end
    else
      Obs.with_span st.obs "overdelete" ~cat:"incremental" (fun () ->
          expand_cone st lin ~seeds ~in_cone)
  in
  let banned = Hashtbl.create 16 in
  if ban then List.iter (fun id -> Hashtbl.replace banned id ()) withdrawn;
  let rederived =
    Obs.with_span st.obs "rederive" ~cat:"incremental" (fun () ->
        rederive st lin ~in_cone ~order ~banned)
  in
  (* Survivors of the withdrawn set keep the fact but lose base status:
     the singleton factor goes, the weight becomes null (inferred). *)
  let demoted = Hashtbl.create 16 in
  List.iter
    (fun id ->
      if Hashtbl.mem rederived id && Lineage.is_base lin id then
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
  Obs.with_span st.obs "retire" ~cat:"incremental" (fun () ->
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
      let factors_removed = retire st lin ~dead ~demoted in
      List.iter (Storage.mark_deleted pi) deleted_ids;
      let stats =
        {
          requested = List.length seeds;
          cone = List.length order;
          overdeleted = List.length deleted_ids;
          rederived = Hashtbl.length rederived;
          demoted = Hashtbl.length demoted;
          factors_removed;
          empty_cone;
          deleted_ids;
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
  sync st;
  let pi = Gamma.pi st.kb in
  let requested =
    List.sort_uniq compare ids
    |> List.filter (fun id -> Storage.row_of_id pi id <> None)
  in
  if requested = [] then no_retract
  else begin
    let stats = run_dred st ~seeds:requested ~withdrawn:requested ~ban in
    compact_if_due st;
    stats
  end

(* A multiset of factor rows, (I1, I2, I3, w) to its count: the live
   rows of [g]. *)
let row_counts g =
  let counts = Hashtbl.create 64 in
  Fgraph.iter
    (fun _ row ->
      Hashtbl.replace counts row
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts row)))
    g;
  counts

(* [take counts row] removes one copy of [row] from the multiset, and
   says whether there was one. *)
let take counts row =
  match Hashtbl.find_opt counts row with
  | Some n when n > 0 ->
    Hashtbl.replace counts row (n - 1);
    true
  | Some _ | None -> false

(* Rule retraction: enumerate the ground instances of the removed rules
   over the current [TΠ] (the batch Query 2 with a single-partition rule
   set), retire exactly those factor rows (multiset subtraction —
   identical instances from identical surviving rules are not
   over-removed), then DRed from the orphaned heads under the remaining
   rule set. *)
let retract_rules st ~remove =
  Obs.with_ambient st.obs @@ fun () ->
  Obs.with_span st.obs "retract" ~cat:"incremental" @@ fun () ->
  sync st;
  let removed_rules, kept_rules = List.partition remove (Gamma.rules st.kb) in
  if removed_rules = [] then no_retract
  else begin
    (* Grounding the removed rules scans all of TΠ. *)
    compact_facts st;
    let pi = Gamma.pi st.kb in
    let tmp = Fgraph.create () in
    let rp = Queries.prepare (Mln.Partition.of_rules removed_rules) in
    List.iter
      (fun pat ->
        if Mln.Partition.count (Queries.partitions rp) pat > 0 then
          ignore (Queries.ground_factors rp pat pi tmp))
      Pattern.all;
    let want = row_counts tmp in
    let lin = lineage st in
    let doomed = ref [] in
    let seen_seed = Hashtbl.create 16 in
    let seeds = ref [] in
    Fgraph.iter
      (fun f ((i1, i2, i3, _w) as row) ->
        if (i2 <> Fgraph.null || i3 <> Fgraph.null) && take want row then begin
          doomed := f :: !doomed;
          if
            (not (Hashtbl.mem seen_seed i1))
            && not (Lineage.is_base lin i1)
          then begin
            Hashtbl.replace seen_seed i1 ();
            seeds := i1 :: !seeds
          end
        end)
      st.graph;
    Obs.with_span st.obs "retire" ~cat:"incremental" (fun () ->
        List.iter
          (fun f -> if Fgraph.kill st.graph f then note_factor st f)
          !doomed);
    let rule_factors_removed = List.length !doomed in
    (* The remaining rules take over before the cone is walked: every
       head of a removed instance is a seed already, and the removed
       instances are dead, so the lineage skips them and only the
       surviving rules' factors extend the cone. *)
    Gamma.set_rules st.kb kept_rules;
    refresh_rules st;
    let stats =
      match List.rev !seeds with
      | [] ->
        Obs.incr st.obs "incremental.empty_cone_fast_path";
        no_retract
      | seeds -> run_dred st ~seeds ~withdrawn:[] ~ban:false
    in
    compact_if_due st;
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
  (* Counting violations scans all of TΠ. *)
  compact_facts st;
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
  sync st;
  let pi = Gamma.pi st.kb in
  let watermark = Storage.next_id pi in
  let inserted = ref [] and promoted = ref [] in
  let promoted_now = Hashtbl.create 8 in
  let is_base id = Lineage.is_base (lineage st) id in
  List.iter
    (fun (r, x, c1, y, c2, w) ->
      if not (Storage.is_banned pi ~r ~x ~c1 ~y ~c2) then
        match Storage.find pi ~r ~x ~c1 ~y ~c2 with
        | None ->
          inserted := Gamma.add_fact st.kb ~r ~x ~c1 ~y ~c2 ~w :: !inserted
        | Some id ->
          (* An extraction arriving for an already-inferred fact promotes
             it to a base fact: it gains the extraction weight and a
             singleton factor; its consequences are already derived.  Any
             other copy of a base fact is a no-op (first weight wins, as
             in batch loading), and so is a copy of a key this batch
             already inserted ([id >= watermark]) or promoted, which the
             lineage lists as base only after the batch. *)
          if
            id < watermark
            && (not (is_base id))
            && (not (Hashtbl.mem promoted_now id))
            && not (Table.is_null_weight w)
          then begin
            (match Storage.row_of_id pi id with
            | Some row -> Table.set_weight (Storage.table pi) row w
            | None -> ());
            Hashtbl.replace promoted_now id ();
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
               delta_from = Some watermark;
               obs = st.obs;
             }
           st.kb)
  in
  (* Incremental factor maintenance: Query 2's rows over the grown TΠ
     with a body fact among this epoch's new facts (inserted or derived —
     exactly the rows with [id >= watermark], read in place), found by
     the delta query the closure itself runs, in Query 2's order; plus
     one singleton per new or promoted base fact. *)
  let new_factors = ref 0 in
  let t = Storage.table pi in
  Obs.with_span st.obs "factors" ~cat:"incremental" (fun () ->
      if inserted <> [] then
        List.iter
          (fun pat ->
            Obs.with_span st.obs (Pattern.to_string pat) ~cat:"incremental"
              (fun () ->
                new_factors :=
                  !new_factors
                  + Queries.resolve_heads
                      (Queries.derivations_delta st.prepared pat pi
                         ~from:watermark)
                      pi st.graph))
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
  sync st;
  let derived, iters, converged =
    match closure_result with
    | Some r ->
      ( r.Grounding.Ground.new_fact_count,
        r.Grounding.Ground.iterations,
        r.Grounding.Ground.converged )
    | None -> (0, 0, true)
  in
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
  }

(* Rule addition / re-expansion.  New rules can fire on pairs of {e old}
   facts, so the epoch runs the batch grounding over the whole store:
   its first iteration joins all of [TΠ], and its graph is Query 2 over
   the final [TΠ] plus the singletons — what a rebuild would hold.  The
   rows the live [TΦ] lacks are appended, in that graph's order: the new
   rules' instances, the derivations that use a new fact, and whatever
   an earlier capped closure or a fact stored behind the session's back
   left out. *)
let extend_rules ?(max_iterations = 15) st rules =
  Obs.with_ambient st.obs @@ fun () ->
  Obs.with_span st.obs "reexpand" ~cat:"incremental" @@ fun () ->
  sync st;
  (* The grounding's first iteration scans all of TΠ. *)
  compact_facts st;
  List.iter (Gamma.add_rule st.kb) rules;
  refresh_rules st;
  let result =
    Grounding.Ground.run
      ~options:
        {
          Grounding.Ground.default_options with
          max_iterations;
          obs = st.obs;
        }
      st.kb
  in
  let new_factors = ref 0 in
  Obs.with_span st.obs "append" ~cat:"incremental" (fun () ->
      let live = row_counts st.graph in
      Fgraph.iter
        (fun _ ((i1, i2, i3, w) as row) ->
          if not (take live row) then begin
            Fgraph.add_clause st.graph ~i1 ~i2 ~i3 ~w ();
            incr new_factors
          end)
        result.Grounding.Ground.graph);
  sync st;
  {
    inserted = 0;
    promoted = 0;
    derived = result.Grounding.Ground.new_fact_count;
    new_factors = !new_factors;
    closure_iterations = result.Grounding.Ground.iterations;
    converged = result.Grounding.Ground.converged;
  }

let reexpand ?max_iterations st = extend_rules ?max_iterations st []
