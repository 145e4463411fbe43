module Table = Relational.Table
module Index = Relational.Index
module Stats = Relational.Stats
module Clause = Mln.Clause
module Storage = Kb.Storage
module Fgraph = Factor_graph.Fgraph

(* Per-relation table layout: I=0 x=1 C1=2 y=3 C2=4, weighted.
   The key index covers (x, C1, y, C2). *)
let rel_cols = [| "I"; "x"; "C1"; "y"; "C2" |]
let rel_key = [| 1; 2; 3; 4 |]

type t = {
  tables : (int, Table.t) Hashtbl.t;
  indexes : (int, Index.t) Hashtbl.t;
  mutable next_id : int;
  mutable load_seconds : float;
}

let table_of db rel =
  match Hashtbl.find_opt db.tables rel with
  | Some t -> t
  | None ->
    let t = Table.create ~weighted:true ~name:(Printf.sprintf "rel_%d" rel) rel_cols in
    Hashtbl.replace db.tables rel t;
    Hashtbl.replace db.indexes rel (Index.build t rel_key);
    t

let index_of db rel =
  ignore (table_of db rel);
  Hashtbl.find db.indexes rel

(* Insert a fact unless present; return Some id when inserted. *)
let insert db rel ~x ~c1 ~y ~c2 ~w =
  let tbl = table_of db rel in
  let idx = index_of db rel in
  match Index.first_match idx [| x; c1; y; c2 |] with
  | Some _ -> None
  | None ->
    let id = db.next_id in
    db.next_id <- id + 1;
    Table.append_w tbl [| id; x; c1; y; c2 |] w;
    Index.add idx (Table.nrows tbl - 1);
    Some id

let lookup db rel ~x ~c1 ~y ~c2 =
  match Hashtbl.find_opt db.tables rel with
  | None -> None
  | Some tbl -> (
    match Index.first_match (Hashtbl.find db.indexes rel) [| x; c1; y; c2 |] with
    | Some row -> Some (Table.get tbl row 0)
    | None -> None)

let load kb =
  let t0 = Obs.now () in
  let db =
    { tables = Hashtbl.create 1024; indexes = Hashtbl.create 1024;
      next_id = 0; load_seconds = 0. }
  in
  Storage.iter
    (fun ~id ~r ~x ~c1 ~y ~c2 ~w ->
      let tbl = table_of db r in
      let idx = index_of db r in
      Table.append_w tbl [| id; x; c1; y; c2 |] w;
      Index.add idx (Table.nrows tbl - 1);
      db.next_id <- max db.next_id (id + 1))
    (Kb.Gamma.pi kb);
  db.load_seconds <- Obs.now () -. t0;
  db

let n_tables db = Hashtbl.length db.tables
let load_seconds_of db = db.load_seconds
let fact_count db = Hashtbl.fold (fun _ t acc -> acc + Table.nrows t) db.tables 0

let fact_keys db =
  Hashtbl.fold
    (fun rel tbl acc ->
      let out = ref acc in
      Table.iter
        (fun r ->
          out :=
            ( rel,
              Table.get tbl r 1,
              Table.get tbl r 2,
              Table.get tbl r 3,
              Table.get tbl r 4 )
            :: !out)
        tbl;
      !out)
    db.tables []

(* Variable plumbing for one rule. *)
let class_of_var (c : Clause.t) = function
  | Clause.X -> c.Clause.c1
  | Clause.Y -> c.Clause.c2
  | Clause.Z -> Option.get c.Clause.c3

(* A fact row matches atom [a] of clause [c] when its classes agree with
   the atom's variable classes. *)
let row_matches c (a : Clause.atom) tbl row =
  Table.get tbl row 2 = class_of_var c a.Clause.a
  && Table.get tbl row 4 = class_of_var c a.Clause.b

let value_of (a : Clause.atom) tbl row v =
  if a.Clause.a = v then Table.get tbl row 1
  else if a.Clause.b = v then Table.get tbl row 3
  else invalid_arg (Printf.sprintf "Tuffy: atom does not bind %s" (Clause.var_name v))

(* Apply one rule: compute the head bindings with the ids of the matched
   body facts, and feed each to [emit]. *)
let rule_matches db (c : Clause.t) emit =
  match c.Clause.body with
  | [ q ] -> (
    match Hashtbl.find_opt db.tables q.Clause.rel with
    | None -> ()
    | Some qt ->
      Table.iter
        (fun row ->
          if row_matches c q qt row then
            emit
              ~x:(value_of q qt row Clause.X)
              ~y:(value_of q qt row Clause.Y)
              ~i2:(Table.get qt row 0) ~i3:Fgraph.null)
        qt)
  | [ q; r ] -> (
    match (Hashtbl.find_opt db.tables q.Clause.rel, Hashtbl.find_opt db.tables r.Clause.rel) with
    | None, _ | _, None -> ()
    | Some qt, Some rt ->
      (* Per-rule hash join on z, built from scratch each query — the
         per-query cost Tuffy pays that batching amortizes. *)
      let by_z = Hashtbl.create 64 in
      Table.iter
        (fun row ->
          if row_matches c q qt row then begin
            let z = value_of q qt row Clause.Z in
            let x = value_of q qt row Clause.X in
            let i2 = Table.get qt row 0 in
            Hashtbl.replace by_z z
              ((x, i2) :: Option.value ~default:[] (Hashtbl.find_opt by_z z))
          end)
        qt;
      Table.iter
        (fun row ->
          if row_matches c r rt row then begin
            let z = value_of r rt row Clause.Z in
            match Hashtbl.find_opt by_z z with
            | None -> ()
            | Some xs ->
              let y = value_of r rt row Clause.Y in
              let i3 = Table.get rt row 0 in
              List.iter (fun (x, i2) -> emit ~x ~y ~i2 ~i3) xs
          end)
        rt)
  | _ -> invalid_arg "Tuffy: unsupported rule shape"

let apply_rule_atoms db (c : Clause.t) =
  let added = ref 0 in
  rule_matches db c (fun ~x ~y ~i2:_ ~i3:_ ->
      match
        insert db c.Clause.head_rel ~x ~c1:c.Clause.c1 ~y ~c2:c.Clause.c2
          ~w:Table.null_weight
      with
      | Some _ -> incr added
      | None -> ());
  !added

let apply_rule_factors db (c : Clause.t) g =
  let produced = ref 0 in
  rule_matches db c (fun ~x ~y ~i2 ~i3 ->
      match lookup db c.Clause.head_rel ~x ~c1:c.Clause.c1 ~y ~c2:c.Clause.c2 with
      | Some i1 ->
        Fgraph.add_clause g ~i1 ~i2
          ?i3:(if i3 = Fgraph.null then None else Some i3)
          ~w:c.Clause.weight ();
        incr produced
      | None -> ())
  |> ignore;
  !produced

type result = {
  db : t;
  iterations : int;
  converged : bool;
  new_fact_count : int;
  fact_count : int;
  graph : Fgraph.t;
  n_singleton_factors : int;
  n_clause_factors : int;
  load_seconds : float;
  stats : Stats.t;
}

let run ?(max_iterations = 15) ?(build_factors = true) ?on_iteration kb =
  let db = load kb in
  let rules = Kb.Gamma.rules kb in
  let stats = Stats.create () in
  let iterations = ref 0 in
  let converged = ref false in
  let total_new = ref 0 in
  while (not !converged) && !iterations < max_iterations do
    incr iterations;
    let new_facts = ref 0 in
    List.iter
      (fun c ->
        let added =
          Stats.time stats ~label:"rule query" ~rows:Fun.id (fun () ->
              apply_rule_atoms db c)
        in
        new_facts := !new_facts + added)
      rules;
    total_new := !total_new + !new_facts;
    (match on_iteration with
    | Some f -> f ~iteration:!iterations ~new_facts:!new_facts
    | None -> ());
    if !new_facts = 0 then converged := true
  done;
  let graph = Fgraph.create () in
  let n_clause_factors = ref 0 in
  let n_singleton_factors = ref 0 in
  if build_factors then begin
    List.iter
      (fun c ->
        n_clause_factors :=
          !n_clause_factors
          + Stats.time stats ~label:"factor query" ~rows:Fun.id (fun () ->
                apply_rule_factors db c graph))
      rules;
    Hashtbl.iter
      (fun _ tbl ->
        Table.iter
          (fun row ->
            let w = Table.weight tbl row in
            if not (Table.is_null_weight w) then begin
              Fgraph.add_singleton graph ~i:(Table.get tbl row 0) ~w;
              incr n_singleton_factors
            end)
          tbl)
      db.tables
  end;
  {
    db;
    iterations = !iterations;
    converged = !converged;
    new_fact_count = !total_new;
    fact_count = fact_count db;
    graph;
    n_singleton_factors = !n_singleton_factors;
    n_clause_factors = !n_clause_factors;
    load_seconds = db.load_seconds;
    stats;
  }
