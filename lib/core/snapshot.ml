module Storage = Kb.Storage
module Table = Relational.Table
module Fgraph = Factor_graph.Fgraph
module Lineage = Factor_graph.Lineage
module Local = Grounding.Local

type view = {
  id : int;
  base : bool;
  weight : float;
  marginal : float option;
}

type answer = {
  id : int;
  marginal : float;
  epoch : int;
  interior : int;
  boundary : int;
  hops : int;
  factors : int;
  pruned_mass : float;
  truncated : bool;
  enumerated : bool;
  ground_seconds : float;
  infer_seconds : float;
}

type stats = {
  epoch : int;
  facts : int;
  factors : int;
  marginals_cached : int;
  frozen : bool;
}

type t = {
  epoch : int;
  pi : Storage.t;  (* copy of TΠ *)
  phi : Fgraph.t;  (* copy of TΦ *)
  adj : Local.adjacency;  (* over [phi]'s live factors *)
  cached : bool array;  (* by fact id: a marginal is cached *)
  marg : float array;  (* by fact id: the cached marginal *)
  n_marginals : int;
  solver : Inference.Hybrid.options;  (* neighbourhood dispatch *)
  trace : Obs.t;
  fingerprint : int option;
      (* under [Obs.debug], a hash of [phi] taken at freeze time: a
         re-hash that differs is proof a writer tore through state the
         snapshot references; [None] otherwise, since only that check
         reads it *)
}

let sigmoid w = 1. /. (1. +. exp (-.w))

(* ------------------------------------------------------------------ *)
(* Construction *)

(* FNV-1a over the live rows of the copied factor table: cheap,
   deterministic, and any in-place mutation of a row the snapshot
   references — or of its dead-row mask — moves it. *)
let fingerprint_of phi =
  let t = Fgraph.table ~g:phi in
  let h = ref 0x3f29ce484222325 in
  let mix v =
    h := (!h lxor v) * 0x100000001b3
  in
  mix (Fgraph.size phi);
  for f = 0 to Fgraph.bound phi - 1 do
    if Fgraph.live phi f then begin
      mix (Table.get t f 0);
      mix (Table.get t f 1);
      mix (Table.get t f 2);
      mix (Int64.to_int (Int64.bits_of_float (Table.weight t f)))
    end
  done;
  !h land max_int

let has_any iter id =
  match iter id (fun _ -> raise_notrace Exit) with
  | () -> false
  | exception Exit -> true

let freeze ?(epoch = 0) ?marginals
    ?(solver = Inference.Hybrid.default_options) ?(obs = Obs.null) ~pi
    ~lineage () =
  (* Copies of the two tables' arrays and dead-row masks — TΠ with its
     key index blitted, not rehashed, and TΦ — so the snapshot aliases
     nothing a later epoch mutates ([Storage] appends, tombstones and
     compacts; [Fgraph] appends, retires and compacts).  The lineage's
     CSR never changes once built, so it is shared, read through the TΦ
     copy.  Reads then call the same functions the live state answers
     with: [Storage.find] and [Storage.row_of_id] on the TΠ copy, the
     lineage through the TΦ copy — each of which skips dead rows. *)
  let pi = Storage.copy pi in
  let phi = Fgraph.copy (Lineage.graph lineage) in
  let adj = Local.adjacency_of_lineage (Lineage.through lineage phi) in
  (* Cached marginals, dense by fact id; presence is kept apart from the
     value.  Sized by [next_id], which grows with churn: ids are never
     reused. *)
  let m = match marginals with Some m -> m | None -> Hashtbl.create 1 in
  let nids =
    Hashtbl.fold (fun id _ n -> Int.max n (id + 1)) m (Storage.next_id pi)
  in
  let cached = Array.make nids false and marg = Array.make nids 0. in
  (* [Hashtbl.iter] passes a key's newest binding first — the one
     [Hashtbl.find] answers. *)
  Hashtbl.iter
    (fun id p ->
      if not cached.(id) then begin
        cached.(id) <- true;
        marg.(id) <- p
      end)
    m;
  {
    epoch;
    pi;
    phi;
    adj;
    cached;
    marg;
    n_marginals = Hashtbl.length m;
    solver;
    trace = obs;
    fingerprint = (if Obs.debug then Some (fingerprint_of phi) else None);
  }

(* ------------------------------------------------------------------ *)
(* Reads *)

let epoch t = t.epoch

let stats t =
  {
    epoch = t.epoch;
    (* Storage keeps the live count: O(1) however many rows are dead. *)
    facts = Storage.size t.pi;
    factors = Fgraph.size t.phi;
    marginals_cached = t.n_marginals;
    frozen = true;
  }

let find t ~r ~x ~c1 ~y ~c2 = Storage.find t.pi ~r ~x ~c1 ~y ~c2

let marginal t id =
  if id >= 0 && id < Array.length t.cached && t.cached.(id) then
    Some t.marg.(id)
  else None

(* A boundary fact's clamp: its cached marginal, else its extraction
   prior, else uninformative. *)
let clamp t id =
  match marginal t id with
  | Some p -> p
  | None -> (
    match t.adj.Local.singleton_of id with
    | Some f ->
      let _, _, _, w = Fgraph.factor t.phi f in
      sigmoid w
    | None -> 0.5)

let view t id =
  let base = Option.is_some (t.adj.Local.singleton_of id) in
  (* The live row's weight column: a base fact's extraction weight, or
     the marginal [Engine.store_marginals] wrote into an inferred
     fact's. *)
  let stored =
    match Storage.row_of_id t.pi id with
    | Some row ->
      let w = Table.weight (Storage.table t.pi) row in
      if Table.is_null_weight w then None else Some w
    | None -> None
  in
  if
    base || Option.is_some stored
    || has_any t.adj.Local.iter_derivations id
    || has_any t.adj.Local.iter_supports id
  then
    Some
      {
        id;
        base;
        weight =
          (match stored with
          | Some w when base -> w
          | Some _ | None -> Table.null_weight);
        marginal =
          (match marginal t id with
          | Some _ as m -> m
          | None -> if base then None else stored);
      }
  else None

let verify_integrity t =
  match t.fingerprint with None -> true | Some h -> fingerprint_of t.phi = h

(* ------------------------------------------------------------------ *)
(* The solve path: local grounding walk → boundary clamp → compile →
   exact-or-sampled inference, under one "query_local" span whose end
   attributes carry the frontier/pruning/latency breakdown.  Every point
   query — the server's, a session's and [probkb query --local] — runs
   here. *)

let answer_by_id ?budget t id =
  if not (verify_integrity t) then
    invalid_arg
      "Snapshot.query_local: torn read — frozen state mutated under the \
       snapshot";
  let sp = Obs.begin_span ~cat:"engine" t.trace "query_local" in
  match
    let t0 = Obs.now () in
    let r = Local.run ?budget t.adj ~query:id in
    let ground_seconds = Obs.now () -. t0 in
    Inference.Neighborhood.clamp_boundary r.Local.graph
      ~boundary:r.Local.boundary ~prob:(clamp t);
    let t1 = Obs.now () in
    let c = Fgraph.compile r.Local.graph in
    let marg, method_used =
      Inference.Neighborhood.solve ~obs:t.trace ~options:t.solver c
    in
    let infer_seconds = Obs.now () -. t1 in
    let marginal =
      match Hashtbl.find_opt c.Fgraph.var_of_id id with
      | Some v -> marg.(v)
      | None -> 0.5 (* no factor mentions the fact: uniform *)
    in
    Obs.add_time t.trace "query_local.ground_seconds" ground_seconds;
    Obs.add_time t.trace "query_local.infer_seconds" infer_seconds;
    (* Latency and frontier-size distributions — ProPPR-style budgeted
       inference costs vary wildly per query, which totals hide. *)
    Obs.observe t.trace "query_local.seconds"
      (ground_seconds +. infer_seconds);
    Obs.observe t.trace "query_local.ground_seconds_dist" ground_seconds;
    Obs.observe t.trace "query_local.infer_seconds_dist" infer_seconds;
    Obs.observe t.trace "query_local.factors_dist"
      (float_of_int (Fgraph.size r.Local.graph));
    Obs.observe t.trace "query_local.vars_dist"
      (float_of_int (Fgraph.nvars c));
    {
      id;
      marginal;
      epoch = t.epoch;
      interior = Array.length r.Local.interior;
      boundary = Array.length r.Local.boundary;
      hops = r.Local.hops;
      factors = Fgraph.size r.Local.graph;
      pruned_mass = r.Local.pruned_mass;
      truncated = r.Local.truncated;
      enumerated = method_used = Inference.Neighborhood.Enumerated;
      ground_seconds;
      infer_seconds;
    }
  with
  | ans ->
    Obs.end_span t.trace sp
      ~attrs:
        [
          ("epoch", Obs.I t.epoch);
          ("interior", Obs.I ans.interior);
          ("boundary", Obs.I ans.boundary);
          ("hops", Obs.I ans.hops);
          ("factors", Obs.I ans.factors);
          ("pruned_mass", Obs.F ans.pruned_mass);
          ("truncated", Obs.S (if ans.truncated then "true" else "false"));
          ("ground_seconds", Obs.F ans.ground_seconds);
          ("infer_seconds", Obs.F ans.infer_seconds);
        ];
    ans
  | exception e ->
    Obs.end_span t.trace sp ~attrs:[ ("error", Obs.S "raised") ];
    raise e

let query_local ?budget t ~r ~x ~c1 ~y ~c2 =
  match find t ~r ~x ~c1 ~y ~c2 with
  | None -> None
  | Some id -> Some (answer_by_id ?budget t id)
