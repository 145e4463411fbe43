module Storage = Kb.Storage
module Table = Relational.Table
module Fgraph = Factor_graph.Fgraph
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
  frozen : bool;
  source : Local.source;
  clamp : int -> float;
  find : r:int -> x:int -> c1:int -> y:int -> c2:int -> int option;
  view_of : int -> view option;
  marginal_of : int -> float option;
  facts : unit -> int;
  factors : unit -> int;
  marginals_cached : unit -> int;
  gibbs : Inference.Gibbs.options;
  exact_max_vars : int;  (* enumeration cap for neighbourhood dispatch *)
  max_width : int;  (* induced-width bound for variable elimination *)
  trace : Obs.t;
  fingerprint : (int * (unit -> int)) option;
      (* frozen only: hash taken at freeze time + re-hash of the copied
         factor table — equality is proof no writer tore through state
         the snapshot still references *)
}

let sigmoid w = 1. /. (1. +. exp (-.w))

let epoch t = t.epoch
let frozen t = t.frozen

let stats t =
  {
    epoch = t.epoch;
    facts = t.facts ();
    factors = t.factors ();
    marginals_cached = t.marginals_cached ();
    frozen = t.frozen;
  }

let find t = t.find
let view t id = t.view_of id
let marginal t id = t.marginal_of id

let verify_integrity t =
  match t.fingerprint with
  | None -> true
  | Some (taken, rehash) -> rehash () = taken

(* ------------------------------------------------------------------ *)
(* Construction *)

let live ?(epoch = 0) ?(gibbs = Inference.Gibbs.default_options)
    ?(exact_max_vars = Inference.Exact.max_vars)
    ?(max_width = Inference.Jtree.default_max_width) ?(obs = Obs.null)
    ?(marginal_of = fun _ -> None) ?(view_of = fun _ -> None) ~source ~clamp
    ~find ~facts ~factors () =
  {
    epoch;
    frozen = false;
    source;
    clamp;
    find;
    view_of;
    marginal_of;
    facts;
    factors;
    marginals_cached = (fun () -> 0);
    gibbs;
    exact_max_vars;
    max_width;
    trace = obs;
    fingerprint = None;
  }

(* FNV-1a over the copied factor table: cheap, deterministic, and any
   in-place mutation of a row the snapshot references moves it. *)
let fingerprint_of phi =
  let t = Fgraph.table ~g:phi in
  let h = ref 0x3f29ce484222325 in
  let mix v =
    h := (!h lxor v) * 0x100000001b3
  in
  let n = Table.nrows t in
  mix n;
  for f = 0 to n - 1 do
    mix (Table.get t f 0);
    mix (Table.get t f 1);
    mix (Table.get t f 2);
    mix (Int64.to_int (Int64.bits_of_float (Table.weight t f)))
  done;
  !h land max_int

let has_any iter id =
  match iter id (fun _ -> raise_notrace Exit) with
  | () -> false
  | exception Exit -> true

let freeze ?(epoch = 0) ?marginals ?(gibbs = Inference.Gibbs.default_options)
    ?(exact_max_vars = Inference.Exact.max_vars)
    ?(max_width = Inference.Jtree.default_max_width) ?(obs = Obs.null) ~pi
    ~graph () =
  (* Copies of the two tables' arrays — TΠ with its key index blitted,
     not rehashed, and TΦ — so the snapshot aliases nothing a later
     epoch mutates ([Storage] appends and compacts, [Fgraph.retain]
     splices in place).  Reads then call the same functions the live
     state answers with: [Storage.find] and [Storage.row_of_id] on the
     TΠ copy, [Local.adjacency_of_graph] on the TΦ copy. *)
  let pi = Storage.copy pi in
  let phi = Fgraph.copy graph in
  let adj = Local.adjacency_of_graph phi in
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
  let n_marginals = Hashtbl.length m in
  let has_marginal id = id >= 0 && id < nids && cached.(id) in
  let marginal_of id = if has_marginal id then Some marg.(id) else None in
  let clamp id =
    if has_marginal id then marg.(id)
    else
      match adj.Local.singleton_of id with
      | Some f ->
        let _, _, _, w = Fgraph.factor phi f in
        sigmoid w
      | None -> 0.5
  in
  let find ~r ~x ~c1 ~y ~c2 = Storage.find pi ~r ~x ~c1 ~y ~c2 in
  (* A tombstoned row stays in the table until the flush: a row is live
     when its key still finds it. *)
  let t = Storage.table pi in
  let live row =
    match
      find ~r:(Table.get t row 1) ~x:(Table.get t row 2)
        ~c1:(Table.get t row 3) ~y:(Table.get t row 4)
        ~c2:(Table.get t row 5)
    with
    | Some id -> id = Table.get t row 0
    | None -> false
  in
  (* The fact's extraction weight, if it is live and carries one. *)
  let live_weight id =
    match Storage.row_of_id pi id with
    | Some row when live row && not (Table.is_null_weight (Table.weight t row))
      ->
      Some (Table.weight t row)
    | Some _ | None -> None
  in
  let view_of id =
    let base = Option.is_some (adj.Local.singleton_of id) in
    let weight = live_weight id in
    if
      base || Option.is_some weight
      || has_any adj.Local.iter_derivations id
      || has_any adj.Local.iter_supports id
    then
      Some
        {
          id;
          base;
          weight = Option.value ~default:Table.null_weight weight;
          marginal = marginal_of id;
        }
    else None
  in
  (* Live keys: after a flush every row is live and keys are unique; while
     deletes are pending, count the live rows. *)
  let facts =
    if Storage.pending_deletes pi = 0 then Storage.size pi
    else begin
      let n = ref 0 in
      Table.iter (fun row -> if live row then incr n) t;
      !n
    end
  in
  let taken = fingerprint_of phi in
  {
    epoch;
    frozen = true;
    source = Local.of_adjacency adj;
    clamp;
    find;
    view_of;
    marginal_of;
    facts = (fun () -> facts);
    factors = (fun () -> Fgraph.size phi);
    marginals_cached = (fun () -> n_marginals);
    gibbs;
    exact_max_vars;
    max_width;
    trace = obs;
    fingerprint = Some (taken, fun () -> fingerprint_of phi);
  }

(* ------------------------------------------------------------------ *)
(* The solve path: local grounding walk → boundary clamp → compile →
   exact-or-sampled inference, under one "query_local" span whose end
   attributes carry the frontier/pruning/latency breakdown.  This is
   the one implementation behind [Engine.query_local],
   [Session.query_local] and the serving layer. *)

let answer_by_id ?budget t id =
  if t.frozen && Obs.debug && not (verify_integrity t) then
    invalid_arg
      "Snapshot.answer_by_id: torn read — frozen state mutated under the \
       snapshot";
  let sp = Obs.begin_span ~cat:"engine" t.trace "query_local" in
  match
    let t0 = Obs.now () in
    let r = Local.run ?budget t.source ~query:id in
    let ground_seconds = Obs.now () -. t0 in
    Inference.Neighborhood.clamp_boundary r.Local.graph
      ~boundary:r.Local.boundary ~prob:t.clamp;
    let t1 = Obs.now () in
    let c = Fgraph.compile r.Local.graph in
    let marg, method_used =
      Inference.Neighborhood.solve ~obs:t.trace ~options:t.gibbs
        ~exact_max_vars:t.exact_max_vars ~max_width:t.max_width c
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
  match t.find ~r ~x ~c1 ~y ~c2 with
  | None -> None
  | Some id -> Some (answer_by_id ?budget t id)
