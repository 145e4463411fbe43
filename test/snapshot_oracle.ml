(* Test oracle for the frozen read path: [Snapshot.freeze] as it was
   before it copied arrays.  It rehashes every factor row into per-fact
   lists, re-keys every TΠ row that [Storage.find] confirms into a
   polymorphic hash table, and copies the marginals table, then answers
   point queries itself: [Local.run] over those lists, boundary clamp,
   compile and [Neighborhood.solve].  A frozen snapshot must answer
   exactly as this one does — [find], [view], [marginal], [stats] and
   [query_local], bit for bit — and the lineage's CSR
   ([Factor_graph.Lineage]) must list the same derivations, supports and
   priors as [adjacency_of_graph] below. *)

module Storage = Kb.Storage
module Table = Relational.Table
module Fgraph = Factor_graph.Fgraph
module Local = Grounding.Local
module Snapshot = Probkb.Snapshot

(* The adjacency of the live ones among [n] factor positions read
   through [row]: per-fact lists consed in a forward scan (so listed in
   descending factor index), the last prior winning. *)
let adjacency n ~live row ~factor_of =
  let derives = Hashtbl.create 256
  and supports = Hashtbl.create 256
  and singleton = Hashtbl.create 256 in
  let push tbl k v =
    Hashtbl.replace tbl k
      (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  in
  for f = 0 to n - 1 do
    let i1, i2, i3 = row f in
    if not (live f) then ()
    else if i2 = Fgraph.null && i3 = Fgraph.null then
      Hashtbl.replace singleton i1 f
    else begin
      push derives i1 f;
      if i2 <> Fgraph.null then push supports i2 f;
      if i3 <> Fgraph.null && i3 <> i2 then push supports i3 f
    end
  done;
  let iter_of tbl id k =
    match Hashtbl.find tbl id with
    | fs -> List.iter k fs
    | exception Not_found -> ()
  in
  ( {
      Local.iter_derivations = iter_of derives;
      iter_supports = iter_of supports;
      singleton_of = (fun id -> Hashtbl.find_opt singleton id);
      factor_of;
    },
    (derives, supports, singleton) )

let adjacency_of_graph g =
  fst
    (adjacency (Fgraph.bound g) ~live:(Fgraph.live g)
       (fun f ->
         let i1, i2, i3, _ = Fgraph.factor g f in
         (i1, i2, i3))
       ~factor_of:(Fgraph.factor g))

type t = {
  epoch : int;
  solver : Inference.Hybrid.options;
  adj : Local.adjacency;
  clamp : int -> float;
  find : r:int -> x:int -> c1:int -> y:int -> c2:int -> int option;
  view : int -> Snapshot.view option;
  marginal : int -> float option;
  stats : Snapshot.stats;
}

let sigmoid w = 1. /. (1. +. exp (-.w))

(* The old freeze; [stats] carries the figures the frozen snapshot
   reports. *)
let freeze ?(epoch = 0) ?marginals
    ?(solver = Inference.Hybrid.default_options) ~pi ~graph () =
  let n = Fgraph.bound graph and n_live = Fgraph.size graph in
  let is_live = Array.make n false in
  let fi1 = Array.make n 0
  and fi2 = Array.make n 0
  and fi3 = Array.make n 0
  and fw = Array.make n 0.0 in
  Fgraph.iter
    (fun f (i1, i2, i3, w) ->
      is_live.(f) <- true;
      fi1.(f) <- i1;
      fi2.(f) <- i2;
      fi3.(f) <- i3;
      fw.(f) <- w)
    graph;
  let adj, (derives, supports, singleton) =
    adjacency n
      ~live:(fun f -> is_live.(f))
      (fun f -> (fi1.(f), fi2.(f), fi3.(f)))
      ~factor_of:(fun f -> (fi1.(f), fi2.(f), fi3.(f), fw.(f)))
  in
  let keys = Hashtbl.create (max 16 (Storage.size pi)) in
  let weights = Hashtbl.create (max 16 (Storage.size pi)) in
  Storage.iter
    (fun ~id ~r ~x ~c1 ~y ~c2 ~w ->
      match Storage.find pi ~r ~x ~c1 ~y ~c2 with
      | Some live_id when live_id = id ->
        Hashtbl.replace keys (r, x, c1, y, c2) id;
        if not (Table.is_null_weight w) then Hashtbl.replace weights id w
      | Some _ | None -> ())
    pi;
  let marg =
    match marginals with
    | None -> Hashtbl.create 16
    | Some m -> Hashtbl.copy m
  in
  let clamp id =
    match Hashtbl.find_opt marg id with
    | Some p -> p
    | None -> (
      match Hashtbl.find_opt singleton id with
      | Some f -> sigmoid fw.(f)
      | None -> 0.5)
  in
  let view_of id =
    let base = Hashtbl.mem singleton id in
    let known =
      base || Hashtbl.mem weights id
      || Hashtbl.mem derives id || Hashtbl.mem supports id
    in
    if not known then None
    else
      (* The weight column holds a base fact's extraction weight, or an
         inferred fact's stored marginal. *)
      let stored = Hashtbl.find_opt weights id in
      Some
        {
          Snapshot.id;
          base;
          weight =
            (if base then Option.value ~default:Table.null_weight stored
             else Table.null_weight);
          marginal =
            (match Hashtbl.find_opt marg id with
            | Some p -> Some p
            | None -> if base then None else stored);
        }
  in
  {
    epoch;
    solver;
    adj;
    clamp;
    find = (fun ~r ~x ~c1 ~y ~c2 -> Hashtbl.find_opt keys (r, x, c1, y, c2));
    view = view_of;
    marginal = Hashtbl.find_opt marg;
    stats =
      {
        Snapshot.epoch;
        facts = Hashtbl.length keys;
        factors = n_live;
        marginals_cached = Hashtbl.length marg;
        frozen = true;
      };
  }

(* The point query: walk, clamp the boundary, compile, solve.  The
   timings are the snapshot's own business; they read 0 here. *)
let query_local ?budget o ~r ~x ~c1 ~y ~c2 =
  match o.find ~r ~x ~c1 ~y ~c2 with
  | None -> None
  | Some id ->
    let res = Local.run ?budget o.adj ~query:id in
    Inference.Neighborhood.clamp_boundary res.Local.graph
      ~boundary:res.Local.boundary ~prob:o.clamp;
    let c = Fgraph.compile res.Local.graph in
    let marg, how = Inference.Neighborhood.solve ~options:o.solver c in
    Some
      {
        Snapshot.id;
        marginal =
          (match Hashtbl.find_opt c.Fgraph.var_of_id id with
          | Some v -> marg.(v)
          | None -> 0.5);
        epoch = o.epoch;
        interior = Array.length res.Local.interior;
        boundary = Array.length res.Local.boundary;
        hops = res.Local.hops;
        factors = Fgraph.size res.Local.graph;
        pruned_mass = res.Local.pruned_mass;
        truncated = res.Local.truncated;
        enumerated = how = Inference.Neighborhood.Enumerated;
        ground_seconds = 0.;
        infer_seconds = 0.;
      }
