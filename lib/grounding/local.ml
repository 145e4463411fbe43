module Fgraph = Factor_graph.Fgraph
module Lineage = Factor_graph.Lineage

(* --- budget ---------------------------------------------------------- *)

type budget = {
  max_facts : int option;
  max_hops : int option;
  decay : float;
  min_influence : float;
}

let unbounded =
  { max_facts = None; max_hops = None; decay = 1.0; min_influence = 0.0 }

let budget ?max_facts ?max_hops ?(decay = 1.0) ?(min_influence = 0.0) () =
  if not (decay > 0.0 && decay <= 1.0) then
    invalid_arg "Local.budget: decay must be in (0, 1]";
  if min_influence < 0.0 then
    invalid_arg "Local.budget: min_influence must be >= 0";
  (match max_hops with
  | Some h when h < 0 -> invalid_arg "Local.budget: max_hops must be >= 0"
  | _ -> ());
  { max_facts; max_hops; decay; min_influence }

(* --- adjacency ------------------------------------------------------- *)

type adjacency = {
  iter_derivations : int -> (int -> unit) -> unit;
  iter_supports : int -> (int -> unit) -> unit;
  singleton_of : int -> int option;
  factor_of : int -> int * int * int * float;
}

let adjacency_of_lineage l =
  {
    iter_derivations = Lineage.iter_derivations l;
    iter_supports = Lineage.iter_supports l;
    singleton_of = Lineage.singleton_of l;
    factor_of = Fgraph.factor (Lineage.graph l);
  }

(* --- the walk --------------------------------------------------------- *)

type result = {
  graph : Fgraph.t;
  interior : int array;
  boundary : int array;
  hops : int;
  pruned_mass : float;
  truncated : bool;
}

let cmp_row (a1, a2, a3, aw) (b1, b2, b3, bw) =
  let c = Int.compare a1 b1 in
  if c <> 0 then c
  else
    let c = Int.compare a2 b2 in
    if c <> 0 then c
    else
      let c = Int.compare a3 b3 in
      if c <> 0 then c else Float.compare aw bw

let run ?(budget = unbounded) adj ~query =
  let visited = Hashtbl.create 256 in
  let factors = Hashtbl.create 256 in
  let rows = ref [] in
  let interior = ref [] and n_interior = ref 0 in
  let boundary = ref [] in
  let pruned_mass = ref 0. in
  let hops = ref 0 in
  Hashtbl.replace visited query ();
  let frontier = ref [ query ] in
  let hop = ref 0 in
  let influence = ref 1.0 in
  while !frontier <> [] do
    if !hop > 0 then hops := !hop;
    let next = ref [] in
    List.iter
      (fun f ->
        interior := f :: !interior;
        incr n_interior;
        (* Every factor touching [f], once: a factor is reached again
           from each of its other facts, so it is deduplicated by its
           graph position. *)
        let emit p =
          if not (Hashtbl.mem factors p) then begin
            Hashtbl.replace factors p ();
            let ((i1, i2, i3, _) as row) = adj.factor_of p in
            rows := row :: !rows;
            let reach v =
              if v <> Fgraph.null && not (Hashtbl.mem visited v) then begin
                Hashtbl.replace visited v ();
                next := v :: !next
              end
            in
            reach i1;
            reach i2;
            reach i3
          end
        in
        adj.iter_derivations f emit;
        adj.iter_supports f emit;
        Option.iter emit (adj.singleton_of f))
      !frontier;
    incr hop;
    influence := !influence *. budget.decay;
    (* Admit next-hop facts lowest-id first (deterministic under any pool
       size and any adjacency order), until the influence threshold, hop
       limit or node cap cuts the frontier; the rest become boundary facts
       whose pruned influence is summed into the truncation summary. *)
    let candidates = List.sort compare !next in
    let hop_ok =
      (match budget.max_hops with None -> true | Some h -> !hop <= h)
      && !influence >= budget.min_influence
    in
    let planned = ref !n_interior in
    let admitted = ref [] in
    List.iter
      (fun v ->
        let cap_ok =
          match budget.max_facts with None -> true | Some cap -> !planned < cap
        in
        if hop_ok && cap_ok then begin
          admitted := v :: !admitted;
          incr planned
        end
        else begin
          boundary := v :: !boundary;
          pruned_mass := !pruned_mass +. !influence
        end)
      candidates;
    frontier := List.rev !admitted
  done;
  (* Canonical subgraph: rows sorted by (I1, I2, I3, w), so the emitted
     table — and hence compiled variable order and any enumeration over
     it — depends on the factor multiset alone, not on the order the
     adjacency lists factors in. *)
  let graph = Fgraph.create () in
  List.iter
    (fun (i1, i2, i3, w) ->
      if i2 = Fgraph.null && i3 = Fgraph.null then
        Fgraph.add_singleton graph ~i:i1 ~w
      else
        Fgraph.add_clause graph ~i1
          ?i2:(if i2 = Fgraph.null then None else Some i2)
          ?i3:(if i3 = Fgraph.null then None else Some i3)
          ~w ())
    (List.sort cmp_row !rows);
  {
    graph;
    interior = Array.of_list (List.sort compare !interior);
    boundary = Array.of_list (List.sort compare !boundary);
    hops = !hops;
    pruned_mass = !pruned_mass;
    truncated = !boundary <> [];
  }
