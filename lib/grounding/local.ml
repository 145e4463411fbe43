module Table = Relational.Table
module Index = Relational.Index
module Pattern = Mln.Pattern
module Storage = Kb.Storage
module Fgraph = Factor_graph.Fgraph

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

(* --- sources --------------------------------------------------------- *)

type adjacency = {
  iter_derivations : int -> (int -> unit) -> unit;
  iter_supports : int -> (int -> unit) -> unit;
  singleton_of : int -> int option;
  factor_of : int -> int * int * int * float;
}

(* One CSR per direction, built by counting sort over fact ids: fact
   [v]'s factors are [arr.(off.(v))] .. [arr.(off.(v + 1) - 1)].  The
   fill runs from the last factor down, so each slice lists its factors
   in descending index order — the order a forward scan consing onto
   per-fact lists gives.  A fact's prior is its last singleton factor.
   Retired factors are skipped: only live positions are counted and
   filled. *)
let adjacency_of_graph g =
  let t = Fgraph.table ~g in
  let n = Fgraph.bound g in
  let live = Fgraph.live g in
  let null = Fgraph.null in
  let nids = ref 0 in
  for f = 0 to n - 1 do
    let i1 = Table.get t f 0 and i2 = Table.get t f 1 and i3 = Table.get t f 2 in
    if i1 < 0 || i2 < null || i3 < null then
      invalid_arg "Local.adjacency_of_graph: negative fact id";
    if live f then nids := Int.max !nids (1 + Int.max i1 (Int.max i2 i3))
  done;
  let nids = !nids in
  let singleton = Array.make nids (-1) in
  let derive_off = Array.make (nids + 1) 0
  and support_off = Array.make (nids + 1) 0 in
  let count off v = off.(v + 1) <- off.(v + 1) + 1 in
  for f = 0 to n - 1 do
    let i1 = Table.get t f 0 and i2 = Table.get t f 1 and i3 = Table.get t f 2 in
    if live f then
      if i2 = null && i3 = null then singleton.(i1) <- f
      else begin
        count derive_off i1;
        if i2 <> null then count support_off i2;
        if i3 <> null && i3 <> i2 then count support_off i3
      end
  done;
  for v = 1 to nids do
    derive_off.(v) <- derive_off.(v) + derive_off.(v - 1);
    support_off.(v) <- support_off.(v) + support_off.(v - 1)
  done;
  let derives = Array.make derive_off.(nids) 0
  and supports = Array.make support_off.(nids) 0 in
  let derive_at = Array.sub derive_off 0 nids
  and support_at = Array.sub support_off 0 nids in
  let put arr at v f =
    arr.(at.(v)) <- f;
    at.(v) <- at.(v) + 1
  in
  for f = n - 1 downto 0 do
    let i1 = Table.get t f 0 and i2 = Table.get t f 1 and i3 = Table.get t f 2 in
    if live f && not (i2 = null && i3 = null) then begin
      put derives derive_at i1 f;
      if i2 <> null then put supports support_at i2 f;
      if i3 <> null && i3 <> i2 then put supports support_at i3 f
    end
  done;
  let iter_slice off arr v k =
    if v >= 0 && v < nids then
      for p = off.(v) to off.(v + 1) - 1 do
        k arr.(p)
      done
  in
  {
    iter_derivations = iter_slice derive_off derives;
    iter_supports = iter_slice support_off supports;
    singleton_of =
      (fun v ->
        if v >= 0 && v < nids && singleton.(v) >= 0 then Some singleton.(v)
        else None);
    factor_of = Fgraph.factor g;
  }

type walker = { prepared : Queries.prepared; pi : Storage.t }
type source = Graph of adjacency | Backward of walker

let of_adjacency adj = Graph adj
let of_kb prepared pi = Backward { prepared; pi }

(* TΠ's maintained partial-key indexes: [x_key] = (R, C1, C2, x) leaves
   y free, [y_key] = (R, C1, C2, y) leaves x free — between them they
   cover every body-atom probe of P1..P6 with one bound variable
   missing. *)
let x_index w = Storage.partial_index w.pi Storage.x_key
let y_index w = Storage.partial_index w.pi Storage.y_key

(* Iterate the live facts matching a partial key: the physical index
   holds tombstoned rows too. *)
let iter_live w idx kv k =
  let t = Storage.table w.pi in
  Index.iter_matches idx kv (fun row ->
      if Storage.live_row w.pi row then k (Table.get t row 0) row)

(* --- factor identity -------------------------------------------------- *)

(* Dedup key for a factor discovered during the walk: a graph position in
   graph mode; the (pattern, M-row, body ids) instance identity in backward
   mode (per Proposition 1 of the paper that is exactly what makes a ground
   clause unique); the fact id for priors. *)
type fkey =
  | K_pos of int
  | K_rule of int * int * int * int
  | K_prior of int

(* --- backward expansion ----------------------------------------------- *)

(* Enumerate every factor adjacent to fact [fid] by probing the KB indexes
   with the memoized rule-adjacency buckets: derivations (fid as head, body
   atoms solved forward from the head bindings), supports (fid as q or r
   atom, the sibling atom and then the head solved from fid's bindings),
   and the extraction prior.  Requires the fact closure of [TΠ] to have
   been computed (Query 1 fixpoint) — the same precondition as the batch
   Query 2 — and reads base-fact priors from the weight column, like the
   batch [singleton_factors] (i.e. before [store_marginals] overwrites
   inferred facts' weights). *)
let expand_backward w fid emit =
  let pi = w.pi in
  let t = Storage.table pi in
  match Storage.row_of_id pi fid with
  | None -> () (* unknown fact: empty neighbourhood *)
  | Some frow ->
    let fr = Table.get t frow 1
    and fx = Table.get t frow 2
    and fc1 = Table.get t frow 3
    and fy = Table.get t frow 4
    and fc2 = Table.get t frow 5
    and fw = Table.weight t frow in
    if not (Table.is_null_weight fw) then
      emit (K_prior fid) fid Fgraph.null Fgraph.null fw;
    let adj = Queries.rule_adjacency w.prepared in
    let parts = Queries.partitions w.prepared in
    (* fid as head: find body instantiations. *)
    List.iter
      (fun (pat, row) ->
        let m = Mln.Partition.table parts pat in
        let g c = Table.get m row c in
        let rw = Table.weight m row in
        let emit2 i2 i3 =
          emit (K_rule (Pattern.index pat, row, i2, i3)) fid i2 i3 rw
        in
        let two_atom ~q_idx ~q_kv ~z_col ~r_probe =
          iter_live w q_idx q_kv (fun q qrow ->
              let z = Table.get t qrow z_col in
              match r_probe z with
              | Some r3 -> emit2 q r3
              | None -> ())
        in
        match pat with
        | Pattern.P1 -> (
          match Storage.find pi ~r:(g 1) ~x:fx ~c1:fc1 ~y:fy ~c2:fc2 with
          | Some q -> emit2 q Fgraph.null
          | None -> ())
        | Pattern.P2 -> (
          match Storage.find pi ~r:(g 1) ~x:fy ~c1:fc2 ~y:fx ~c2:fc1 with
          | Some q -> emit2 q Fgraph.null
          | None -> ())
        | Pattern.P3 ->
          (* q(z, x): z free ⇒ probe (R2, C3, C1, x), x bound on q's y
             column; r(z, y) fully bound once z is known. *)
          two_atom ~q_idx:(y_index w)
            ~q_kv:[| g 1; g 5; g 3; fx |]
            ~z_col:2
            ~r_probe:(fun z ->
              Storage.find pi ~r:(g 2) ~x:z ~c1:(g 5) ~y:fy ~c2:(g 4))
        | Pattern.P4 ->
          two_atom ~q_idx:(x_index w)
            ~q_kv:[| g 1; g 3; g 5; fx |]
            ~z_col:4
            ~r_probe:(fun z ->
              Storage.find pi ~r:(g 2) ~x:z ~c1:(g 5) ~y:fy ~c2:(g 4))
        | Pattern.P5 ->
          two_atom ~q_idx:(y_index w)
            ~q_kv:[| g 1; g 5; g 3; fx |]
            ~z_col:2
            ~r_probe:(fun z ->
              Storage.find pi ~r:(g 2) ~x:fy ~c1:(g 4) ~y:z ~c2:(g 5))
        | Pattern.P6 ->
          two_atom ~q_idx:(x_index w)
            ~q_kv:[| g 1; g 3; g 5; fx |]
            ~z_col:4
            ~r_probe:(fun z ->
              Storage.find pi ~r:(g 2) ~x:fy ~c1:(g 4) ~y:z ~c2:(g 5)))
      (Queries.head_rules adj ~r:fr ~c1:fc1 ~c2:fc2);
    (* fid as a body atom: find the sibling atom (if any), then the head. *)
    List.iter
      (fun (pat, row, slot) ->
        let m = Mln.Partition.table parts pat in
        let g c = Table.get m row c in
        let rw = Table.weight m row in
        let pidx = Pattern.index pat in
        let head ~x ~y =
          Storage.find pi ~r:(g 0) ~x
            ~c1:(if Pattern.arity pat = 4 then g 2 else g 3)
            ~y
            ~c2:(if Pattern.arity pat = 4 then g 3 else g 4)
        in
        (* fid in the q slot: enumerate sibling r atoms. *)
        let with_r ~r_idx ~r_kv ~y_head_col ~head_x ~head_y =
          iter_live w r_idx r_kv (fun r3 rrow ->
              let other = Table.get t rrow y_head_col in
              match head ~x:(head_x other) ~y:(head_y other) with
              | Some h -> emit (K_rule (pidx, row, fid, r3)) h fid r3 rw
              | None -> ())
        in
        (* fid in the r slot: enumerate sibling q atoms.  A candidate equal
           to fid itself is skipped — the instance with fid in both slots
           is already found by the q-slot enumeration (same K_rule key
           either way, so this only saves the duplicate probes). *)
        let with_q ~q_idx ~q_kv ~x_head_col ~head_x ~head_y =
          iter_live w q_idx q_kv (fun q qrow ->
              if q <> fid then
                let other = Table.get t qrow x_head_col in
                match head ~x:(head_x other) ~y:(head_y other) with
                | Some h -> emit (K_rule (pidx, row, q, fid)) h q fid rw
                | None -> ())
        in
        match (pat, slot) with
        | Pattern.P1, _ -> (
          (* head(x, y) ← f(x, y) *)
          match head ~x:fx ~y:fy with
          | Some h ->
            emit (K_rule (pidx, row, fid, Fgraph.null)) h fid Fgraph.null rw
          | None -> ())
        | Pattern.P2, _ -> (
          (* head(x, y) ← f(y, x) *)
          match head ~x:fy ~y:fx with
          | Some h ->
            emit (K_rule (pidx, row, fid, Fgraph.null)) h fid Fgraph.null rw
          | None -> ())
        | Pattern.P3, Queries.Q_atom ->
          (* f = q(z, x) ⇒ z = f.x, head x = f.y; r(z, y) has y free. *)
          with_r ~r_idx:(x_index w)
            ~r_kv:[| g 2; g 5; g 4; fx |]
            ~y_head_col:4
            ~head_x:(fun _ -> fy)
            ~head_y:(fun yh -> yh)
        | Pattern.P3, Queries.R_atom ->
          (* f = r(z, y) ⇒ z = f.x, head y = f.y; q(z, x) has x free. *)
          with_q ~q_idx:(x_index w)
            ~q_kv:[| g 1; g 5; g 3; fx |]
            ~x_head_col:4
            ~head_x:(fun xh -> xh)
            ~head_y:(fun _ -> fy)
        | Pattern.P4, Queries.Q_atom ->
          (* f = q(x, z) ⇒ head x = f.x, z = f.y; r(z, y) has y free. *)
          with_r ~r_idx:(x_index w)
            ~r_kv:[| g 2; g 5; g 4; fy |]
            ~y_head_col:4
            ~head_x:(fun _ -> fx)
            ~head_y:(fun yh -> yh)
        | Pattern.P4, Queries.R_atom ->
          (* f = r(z, y) ⇒ z = f.x, head y = f.y; q(x, z) has x free. *)
          with_q ~q_idx:(y_index w)
            ~q_kv:[| g 1; g 3; g 5; fx |]
            ~x_head_col:2
            ~head_x:(fun xh -> xh)
            ~head_y:(fun _ -> fy)
        | Pattern.P5, Queries.Q_atom ->
          (* f = q(z, x) ⇒ z = f.x, head x = f.y; r(y, z) has y free. *)
          with_r ~r_idx:(y_index w)
            ~r_kv:[| g 2; g 4; g 5; fx |]
            ~y_head_col:2
            ~head_x:(fun _ -> fy)
            ~head_y:(fun yh -> yh)
        | Pattern.P5, Queries.R_atom ->
          (* f = r(y, z) ⇒ head y = f.x, z = f.y; q(z, x) has x free. *)
          with_q ~q_idx:(x_index w)
            ~q_kv:[| g 1; g 5; g 3; fy |]
            ~x_head_col:4
            ~head_x:(fun xh -> xh)
            ~head_y:(fun _ -> fx)
        | Pattern.P6, Queries.Q_atom ->
          (* f = q(x, z) ⇒ head x = f.x, z = f.y; r(y, z) has y free. *)
          with_r ~r_idx:(y_index w)
            ~r_kv:[| g 2; g 4; g 5; fy |]
            ~y_head_col:2
            ~head_x:(fun _ -> fx)
            ~head_y:(fun yh -> yh)
        | Pattern.P6, Queries.R_atom ->
          (* f = r(y, z) ⇒ head y = f.x, z = f.y; q(x, z) has x free. *)
          with_q ~q_idx:(y_index w)
            ~q_kv:[| g 1; g 3; g 5; fy |]
            ~x_head_col:2
            ~head_x:(fun xh -> xh)
            ~head_y:(fun _ -> fx))
      (Queries.body_rules adj ~r:fr ~c1:fc1 ~c2:fc2)

let expand_graph adj f emit =
  let emit_pos p =
    let i1, i2, i3, w = adj.factor_of p in
    emit (K_pos p) i1 i2 i3 w
  in
  adj.iter_derivations f emit_pos;
  adj.iter_supports f emit_pos;
  match adj.singleton_of f with Some p -> emit_pos p | None -> ()

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

let run ?(budget = unbounded) source ~query =
  let expand_fact =
    match source with
    | Graph adj -> expand_graph adj
    | Backward w -> expand_backward w
  in
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
        expand_fact f (fun key i1 i2 i3 w ->
            if not (Hashtbl.mem factors key) then begin
              Hashtbl.replace factors key ();
              rows := (i1, i2, i3, w) :: !rows;
              let reach v =
                if v <> Fgraph.null && not (Hashtbl.mem visited v) then begin
                  Hashtbl.replace visited v ();
                  next := v :: !next
                end
              in
              reach i1;
              reach i2;
              reach i3
            end))
      !frontier;
    incr hop;
    influence := !influence *. budget.decay;
    (* Admit next-hop facts lowest-id first (deterministic under any pool
       size and either source), until the influence threshold, hop limit or
       node cap cuts the frontier; the rest become boundary facts whose
       pruned influence is summed into the truncation summary. *)
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
  (* Canonical subgraph: rows sorted by (I1, I2, I3, w).  Both sources
     produce the same factor multiset for the same interior set, so after
     this sort the emitted tables — and hence compiled variable order and
     any enumeration over them — are identical across modes. *)
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
