module Fgraph = Factor_graph.Fgraph

type t = {
  mutable synced : int;
  mutable derives : (int, int list) Hashtbl.t;
  mutable supports : (int, int list) Hashtbl.t;
  mutable singleton : (int, int) Hashtbl.t;
}

let create () =
  {
    synced = 0;
    derives = Hashtbl.create 256;
    supports = Hashtbl.create 256;
    singleton = Hashtbl.create 256;
  }

let push tbl k v =
  Hashtbl.replace tbl k
    (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

let index_factor t f (i1, i2, i3, _w) =
  if i2 = Fgraph.null && i3 = Fgraph.null then
    Hashtbl.replace t.singleton i1 f
  else begin
    push t.derives i1 f;
    if i2 <> Fgraph.null then push t.supports i2 f;
    if i3 <> Fgraph.null && i3 <> i2 then push t.supports i3 f
  end

let sync t g =
  let n = Fgraph.bound g in
  for f = t.synced to n - 1 do
    if Fgraph.live g f then index_factor t f (Fgraph.factor g f)
  done;
  t.synced <- n

let of_graph g =
  let t = create () in
  sync t g;
  t

let synced_factors t = t.synced

(* Allocation-free walks: no [Some] wrapper, no default list — the hot
   path of the DRed rederive fixpoint and of the local grounding walk. *)
let iter_derivations t id f =
  match Hashtbl.find t.derives id with
  | fs -> List.iter f fs
  | exception Not_found -> ()

let iter_supports t id f =
  match Hashtbl.find t.supports id with
  | fs -> List.iter f fs
  | exception Not_found -> ()

let has_supports t id = Hashtbl.mem t.supports id

let singleton_of t id = Hashtbl.find_opt t.singleton id
let is_base t id = Hashtbl.mem t.singleton id

(* Filters [id]'s list in [tbl] in place, dropping the entry once empty
   (so [has_supports] keeps meaning "supports a live factor").  A list
   with nothing to drop is left as it is, unallocated. *)
let drop_dead tbl dead id =
  match Hashtbl.find tbl id with
  | fs when List.exists (Hashtbl.mem dead) fs -> (
    match List.filter (fun f -> not (Hashtbl.mem dead f)) fs with
    | [] -> Hashtbl.remove tbl id
    | fs' -> Hashtbl.replace tbl id fs')
  | _ -> ()
  | exception Not_found -> ()

let retire t g fs =
  let dead = Hashtbl.create 64 and touched = Hashtbl.create 64 in
  List.iter
    (fun f ->
      Hashtbl.replace dead f ();
      let i1, i2, i3, _ = Fgraph.factor g f in
      if i2 = Fgraph.null && i3 = Fgraph.null then begin
        match Hashtbl.find_opt t.singleton i1 with
        | Some f' when f' = f -> Hashtbl.remove t.singleton i1
        | Some _ | None -> ()
      end
      else
        List.iter
          (fun i -> if i <> Fgraph.null then Hashtbl.replace touched i ())
          [ i1; i2; i3 ])
    fs;
  Hashtbl.iter
    (fun id () ->
      drop_dead t.derives dead id;
      drop_dead t.supports dead id)
    touched

let remap t mapping =
  if t.synced <> Array.length mapping then
    invalid_arg "Provenance.remap: index out of sync with the graph";
  let keep f = if mapping.(f) >= 0 then Some mapping.(f) else None in
  let rebuild_list tbl =
    let nt = Hashtbl.create (max 16 (Hashtbl.length tbl)) in
    Hashtbl.iter
      (fun id fs ->
        match List.filter_map keep fs with
        | [] -> ()
        | fs' -> Hashtbl.replace nt id fs')
      tbl;
    nt
  in
  let rebuild_one tbl =
    let nt = Hashtbl.create (max 16 (Hashtbl.length tbl)) in
    Hashtbl.iter
      (fun id f -> match keep f with Some f' -> Hashtbl.replace nt id f' | None -> ())
      tbl;
    nt
  in
  t.derives <- rebuild_list t.derives;
  t.supports <- rebuild_list t.supports;
  t.singleton <- rebuild_one t.singleton;
  t.synced <- Array.fold_left (fun n m -> if m >= 0 then n + 1 else n) 0 mapping
