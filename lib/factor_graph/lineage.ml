module Table = Relational.Table

type t = {
  graph : Fgraph.t;  (* rows and liveness are read through it *)
  bound : int;  (* [Fgraph.bound] of the graph at build time *)
  nids : int;
  derive_off : int array;
  derives : int array;
  support_off : int array;
  supports : int array;
  singleton : int array;  (* by fact id: its last prior, or -1 *)
}

(* One CSR per direction, built by counting sort over fact ids: fact
   [v]'s factors are [arr.(off.(v))] .. [arr.(off.(v + 1) - 1)].  The
   fill runs from the last factor down, so each slice lists its factors
   in descending position.  A fact's prior is its last singleton factor.
   Only live positions are counted and filled. *)
let build g =
  let t = Fgraph.table ~g in
  let n = Fgraph.bound g in
  let live = Fgraph.live g in
  let null = Fgraph.null in
  let nids = ref 0 in
  for f = 0 to n - 1 do
    let i1 = Table.get t f 0 and i2 = Table.get t f 1 and i3 = Table.get t f 2 in
    if i1 < 0 || i2 < null || i3 < null then
      invalid_arg "Lineage.build: negative fact id";
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
  {
    graph = g;
    bound = n;
    nids;
    derive_off;
    derives;
    support_off;
    supports;
    singleton;
  }

let graph l = l.graph

let through l g =
  if Fgraph.bound g <> l.bound then
    invalid_arg "Lineage.through: not the positions the index was built over";
  { l with graph = g }

(* Factors retired since the build stay in the slices; the graph read
   through says which are dead. *)
let iter_slice l off arr v k =
  if v >= 0 && v < l.nids then
    for p = off.(v) to off.(v + 1) - 1 do
      let f = arr.(p) in
      if Fgraph.live l.graph f then k f
    done

let iter_derivations l v k = iter_slice l l.derive_off l.derives v k
let iter_supports l v k = iter_slice l l.support_off l.supports v k

let has_supports l v =
  match iter_supports l v (fun _ -> raise_notrace Exit) with
  | () -> false
  | exception Exit -> true

let is_base l v =
  v >= 0 && v < l.nids
  && l.singleton.(v) >= 0
  && Fgraph.live l.graph l.singleton.(v)

let singleton_of l v = if is_base l v then Some l.singleton.(v) else None

let derivations l id =
  let acc = ref [] in
  iter_derivations l id (fun f ->
      let _, i2, i3, w = Fgraph.factor l.graph f in
      acc := (i2, i3, w) :: !acc);
  List.rev !acc

let closure next start =
  let seen = Hashtbl.create 64 in
  let rec visit id =
    next id (fun n ->
        if not (Hashtbl.mem seen n) then begin
          Hashtbl.add seen n ();
          visit n
        end)
  in
  visit start;
  Hashtbl.remove seen start;
  Hashtbl.fold (fun k () acc -> k :: acc) seen []

let ancestors l id =
  closure
    (fun i k ->
      iter_derivations l i (fun f ->
          let _, i2, i3, _ = Fgraph.factor l.graph f in
          if i2 <> Fgraph.null then k i2;
          if i3 <> Fgraph.null then k i3))
    id

let descendants l id =
  closure
    (fun i k ->
      iter_supports l i (fun f ->
          let h, _, _, _ = Fgraph.factor l.graph f in
          k h))
    id

(* Minimum derivation depth, computed as a forward fixpoint from the
   extracted (singleton) facts: depths only ever decrease, and each
   improvement re-examines the derivations the improved fact feeds, so the
   loop terminates even on cyclic lineage. *)
let depth l id =
  let best = Array.make l.nids (-1) in
  let queue = Queue.create () in
  for i = 0 to l.nids - 1 do
    if is_base l i then begin
      best.(i) <- 0;
      Queue.add i queue
    end
  done;
  let known i = i = Fgraph.null || best.(i) >= 0 in
  let depth_of i = if i = Fgraph.null then 0 else best.(i) in
  while not (Queue.is_empty queue) do
    iter_supports l (Queue.pop queue) (fun f ->
        let h, _, _, _ = Fgraph.factor l.graph f in
        (* Recompute h's best depth over all its derivations. *)
        let candidate = ref max_int in
        iter_derivations l h (fun d ->
            let _, i2, i3, _ = Fgraph.factor l.graph d in
            if known i2 && known i3 then
              candidate :=
                Int.min !candidate (1 + Int.max (depth_of i2) (depth_of i3)));
        if !candidate < max_int && (best.(h) < 0 || !candidate < best.(h))
        then begin
          best.(h) <- !candidate;
          Queue.add h queue
        end)
  done;
  if id >= 0 && id < l.nids && best.(id) >= 0 then Some best.(id) else None
