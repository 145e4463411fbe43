module Table = Relational.Table
module Deadrows = Relational.Deadrows

let null = -1

type t = { tphi : Table.t; dead : Deadrows.t (* retired, until [compact] *) }

let create () =
  {
    tphi = Table.create ~weighted:true ~name:"T_Phi" [| "I1"; "I2"; "I3" |];
    dead = Deadrows.create ();
  }

let table ~g = g.tphi
let copy g = { tphi = Table.copy g.tphi; dead = Deadrows.copy g.dead }

let add_singleton g ~i ~w = Table.append_w g.tphi [| i; null; null |] w

let add_clause g ~i1 ?(i2 = null) ?(i3 = null) ~w () =
  Table.append_w g.tphi [| i1; i2; i3 |] w

let bound g = Table.nrows g.tphi
let dead_rows g = Deadrows.count g.dead
let size g = bound g - dead_rows g
let live g f = Deadrows.live g.dead f

let kill g f =
  if f < 0 || f >= bound g then invalid_arg "Fgraph.kill: no such factor";
  Deadrows.kill g.dead f

let factor g f =
  ( Table.get g.tphi f 0,
    Table.get g.tphi f 1,
    Table.get g.tphi f 2,
    Table.weight g.tphi f )

let iter f g =
  for i = 0 to bound g - 1 do
    if live g i then f i (factor g i)
  done

let compact g =
  if dead_rows g > 0 then begin
    (* [Table.filter] appends survivors in scan order, so live factors
       keep their relative order — [compile] interns variables in
       factor-table order, so it numbers them exactly as before. *)
    let kept = Table.filter g.tphi (live g) in
    Table.clear g.tphi;
    Table.append_all g.tphi kept;
    Deadrows.clear g.dead
  end

type compiled = {
  var_ids : int array;
  var_of_id : (int, int) Hashtbl.t;
  head : int array;
  body1 : int array;
  body2 : int array;
  fweight : float array;
  singleton : bool array;
  adj_off : int array;
  adj : int array;
}

let nvars c = Array.length c.var_ids

let compile g =
  let n = bound g in
  (* Keep only live, finite-weight factors. *)
  let keep = Array.make n false in
  let kept = ref 0 in
  for f = 0 to n - 1 do
    let w = Table.weight g.tphi f in
    if Float.is_finite w && live g f then begin
      keep.(f) <- true;
      incr kept
    end
  done;
  let var_of_id = Hashtbl.create (2 * max 16 n) in
  let ids = ref [] in
  let intern id =
    if id = null then -1
    else
      match Hashtbl.find_opt var_of_id id with
      | Some v -> v
      | None ->
        let v = Hashtbl.length var_of_id in
        Hashtbl.add var_of_id id v;
        ids := id :: !ids;
        v
  in
  let m = !kept in
  let head = Array.make m 0
  and body1 = Array.make m (-1)
  and body2 = Array.make m (-1)
  and fweight = Array.make m 0.
  and singleton = Array.make m false in
  let fi = ref 0 in
  for f = 0 to n - 1 do
    if keep.(f) then begin
      let i1 = Table.get g.tphi f 0
      and i2 = Table.get g.tphi f 1
      and i3 = Table.get g.tphi f 2 in
      head.(!fi) <- intern i1;
      body1.(!fi) <- intern i2;
      body2.(!fi) <- intern i3;
      fweight.(!fi) <- Table.weight g.tphi f;
      singleton.(!fi) <- i2 = null && i3 = null;
      incr fi
    end
  done;
  let var_ids = Array.of_list (List.rev !ids) in
  let nv = Array.length var_ids in
  (* CSR adjacency: variable -> factors mentioning it. *)
  (* Each factor is listed once per *distinct* variable so that Gibbs
     never double-counts a factor whose head coincides with a body atom. *)
  let distinct_vars f each =
    let h = head.(f) and b1 = body1.(f) and b2 = body2.(f) in
    each h;
    if b1 >= 0 && b1 <> h then each b1;
    if b2 >= 0 && b2 <> h && b2 <> b1 then each b2
  in
  let deg = Array.make (nv + 1) 0 in
  for f = 0 to m - 1 do
    distinct_vars f (fun v -> deg.(v + 1) <- deg.(v + 1) + 1)
  done;
  for v = 1 to nv do
    deg.(v) <- deg.(v) + deg.(v - 1)
  done;
  let adj_off = Array.copy deg in
  let adj = Array.make deg.(nv) 0 in
  let cursor = Array.copy adj_off in
  for f = 0 to m - 1 do
    distinct_vars f (fun v ->
        adj.(cursor.(v)) <- f;
        cursor.(v) <- cursor.(v) + 1)
  done;
  {
    var_ids;
    var_of_id;
    head;
    body1;
    body2;
    fweight;
    singleton;
    adj_off;
    adj;
  }

let permute c perm =
  let n = nvars c in
  let fail () = invalid_arg "Fgraph.permute: not a permutation" in
  if Array.length perm <> n then fail ();
  let new_of = Array.make n (-1) in
  Array.iteri
    (fun nv v ->
      if v < 0 || v >= n || new_of.(v) >= 0 then fail ();
      new_of.(v) <- nv)
    perm;
  let remap v = if v < 0 then v else new_of.(v) in
  let var_ids = Array.map (fun v -> c.var_ids.(v)) perm in
  let var_of_id = Hashtbl.create (2 * max 16 n) in
  Array.iteri (fun nv id -> Hashtbl.add var_of_id id nv) var_ids;
  let adj_off = Array.make (n + 1) 0 in
  Array.iteri
    (fun nv v ->
      adj_off.(nv + 1) <- adj_off.(nv) + c.adj_off.(v + 1) - c.adj_off.(v))
    perm;
  let adj = Array.make (Array.length c.adj) 0 in
  (* Each variable's slots move as one block, in their original order,
     so a conditional sums the same terms in the same order. *)
  Array.iteri
    (fun nv v ->
      Array.blit c.adj c.adj_off.(v) adj adj_off.(nv)
        (adj_off.(nv + 1) - adj_off.(nv)))
    perm;
  {
    var_ids;
    var_of_id;
    head = Array.map remap c.head;
    body1 = Array.map remap c.body1;
    body2 = Array.map remap c.body2;
    fweight = Array.copy c.fweight;
    singleton = Array.copy c.singleton;
    adj_off;
    adj;
  }

let satisfied c f assignment =
  if c.singleton.(f) then assignment.(c.head.(f))
  else
    let body_true =
      (c.body1.(f) < 0 || assignment.(c.body1.(f)))
      && (c.body2.(f) < 0 || assignment.(c.body2.(f)))
    in
    (not body_true) || assignment.(c.head.(f))
