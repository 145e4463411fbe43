module Table = Relational.Table

let null = -1

type t = { tphi : Table.t }

let create () =
  { tphi = Table.create ~weighted:true ~name:"T_Phi" [| "I1"; "I2"; "I3" |] }

let table ~g = g.tphi
let add_singleton g ~i ~w = Table.append_w g.tphi [| i; null; null |] w

let add_clause g ~i1 ?(i2 = null) ?(i3 = null) ~w () =
  Table.append_w g.tphi [| i1; i2; i3 |] w

let append_rows g tbl = Table.append_all g.tphi tbl
let size g = Table.nrows g.tphi

let factor g f =
  ( Table.get g.tphi f 0,
    Table.get g.tphi f 1,
    Table.get g.tphi f 2,
    Table.weight g.tphi f )

let iter f g =
  for i = 0 to size g - 1 do
    f i (factor g i)
  done

let retain g ~keep =
  let n = size g in
  if Array.length keep <> n then invalid_arg "Fgraph.retain: mask length";
  let remap = Array.make n (-1) in
  let next = ref 0 in
  for f = 0 to n - 1 do
    if keep.(f) then begin
      remap.(f) <- !next;
      incr next
    end
  done;
  if !next < n then begin
    (* [Table.filter] appends survivors in scan order, so the surviving
       factors keep their relative order — [compile] interns variables in
       factor-table order, so variable numbering (and the chromatic
       schedule) of the untouched part of the graph stays stable. *)
    let kept = Table.filter g.tphi (fun f -> keep.(f)) in
    Table.clear g.tphi;
    Table.append_all g.tphi kept
  end;
  (n - !next, remap)

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
  slot_roles : int array;
  slot_weights : float array;
}

let role_inert = 0
let role_prior = 1
let role_head = 2
let role_body = 3
let nvars c = Array.length c.var_ids

let compile g =
  let n = size g in
  (* Keep only finite-weight factors. *)
  let keep = Array.make n false in
  let kept = ref 0 in
  for f = 0 to n - 1 do
    let w = Table.weight g.tphi f in
    if Float.is_finite w then begin
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
  (* The role-coded copy of [adj]: what flipping the slot's variable [v]
     does to the factor, decided once here rather than by evaluating
     [satisfied] with [v] true and false on every update. *)
  let slot_roles = Array.make (3 * deg.(nv)) (-1) in
  let slot_weights = Array.make deg.(nv) 0. in
  let code k role x y w =
    slot_roles.(3 * k) <- role;
    slot_roles.((3 * k) + 1) <- x;
    slot_roles.((3 * k) + 2) <- y;
    slot_weights.(k) <- w
  in
  for v = 0 to nv - 1 do
    for k = adj_off.(v) to adj_off.(v + 1) - 1 do
      let f = adj.(k) in
      let h = head.(f) and b1 = body1.(f) and b2 = body2.(f) in
      if singleton.(f) then code k role_prior (-1) (-1) fweight.(f)
      else if v <> h then begin
        (* [v] is a body atom; [x] is the other one, if there is one. *)
        let x = if v = b1 then b2 else b1 in
        code k role_body (if x = v then -1 else x) h (-.fweight.(f))
      end
      else if v = b1 || v = b2 then code k role_inert (-1) (-1) 0.
      else begin
        (* A clause has at least one body atom; with one, it fills both
           other-variable fields. *)
        let x = if b1 >= 0 then b1 else b2 in
        code k role_head x (if b2 >= 0 then b2 else x) fweight.(f)
      end
    done
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
    slot_roles;
    slot_weights;
  }

let satisfied c f assignment =
  if c.singleton.(f) then assignment.(c.head.(f))
  else
    let body_true =
      (c.body1.(f) < 0 || assignment.(c.body1.(f)))
      && (c.body2.(f) < 0 || assignment.(c.body2.(f)))
    in
    (not body_true) || assignment.(c.head.(f))
