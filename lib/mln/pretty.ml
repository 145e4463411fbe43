let weight w = if w = infinity then "inf" else Printf.sprintf "%g" w

let clause ~rel_name ~cls_name (c : Clause.t) =
  let seen : (Clause.var, unit) Hashtbl.t = Hashtbl.create 3 in
  let var v =
    if Hashtbl.mem seen v then Clause.var_name v
    else begin
      Hashtbl.add seen v ();
      let cls =
        match v with
        | Clause.X -> Some c.Clause.c1
        | Clause.Y -> Some c.Clause.c2
        | Clause.Z -> c.Clause.c3
      in
      match cls with
      | Some cl -> Printf.sprintf "%s:%s" (Clause.var_name v) (cls_name cl)
      | None -> Clause.var_name v
    end
  in
  let annotated (a : Clause.atom) =
    Printf.sprintf "%s(%s, %s)" (rel_name a.Clause.rel) (var a.Clause.a)
      (var a.Clause.b)
  in
  let head =
    Printf.sprintf "%s(%s, %s)" (rel_name c.Clause.head_rel) (var Clause.X)
      (var Clause.Y)
  in
  let body = String.concat ", " (List.map annotated c.Clause.body) in
  Printf.sprintf "%s %s :- %s" (weight c.Clause.weight) head body
