type var = X | Y | Z
type atom = { rel : int; a : var; b : var }

type t = {
  head_rel : int;
  body : atom list;
  c1 : int;
  c2 : int;
  c3 : int option;
  weight : float;
}

let vars_of atom = (atom.a, atom.b)

let uses_exactly atom v1 v2 =
  match vars_of atom with
  | a, b -> (a = v1 && b = v2) || (a = v2 && b = v1)

let valid c =
  List.for_all (fun at -> at.a <> at.b) c.body
  &&
  match (c.body, c.c3) with
  | [ q ], None -> uses_exactly q X Y
  | [ q; r ], Some _ -> uses_exactly q X Z && uses_exactly r Y Z
  | _ -> false

let make ~head_rel ~body ~c1 ~c2 ?c3 ~weight () =
  let c = { head_rel; body; c1; c2; c3; weight } in
  if not (valid c) then invalid_arg "Clause.make: invalid clause structure";
  c

let is_hard c = c.weight = infinity
let body_length c = List.length c.body
let equal (a : t) (b : t) = a = b
let var_name = function X -> "x" | Y -> "y" | Z -> "z"
