module Clause = Mln.Clause
module Pattern = Mln.Pattern
module Table = Relational.Table

type issue =
  | Duplicate of Clause.t
  | Tautology of Clause.t
  | Never_fires of Clause.t
  | Non_positive_weight of Clause.t

let describe ~rel_name ~cls_name issue =
  let render c = Mln.Pretty.clause ~rel_name ~cls_name c in
  match issue with
  | Duplicate c -> "duplicate rule: " ^ render c
  | Tautology c -> "tautological rule (head equals a body atom): " ^ render c
  | Never_fires c ->
    "rule can never fire (no facts carry the body signature): " ^ render c
  | Non_positive_weight c -> "non-positive weight: " ^ render c

(* The class of an atom argument under the clause's typing. *)
let arg_class (c : Clause.t) = function
  | Clause.X -> c.Clause.c1
  | Clause.Y -> c.Clause.c2
  | Clause.Z -> Option.get c.Clause.c3

let head_equals_atom (c : Clause.t) (a : Clause.atom) =
  a.Clause.rel = c.Clause.head_rel
  && a.Clause.a = Clause.X && a.Clause.b = Clause.Y

(* Does TR record the relation with the atom's argument classes? *)
let signature_exists kb (c : Clause.t) (a : Clause.atom) =
  let tr = Kb.Gamma.tr kb in
  let dom = arg_class c a.Clause.a and rng = arg_class c a.Clause.b in
  let found = ref false in
  Table.iter
    (fun r ->
      if
        Table.get tr r 0 = a.Clause.rel
        && Table.get tr r 1 = dom
        && Table.get tr r 2 = rng
      then found := true)
    tr;
  !found

let check ?kb rules =
  let issues = ref [] in
  let push i = issues := i :: !issues in
  (* duplicates: by full identifier tuple and weight *)
  let seen = Hashtbl.create (2 * List.length rules) in
  List.iter
    (fun c ->
      (match Pattern.classify c with
      | Some p ->
        let key = (Pattern.index p, Pattern.identifier_tuple p c, c.Clause.weight) in
        if Hashtbl.mem seen key then push (Duplicate c)
        else Hashtbl.replace seen key ()
      | None -> ());
      if List.exists (head_equals_atom c) c.Clause.body then push (Tautology c);
      if c.Clause.weight <= 0. then push (Non_positive_weight c);
      match kb with
      | Some kb ->
        if not (List.for_all (signature_exists kb c) c.Clause.body) then
          push (Never_fires c)
      | None -> ())
    rules;
  List.rev !issues
