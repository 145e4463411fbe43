module Table = Relational.Table

type ftype = Type_I | Type_II
type t = { rel : int; ftype : ftype; degree : int }

let make ~rel ~ftype ~degree =
  if degree < 1 then invalid_arg "Funcon.make: degree must be >= 1";
  { rel; ftype; degree }

let alpha_to_int = function Type_I -> 1 | Type_II -> 2

let alpha_of_int = function
  | 1 -> Type_I
  | 2 -> Type_II
  | a -> invalid_arg (Printf.sprintf "Funcon.of_table: alpha %d" a)

let to_table cs =
  let tbl = Table.create ~name:"T_Omega" [| "R"; "alpha"; "deg" |] in
  List.iter
    (fun c -> Table.append tbl [| c.rel; alpha_to_int c.ftype; c.degree |])
    cs;
  tbl

let of_table tbl =
  let acc = ref [] in
  Table.iter
    (fun r ->
      acc :=
        {
          rel = Table.get tbl r 0;
          ftype = alpha_of_int (Table.get tbl r 1);
          degree = Table.get tbl r 2;
        }
        :: !acc)
    tbl;
  List.rev !acc
