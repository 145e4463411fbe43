(* Shared helpers for the test suites. *)

module Table = Relational.Table

(* The worked example of the paper: Table 1 / Figures 2-3
   (Ruth Gruber, New York City, Brooklyn). *)
let ruth_gruber_kb () =
  let kb = Kb.Gamma.create () in
  let rules =
    [
      "1.40 live_in(x:W, y:P) :- born_in(x, y)";
      "1.53 live_in(x:W, y:C) :- born_in(x, y)";
      "2.68 grow_up_in(x:W, y:P) :- born_in(x, y)";
      "0.74 grow_up_in(x:W, y:C) :- born_in(x, y)";
      "0.32 located_in(x:P, y:C) :- live_in(z:W, x), live_in(z, y)";
      "0.52 located_in(x:P, y:C) :- born_in(z:W, x), born_in(z, y)";
    ]
  in
  ignore (Kb.Loader.load_rules kb rules);
  let f1 =
    Kb.Gamma.add_fact_by_name kb ~r:"born_in" ~x:"Ruth Gruber" ~c1:"W"
      ~y:"New York City" ~c2:"C" ~w:0.96
  in
  let f2 =
    Kb.Gamma.add_fact_by_name kb ~r:"born_in" ~x:"Ruth Gruber" ~c1:"W"
      ~y:"Brooklyn" ~c2:"P" ~w:0.93
  in
  (kb, f1, f2)

let fact_strings kb =
  let acc = ref [] in
  Kb.Storage.iter
    (fun ~id ~r:_ ~x:_ ~c1:_ ~y:_ ~c2:_ ~w:_ ->
      acc := Fmt.str "%a" (Kb.Gamma.pp_fact kb) id :: !acc)
    (Kb.Gamma.pi kb);
  List.sort compare !acc

(* Multiset comparison of two tables' rows (ignoring order and weights). *)
let rows_as_sorted_lists t =
  let rows = ref [] in
  Table.iter (fun r -> rows := Array.to_list (Table.row t r) :: !rows) t;
  List.sort compare !rows

let table_rows_equal a b = rows_as_sorted_lists a = rows_as_sorted_lists b

(* Deletes [path] and, for a directory, everything under it; a path
   already gone is skipped. *)
let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* A deterministic RNG for tests. *)
let rng seed = Random.State.make [| seed |]

let qcheck_case ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name gen prop)

(* Deep copy of a knowledge base (shared dictionaries). *)
let copy_gamma kb =
  let kb2 = Kb.Gamma.create_like kb in
  Kb.Storage.iter
    (fun ~id:_ ~r ~x ~c1 ~y ~c2 ~w ->
      ignore (Kb.Gamma.add_fact kb2 ~r ~x ~c1 ~y ~c2 ~w))
    (Kb.Gamma.pi kb);
  List.iter (Kb.Gamma.add_rule kb2) (Kb.Gamma.rules kb);
  List.iter (Kb.Gamma.add_funcon kb2) (Kb.Gamma.omega kb);
  kb2

(* The Query 2 oracle: TΦ as Algorithm 1's lines 8-10 state it, every
   pattern's Query 2-i over the final TΠ, in pattern order, then the
   singletons. *)
let query2_oracle kb =
  let pi = Kb.Gamma.pi kb in
  let p = Grounding.Queries.prepare (Kb.Gamma.partitions kb) in
  let g = Factor_graph.Fgraph.create () in
  List.iter
    (fun pat -> ignore (Grounding.Queries.ground_factors p pat pi g))
    Mln.Pattern.all;
  ignore (Grounding.Queries.singleton_factors pi g);
  g

(* TΠ rows in order (id, key, weight bits), TΦ rows in table order (ids,
   weight bits) and the trajectory, as raw bytes. *)
let ground_bits kb graph trajectory =
  let b = Buffer.create 4096 in
  let add_int i = Buffer.add_int64_le b (Int64.of_int i) in
  let add_float w = Buffer.add_int64_le b (Int64.bits_of_float w) in
  Kb.Storage.iter
    (fun ~id ~r ~x ~c1 ~y ~c2 ~w ->
      List.iter add_int [ id; r; x; c1; y; c2 ];
      add_float w)
    (Kb.Gamma.pi kb);
  Factor_graph.Fgraph.iter
    (fun _ (i1, i2, i3, w) ->
      List.iter add_int [ i1; i2; i3 ];
      add_float w)
    graph;
  List.iter
    (fun (p : Grounding.Ground.trajectory_point) ->
      List.iter add_int
        [ p.iteration; p.new_facts; p.total_facts; p.violations; p.removed ])
    trajectory;
  Buffer.contents b

(* A dense random KB: two relations, mostly one class and four
   entities, so J rows share their step-2 keys and TΠ keys repeat across
   rules. *)
let dense_kb st =
  let pick a = a.(Random.State.int st (Array.length a)) in
  let rel () = pick [| "p"; "q" |] and cls () = pick [| "C"; "C"; "C"; "D" |] in
  let ent () = pick [| "a"; "b"; "c"; "d" |] in
  let rule () =
    let w = pick [| "0.5"; "1.25"; "-0.75"; "2" |] in
    let h = rel () and q = rel () and r = rel () in
    let c1 = cls () and c2 = cls () and c3 = cls () in
    match Random.State.int st 5 with
    | 0 -> Printf.sprintf "%s %s(x:%s, y:%s) :- %s(x, y)" w h c1 c2 q
    | 1 ->
      Printf.sprintf "%s %s(x:%s, y:%s) :- %s(z:%s, x), %s(z, y)" w h c1 c2 q
        c3 r
    | 2 ->
      Printf.sprintf "%s %s(x:%s, y:%s) :- %s(x, z:%s), %s(z, y)" w h c1 c2 q
        c3 r
    | 3 ->
      Printf.sprintf "%s %s(x:%s, y:%s) :- %s(z:%s, x), %s(y, z)" w h c1 c2 q
        c3 r
    | _ ->
      Printf.sprintf "%s %s(x:%s, y:%s) :- %s(x, z:%s), %s(y, z)" w h c1 c2 q
        c3 r
  in
  let kb = Kb.Gamma.create () in
  ignore
    (Kb.Loader.load_rules kb
       (List.init (4 + Random.State.int st 8) (fun _ -> rule ())));
  let fact () =
    ( Kb.Gamma.relation kb (rel ()), Kb.Gamma.entity kb (ent ()),
      Kb.Gamma.cls kb (cls ()), Kb.Gamma.entity kb (ent ()),
      Kb.Gamma.cls kb (cls ()) )
  in
  for _ = 1 to 8 + Random.State.int st 12 do
    let r, x, c1, y, c2 = fact () in
    ignore (Kb.Gamma.add_fact kb ~r ~x ~c1 ~y ~c2 ~w:(Random.State.float st 1.))
  done;
  (kb, fact)
