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

(* A table's rows as sorted int lists (ignoring weights), for checks
   against a literal list. *)
let rows_as_sorted_lists t =
  let rows = ref [] in
  Table.iter (fun r -> rows := Array.to_list (Table.row t r) :: !rows) t;
  List.sort compare !rows

(* A table's rows, weights ignored, sorted lexicographically and laid
   end to end in one int array; [~distinct:true] keeps one copy of each
   row.  Tests compare join outputs of millions of rows over a few
   small values, so when the columns' value ranges multiply to at most
   [4n + 1024] each row becomes one mixed-radix key and a counting sort
   over the keys orders them in O(n); other tables sort their row
   indexes. *)
let sorted_rows ?(distinct = false) t =
  let k = Table.width t and n = Table.nrows t in
  let rows = Array.make (k * n) 0 in
  for r = 0 to n - 1 do
    Table.blit_row t r rows (k * r)
  done;
  let out = Array.make (k * n) 0 and m = ref 0 in
  let lo = Array.make k max_int and span = Array.make k 1 in
  for c = 0 to k - 1 do
    let hi = ref min_int in
    for r = 0 to n - 1 do
      let v = rows.((k * r) + c) in
      if v < lo.(c) then lo.(c) <- v;
      if v > !hi then hi := v
    done;
    if n > 0 then span.(c) <- !hi - lo.(c) + 1
  done;
  let limit = (4 * n) + 1024 in
  let keys =
    Array.fold_left
      (fun acc s -> if s > 0 && acc <= limit / s then acc * s else limit + 1)
      1 span
  in
  if keys <= limit then begin
    let count = Array.make keys 0 in
    for r = 0 to n - 1 do
      let key = ref 0 in
      for c = 0 to k - 1 do
        key := (!key * span.(c)) + rows.((k * r) + c) - lo.(c)
      done;
      count.(!key) <- count.(!key) + 1
    done;
    Array.iteri
      (fun key copies ->
        if copies > 0 then begin
          let first = k * !m and rest = ref key in
          for c = k - 1 downto 0 do
            out.(first + c) <- lo.(c) + (!rest mod span.(c));
            rest := !rest / span.(c)
          done;
          let copies = if distinct then 1 else copies in
          for i = 1 to copies - 1 do
            for c = 0 to k - 1 do
              out.(first + (k * i) + c) <- out.(first + c)
            done
          done;
          m := !m + copies
        end)
      count
  end
  else begin
    let rec cmp i j c =
      if c = k then 0
      else
        match Int.compare rows.((k * i) + c) rows.((k * j) + c) with
        | 0 -> cmp i j (c + 1)
        | d -> d
    in
    let idx = Array.init n Fun.id in
    Array.stable_sort (fun i j -> cmp i j 0) idx;
    Array.iteri
      (fun p i ->
        if not (distinct && p > 0 && cmp idx.(p - 1) i 0 = 0) then begin
          Array.blit rows (k * i) out (k * !m) k;
          incr m
        end)
      idx
  end;
  if !m = n then out else Array.sub out 0 (k * !m)

(* Multiset comparison of two tables' rows (ignoring order and
   weights). *)
let table_rows_equal a b =
  Table.nrows a = Table.nrows b && sorted_rows a = sorted_rows b

(* Rows [lo, hi)] of an in-memory table as one segment of a segmented
   source: the test double for a spilled store.  Its row ids are the
   table's own row indices, so [base_rid] is implied by [lo]. *)
let seg_of_table ~lo ~hi tbl =
  let n = max 0 (hi - lo) in
  let scan ~capacity ~base_rid:_ push =
    let b =
      Relational.Batch.create
        ~capacity:(max 1 (min capacity n))
        ~weighted:(Table.weighted tbl) (Table.width tbl)
    in
    let batches = ref 0 in
    for r = lo to hi - 1 do
      if Relational.Batch.is_full b then begin
        incr batches;
        push b;
        Relational.Batch.clear b
      end;
      Relational.Batch.push_from_table b tbl r
    done;
    if not (Relational.Batch.is_empty b) then begin
      incr batches;
      push b
    end;
    !batches
  in
  { Relational.Segsrc.rows = n; scan }

(* [tbl] as a segmented source cut at [bounds] (ascending, from 0 to
   its row count; equal neighbours make an empty segment). *)
let segmented tbl bounds =
  let rec segs = function
    | lo :: (hi :: _ as rest) -> seg_of_table ~lo ~hi tbl :: segs rest
    | _ -> []
  in
  {
    Relational.Segsrc.name = Table.name tbl;
    cols = Table.cols tbl;
    weighted = Table.weighted tbl;
    segs = Array.of_list (segs bounds);
  }

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

(* [in_region pool n f] is [[| f 0; ..; f (n - 1) |]], each run as one
   task of a region on [pool], as grounding runs its per-pattern
   queries. *)
let in_region pool n f =
  Pool.map_reduce pool ~n ~map:f ~fold:(fun acc t -> t :: acc) ~init:[]
  |> List.rev |> Array.of_list

let qcheck_case ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name gen prop)

(* Byte-fuzz inputs for a parser: up to 64 random bytes, or one of the
   [valid] lines after one to four byte edits (overwrite, insert, delete
   or truncate).  Each new byte is half the time drawn from [alphabet],
   the characters the parser branches on. *)
let arb_fuzzed ~alphabet valid =
  let open QCheck.Gen in
  let byte =
    oneof
      [ char; oneofl (List.init (String.length alphabet) (String.get alphabet)) ]
  in
  let edit s =
    let n = String.length s in
    let+ kind = int_bound 3 and+ pos = int_bound n and+ c = byte in
    let before = String.sub s 0 pos
    and from k = String.sub s (min n (pos + k)) (n - min n (pos + k)) in
    match kind with
    | 0 -> before ^ String.make 1 c ^ from 1
    | 1 -> before ^ String.make 1 c ^ from 0
    | 2 -> before ^ from 1
    | _ -> before
  in
  let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
  let mutated =
    let* s = oneofl valid and* k = int_range 1 4 in
    edits k s
  in
  QCheck.make ~print:(Printf.sprintf "%S")
    (oneof [ string_size ~gen:byte (int_bound 64); mutated ])

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

(* Per fact id: the derivations, supports and prior an adjacency lists,
   in its listing order. *)
let adjacency_lists (adj : Grounding.Local.adjacency) ids =
  List.map
    (fun v ->
      let collect iter =
        let acc = ref [] in
        iter v (fun f -> acc := f :: !acc);
        List.rev !acc
      in
      ( collect adj.Grounding.Local.iter_derivations,
        collect adj.Grounding.Local.iter_supports,
        adj.Grounding.Local.singleton_of v ))
    ids
