(* Test oracles for the join access paths.

   [nested_loop] is the O(n·m) definition of {!Relational.Join.hash_join}
   (the same output spec, residual and inline-DISTINCT flag).

   [atoms_delta] is the semi-naive two-atom Query 1-i by its contract:
   the full scan join over TΠ — J = Mi ⋈ TΠ, then J ⋈ TΠ, each a hash
   join streaming all of TΠ — keeping only the derivations with a body
   atom bound to a Δ fact.  It shares no code with
   {!Grounding.Queries.delta_terms}.  [factors_delta] runs the two union
   terms of the incremental Query 2-i ({!Grounding.Queries.delta_terms})
   the way they ran before step 2 probed TΠ's maintained partial-key
   indexes: it builds a hash index on the Δ-sized J and scans all of TΠ
   through it.  {!Grounding.Queries.ground_atoms_delta} /
   [ground_factors_delta] must reproduce them row for row, in order,
   with bit-equal weights. *)

module Table = Relational.Table
module Index = Relational.Index
module Join = Relational.Join
module Queries = Grounding.Queries

let nested_loop ~name ~cols ~out ~oweight ?(dedup = false) ?residual
    (btbl, bkey) (ptbl, pkey) =
  if Array.length bkey <> Array.length pkey then
    invalid_arg "Join_oracle.nested_loop: key arity mismatch";
  let weighted = oweight <> Join.No_weight in
  let result = Table.create ~weighted ~name cols in
  let dedup_idx =
    if dedup then
      Some (Index.build result (Array.init (Array.length out) Fun.id))
    else None
  in
  let buf = Array.make (Array.length out) 0 in
  let emit brow prow =
    for i = 0 to Array.length out - 1 do
      buf.(i) <-
        (match out.(i) with
        | Join.Const v -> v
        | Join.Col (Join.Build, c) -> Table.get btbl brow c
        | Join.Col (Join.Probe, c) -> Table.get ptbl prow c)
    done;
    let fresh =
      match dedup_idx with
      | None -> true
      | Some idx -> not (Index.mem idx buf)
    in
    if fresh then begin
      (match oweight with
      | Join.No_weight -> Table.append result buf
      | Join.Weight_of Join.Build ->
        Table.append_w result buf (Table.weight btbl brow)
      | Join.Weight_of Join.Probe ->
        Table.append_w result buf (Table.weight ptbl prow));
      match dedup_idx with
      | Some idx -> Index.add idx (Table.nrows result - 1)
      | None -> ()
    end
  in
  let keys_equal brow prow =
    let rec eq i =
      i >= Array.length bkey
      || Table.get btbl brow bkey.(i) = Table.get ptbl prow pkey.(i) && eq (i + 1)
    in
    eq 0
  in
  let keep = match residual with None -> fun _ _ -> true | Some f -> f in
  for prow = 0 to Table.nrows ptbl - 1 do
    for brow = 0 to Table.nrows btbl - 1 do
      if keys_equal brow prow && keep brow prow then emit brow prow
    done
  done;
  result

(* Step 2 of one term as a scan: index J, stream all of TΠ through it. *)
let scan_term d ~t ~name ~cols ~out ~oweight ?dedup ?residual () =
  Join.hash_join ~name ~cols ~out ~oweight ?dedup ?residual
    (d.Queries.j, d.Queries.j_key)
    (t, d.Queries.t_key)

let atoms_delta p pat pi ~delta =
  let t = Kb.Storage.table pi in
  let in_delta = Hashtbl.create 64 in
  Table.iter (fun r -> Hashtbl.replace in_delta (Table.get delta r 0) ()) delta;
  let live row = Kb.Storage.live_row pi row in
  match Queries.shape_of pat with
  | Queries.Shape.One_atom _ -> invalid_arg "Join_oracle.atoms_delta"
  | Queries.Shape.Two_atom s2 as shape ->
    let j =
      Join.hash_join ~name:"j_oracle" ~cols:Queries.j_cols
        ~out:(Queries.step1_out shape) ~oweight:(Join.Weight_of Join.Build)
        ~dedup:true
        ~residual:(fun _ row -> live row)
        (Mln.Partition.table (Queries.partitions p) pat, s2.m_key1)
        (t, s2.t_key1)
    in
    Join.hash_join ~name:"atoms_oracle" ~cols:Queries.atom_cols
      ~out:(Queries.atoms_out shape) ~oweight:Join.No_weight ~dedup:true
      ~residual:(fun j_row row ->
        live row
        && (Hashtbl.mem in_delta (Table.get j j_row 7)
           || Hashtbl.mem in_delta (Table.get t row 0)))
      (j, s2.j_key2) (t, s2.t_key2)

(* Both terms' factor rows, each term's resolved into [g] in term order,
   the mirrored term restricted to old q atoms. *)
let factors_delta p pat pi ~delta ~watermark g =
  let t = Kb.Storage.table pi in
  List.fold_left
    (fun n d ->
      let residual =
        if d.Queries.mirrored then
          Some (fun _ p_row -> Table.get t p_row 0 < watermark)
        else None
      in
      let rows =
        scan_term d ~t ~name:"factors_term" ~cols:Queries.atom_i_cols
          ~out:d.Queries.factors_out ~oweight:(Join.Weight_of Join.Build)
          ?residual ()
      in
      n + Queries.resolve_heads rows pi g)
    0
    (Queries.delta_terms p pat ~delta:(Relational.Pipeline.of_table delta))
