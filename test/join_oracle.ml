(* Test oracles for the join access paths.

   [nested_loop] is the O(n·m) definition of {!Relational.Join.hash_join}
   (the same output spec, residual and inline-DISTINCT flag).

   [derivations_delta] is the semi-naive Query 2-i by its contract: the
   full scan join over TΠ ({!Grounding.Queries.derivations}, J = Mi ⋈ TΠ
   then J ⋈ TΠ, each a hash join streaming all of TΠ), keeping the rows
   with a body id at or above [from], in the scan's order.  It shares no
   code with the delta query's union terms, index probes or merge.
   {!Grounding.Queries.derivations_delta} must reproduce it row for row,
   in order, with bit-equal weights, on a store with no tombstoned rows
   (the full scan does not skip them). *)

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

let derivations_delta p pat pi ~from =
  let rows = Queries.derivations p pat pi in
  Table.filter rows (fun r ->
      Table.get rows r 5 >= from || Table.get rows r 6 >= from)
