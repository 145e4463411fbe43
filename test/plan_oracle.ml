(* The materializing plan executor, a test oracle: every node of a
   [Relational.Plan.t] is materialized bottom-up, one table per node,
   with the public operators ([Join.hash_join], [Ops.distinct]) and a
   row loop for projections.  It shares nothing with the pipelined
   executor it checks but the plan's schema and cardinality estimates: a
   join builds on the input with the smaller estimate (ties build left),
   which fixes the order of its output rows.  [Plan.run] must reproduce
   its tables — rows, order and weights — bit for bit. *)

module Table = Relational.Table
module Plan = Relational.Plan
module Join = Relational.Join

let project tbl cols =
  let out =
    Table.create ~weighted:(Table.weighted tbl) ~name:"project"
      (Array.map (fun c -> (Table.cols tbl).(c)) cols)
  in
  Table.iter
    (fun r ->
      let row = Array.map (fun c -> Table.get tbl r c) cols in
      if Table.weighted tbl then Table.append_w out row (Table.weight tbl r)
      else Table.append out row)
    tbl;
  out

(* [run p] is [p]'s result table; a bare scan is its own table. *)
let run p =
  ignore (Plan.columns p);
  let rec go p =
    match p with
    | Plan.Scan tbl -> tbl
    | Plan.Project (cols, child) -> project (go child) cols
    | Plan.Equi_join { left; right; lkey; rkey } ->
      (* The output columns are the left input's, then the right
         input's, whichever side builds. *)
      let l = go left and r = go right in
      let side s t = Array.init (Table.width t) (fun c -> Join.Col (s, c)) in
      let join = Join.hash_join ~name:"join" ~cols:(Plan.columns p) in
      if Plan.estimate_rows left <= Plan.estimate_rows right then
        join
          ~out:(Array.append (side Join.Build l) (side Join.Probe r))
          ~oweight:Join.No_weight (l, lkey) (r, rkey)
      else
        join
          ~out:(Array.append (side Join.Probe l) (side Join.Build r))
          ~oweight:Join.No_weight (r, rkey) (l, lkey)
    | Plan.Distinct (key, child) ->
      let input = go child in
      Relational.Ops.distinct input
        (Option.value key ~default:(Array.init (Table.width input) Fun.id))
  in
  go p
