module Table = Relational.Table
module Join = Relational.Join

type alignment = Replicated | Aligned of int array | Not_aligned

(* Positions within [key] of the distribution columns, in distribution
   order; two sides are collocated when these position sequences match. *)
let alignment key = function
  | Dtable.Replicated -> Replicated
  | Dtable.Unknown -> Not_aligned
  | Dtable.Hash d ->
    let find c =
      let rec go i =
        if i >= Array.length key then raise Not_found
        else if key.(i) = c then i
        else go (i + 1)
      in
      go 0
    in
    (match Array.map find d with
    | s -> Aligned s
    | exception Not_found -> Not_aligned)

(* The output distribution: if every distribution column of the local
   plan survives projection, the result stays hash-distributed on the
   corresponding output columns. *)
let derived_dist out bkey pkey = function
  | None -> Dtable.Unknown
  | Some s ->
    let find_out i =
      let want_b = Join.Col (Join.Build, bkey.(i)) in
      let want_p = Join.Col (Join.Probe, pkey.(i)) in
      let rec go j =
        if j >= Array.length out then raise Not_found
        else if out.(j) = want_b || out.(j) = want_p then j
        else go (j + 1)
      in
      go 0
    in
    (match Array.map find_out s with
    | cols -> Dtable.Hash cols
    | exception Not_found -> Dtable.Unknown)

let local_join ?pool cluster cost ~name ~cols ~out ~oweight ?dedup ?residual
    bdt bkey pdt pkey ~key_subset =
  let nseg = cluster.Cluster.nseg in
  let both_replicated =
    Dtable.dist bdt = Dtable.Replicated && Dtable.dist pdt = Dtable.Replicated
  in
  let weighted = oweight <> Join.No_weight in
  let empty i = Table.create ~weighted ~name:(Printf.sprintf "%s@%d" name i) cols in
  let pool = match pool with Some p -> p | None -> Pool.get_default () in
  let t0 = Obs.now () in
  (* The per-segment plans are independent, so they execute concurrently
     on the domain pool — the collocated-join parallelism of Figure 4,
     measured for real instead of only simulated.  Each segment's join
     runs on the domain that takes the segment; a segment with an empty
     side runs none. *)
  let segs =
    Pool.map_reduce pool ~n:nseg
      ~map:(fun i ->
        if
          (both_replicated && i > 0)
          || Dtable.seg_rows bdt i = 0
          || Dtable.seg_rows pdt i = 0
        then empty i
        else
          (* The build side is indexed on every segment, a replicated one
             too; the probe side streams in place — a spilled shard from
             its segments, never materialized. *)
          Join.hash_join_pre ~name:(Printf.sprintf "%s@%d" name i) ~cols ~out
            ~oweight ?dedup ?residual
            (Join.build (Dtable.seg bdt i) bkey)
            (Dtable.source pdt i, pkey))
      ~fold:(fun acc s -> s :: acc)
      ~init:[]
    |> List.rev |> Array.of_list
  in
  let measured = Obs.now () -. t0 in
  let max_seg = ref 0 in
  let rows_out = ref 0 in
  Array.iteri
    (fun i result ->
      if not (both_replicated && i > 0) then begin
        (* Counts only — [seg] would re-materialize disk-backed shards. *)
        let work =
          Dtable.seg_rows bdt i + Dtable.seg_rows pdt i + Table.nrows result
        in
        max_seg := max !max_seg work;
        rows_out := !rows_out + Table.nrows result
      end)
    segs;
  Cost.charge ~measured_seconds:measured cost
    (Cost.Hash_join { name; rows_out = !rows_out; max_seg_rows = !max_seg })
    (float_of_int !max_seg *. cluster.Cluster.cost_per_row);
  (* A replicated×replicated join computed only on segment 0 must not be
     marked Replicated: the other segments hold empty pieces. *)
  let dist =
    if both_replicated then Dtable.Unknown
    else derived_dist out bkey pkey key_subset
  in
  Dtable.of_segments segs dist

let all_positions key = Array.init (Array.length key) Fun.id

let hash_join ?pool cluster cost ~name ~cols ~out ~oweight ?dedup ?residual
    (bdt, bkey) (pdt, pkey) =
  if Array.length bkey <> Array.length pkey then
    invalid_arg "Djoin.hash_join: key arity mismatch";
  let run ?key_subset b p =
    local_join ?pool cluster cost ~name ~cols ~out ~oweight ?dedup ?residual b
      bkey p pkey ~key_subset
  in
  let ba = alignment bkey (Dtable.dist bdt)
  and pa = alignment pkey (Dtable.dist pdt) in
  match (ba, pa) with
  | Replicated, Replicated -> run bdt pdt
  | Replicated, Aligned s | Aligned s, Replicated -> run ~key_subset:s bdt pdt
  | Replicated, Not_aligned | Not_aligned, Replicated -> run bdt pdt
  | Aligned sb, Aligned sp when sb = sp -> run ~key_subset:sb bdt pdt
  | _ ->
    (* Candidate plans with their motion costs. *)
    let sub key s = Array.map (fun i -> key.(i)) s in
    let candidates =
      [
        (* redistribute both by the full join key *)
        ( Motion.redistribute_cost cluster bdt
          +. Motion.redistribute_cost cluster pdt,
          fun () ->
            let b = Motion.redistribute cluster cost bdt bkey in
            let p = Motion.redistribute cluster cost pdt pkey in
            run ~key_subset:(all_positions bkey) b p );
        (* broadcast the build side *)
        ( Motion.broadcast_cost cluster bdt,
          fun () -> run (Motion.broadcast cluster cost bdt) pdt );
        (* broadcast the probe side *)
        ( Motion.broadcast_cost cluster pdt,
          fun () -> run bdt (Motion.broadcast cluster cost pdt) );
      ]
      @ (match ba with
        | Aligned s ->
          [
            (* probe follows the build side's distribution *)
            ( Motion.redistribute_cost cluster pdt,
              fun () ->
                let p = Motion.redistribute cluster cost pdt (sub pkey s) in
                run ~key_subset:s bdt p );
          ]
        | Replicated | Not_aligned -> [])
      @
      match pa with
      | Aligned s ->
        [
          ( Motion.redistribute_cost cluster bdt,
            fun () ->
              let b = Motion.redistribute cluster cost bdt (sub bkey s) in
              run ~key_subset:s b pdt );
        ]
      | Replicated | Not_aligned -> []
    in
    let _, best =
      List.fold_left
        (fun (bc, bf) (c, f) -> if c < bc then (c, f) else (bc, bf))
        (infinity, fun () -> assert false)
        candidates
    in
    best ()
