let parallel_distinct_threshold = 4096

(* DISTINCT is a pipeline with no kernels: the source streams straight
   into a dedup sink (per-morsel private sinks absorbed in morsel order
   when parallel — the first occurrence in row order wins, exactly as in
   a sequential pass).  Inline join dedup terminates in the same sink
   abstraction, so both paths report identical Obs counters. *)
let distinct_sink ?pool t key =
  let sink =
    Sink.create ~dedup_key:key ~weighted:(Table.weighted t)
      ~name:(Table.name t) (Table.cols t)
  in
  ignore
    (Pipeline.run ?pool ~threshold:parallel_distinct_threshold ~source:t
       ~make_sink:(fun () -> Sink.clone_empty sink)
       ~chain:Pipeline.into_sink ~sink ());
  sink

let distinct_raw ?pool t key = Sink.table (distinct_sink ?pool t key)

let distinct ?pool t key =
  let obs = Obs.ambient () in
  if not (Obs.enabled obs) then distinct_raw ?pool t key
  else begin
    let t0 = Obs.now () in
    let sink = distinct_sink ?pool t key in
    Sink.record_distinct_obs obs sink;
    Obs.add_time obs "distinct.seconds" (Obs.now () -. t0);
    Sink.table sink
  end

let group_count t key =
  let kcols = Array.map (fun c -> (Table.cols t).(c)) key in
  let groups =
    Table.create ~name:(Table.name t ^ "_groups")
      (Array.append kcols [| "count" |])
  in
  (* The group table's key columns are positions 0..k-1. *)
  let gkey = Array.init (Array.length key) (fun i -> i) in
  let idx = Index.build groups gkey in
  let kv = Array.make (Array.length key) 0 in
  let buf = Array.make (Array.length key + 1) 0 in
  for r = 0 to Table.nrows t - 1 do
    for i = 0 to Array.length key - 1 do
      kv.(i) <- Table.get t r key.(i)
    done;
    match Index.first_match idx kv with
    | Some g -> Table.set groups g (Array.length key) (Table.get groups g (Array.length key) + 1)
    | None ->
      Array.blit kv 0 buf 0 (Array.length kv);
      buf.(Array.length key) <- 1;
      Table.append groups buf;
      Index.add idx (Table.nrows groups - 1)
  done;
  groups

type agg = Count | Sum of int | Min of int | Max of int

let agg_name = function
  | Count -> "count"
  | Sum c -> Printf.sprintf "sum_%d" c
  | Min c -> Printf.sprintf "min_%d" c
  | Max c -> Printf.sprintf "max_%d" c

let group t key aggs =
  let aggs = Array.of_list aggs in
  let kcols = Array.map (fun c -> (Table.cols t).(c)) key in
  let out =
    Table.create ~name:(Table.name t ^ "_groups")
      (Array.append kcols (Array.map agg_name aggs))
  in
  let gkey = Array.init (Array.length key) Fun.id in
  let idx = Index.build out gkey in
  let kv = Array.make (Array.length key) 0 in
  let width = Array.length key + Array.length aggs in
  let buf = Array.make width 0 in
  let update g r =
    Array.iteri
      (fun i agg ->
        let col = Array.length key + i in
        let cur = Table.get out g col in
        let next =
          match agg with
          | Count -> cur + 1
          | Sum c -> cur + Table.get t r c
          | Min c -> min cur (Table.get t r c)
          | Max c -> max cur (Table.get t r c)
        in
        Table.set out g col next)
      aggs
  in
  for r = 0 to Table.nrows t - 1 do
    for i = 0 to Array.length key - 1 do
      kv.(i) <- Table.get t r key.(i)
    done;
    match Index.first_match idx kv with
    | Some g -> update g r
    | None ->
      Array.blit kv 0 buf 0 (Array.length kv);
      Array.iteri
        (fun i agg ->
          buf.(Array.length key + i) <-
            (match agg with
            | Count -> 1
            | Sum c | Min c | Max c -> Table.get t r c))
        aggs;
      Table.append out buf;
      Index.add idx (Table.nrows out - 1)
  done;
  out

let union_all = function
  | [] -> invalid_arg "Ops.union_all: empty list"
  | first :: rest ->
    let out = Table.copy first in
    List.iter (fun t -> Table.append_all out t) rest;
    out

let set_minus = Join.semi_join_absent

let count_where t p =
  let n = ref 0 in
  for r = 0 to Table.nrows t - 1 do
    if p r then incr n
  done;
  !n
