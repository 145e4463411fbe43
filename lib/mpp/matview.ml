(* TΠ columns: I=0 R=1 x=2 C1=3 y=4 C2=5. *)
let distribution_keys =
  [ [| 1; 3; 5 |]; [| 1; 3; 2; 5 |]; [| 1; 3; 5; 4 |]; [| 1; 3; 2; 5; 4 |] ]

type t = { views : (int array * Dtable.t) list }

let charge_view cluster cost facts ~measured_seconds dt =
  (* Building a view ships (nseg-1)/nseg of the table across the wire. *)
  let bytes =
    Dtable.byte_size dt * (cluster.Cluster.nseg - 1) / max 1 cluster.Cluster.nseg
  in
  Cost.charge ~measured_seconds cost
    (Cost.Redistribute
       {
         table = Relational.Table.name facts;
         rows = Relational.Table.nrows facts;
         bytes;
       })
    (cluster.Cluster.motion_latency_s
    +. (float_of_int bytes /. cluster.Cluster.bandwidth_bytes_per_s))

let create ?pool cluster cost facts =
  let pool = match pool with Some p -> p | None -> Pool.get_default () in
  let keys = Array.of_list distribution_keys in
  let t0 = Obs.now () in
  (* The four re-partitions only read [facts]; build them concurrently and
     charge their (sequentially folded) motions afterwards. *)
  let views =
    Pool.map_reduce pool ~n:(Array.length keys)
      ~map:(fun i ->
        let key = keys.(i) in
        (key, Dtable.partition cluster facts (Dtable.Hash key)))
      ~fold:(fun acc v -> v :: acc)
      ~init:[]
    |> List.rev
  in
  let measured_seconds =
    (Obs.now () -. t0) /. float_of_int (max 1 (Array.length keys))
  in
  List.iter (fun (_, dt) -> charge_view cluster cost facts ~measured_seconds dt) views;
  { views }

let append ?pool v facts ~from =
  let pool = match pool with Some p -> p | None -> Pool.get_default () in
  let views = Array.of_list v.views in
  Pool.map_reduce pool ~n:(Array.length views)
    ~map:(fun i -> Dtable.append (snd views.(i)) facts ~from)
    ~fold:(fun () () -> ())
    ~init:()

let subset d key = Array.for_all (fun c -> Array.exists (( = ) c) key) d

let pick v key =
  let best =
    List.fold_left
      (fun acc (d, dt) ->
        if subset d key then
          match acc with
          | Some (d', _) when Array.length d' >= Array.length d -> acc
          | _ -> Some (d, dt)
        else acc)
      None v.views
  in
  match best with
  | Some (_, dt) -> dt
  | None -> invalid_arg "Matview.pick: no view is a subset of the join key"

let finest v = List.assoc [| 1; 3; 2; 5; 4 |] v.views
