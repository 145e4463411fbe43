module Table = Relational.Table
module Index = Relational.Index

let seconds_for cluster bytes =
  cluster.Cluster.motion_latency_s
  +. (float_of_int bytes /. cluster.Cluster.bandwidth_bytes_per_s)

let redistribute_cost cluster dt =
  (* On average (nseg-1)/nseg of the rows change segment. *)
  let moved =
    Dtable.byte_size dt * (cluster.Cluster.nseg - 1) / max 1 cluster.Cluster.nseg
  in
  seconds_for cluster moved

let broadcast_cost cluster dt =
  seconds_for cluster (Dtable.byte_size dt * (cluster.Cluster.nseg - 1))

(* Each shard is read once: the schema comes from shard metadata, so a
   spilled shard is decoded only in the loop. *)
let redistribute cluster cost dt key =
  let nseg = cluster.Cluster.nseg in
  let name, cols, weighted = Dtable.seg_meta dt 0 in
  let segs =
    Array.init nseg (fun i ->
        let s =
          Table.create ~weighted ~name:(Printf.sprintf "%s@%d" name i) cols
        in
        Table.reserve s (Dtable.nrows dt / nseg);
        s)
  in
  let moved = ref 0 in
  for s = 0 to Dtable.nseg dt - 1 do
    let local = Dtable.seg dt s in
    Table.iter
      (fun r ->
        let target = Index.hash_row local key r mod nseg in
        if target <> s then moved := !moved + Table.row_bytes local;
        Table.append_from segs.(target) local r)
      local
  done;
  let rows = Dtable.nrows dt in
  Cost.charge cost
    (Cost.Redistribute { table = Dtable.name dt; rows; bytes = !moved })
    (seconds_for cluster !moved);
  Dtable.of_segments segs (Dtable.Hash key)

let broadcast cluster cost dt =
  let full = Dtable.gather dt in
  let bytes = Table.byte_size full * (cluster.Cluster.nseg - 1) in
  Cost.charge cost
    (Cost.Broadcast
       { table = Dtable.name dt; rows = Table.nrows full; bytes })
    (seconds_for cluster bytes);
  (* Every segment reads the one gathered copy; the motion is charged
     on the bytes each would receive. *)
  Dtable.of_segments (Array.make cluster.Cluster.nseg full) Dtable.Replicated

let gather cluster cost dt =
  let full = Dtable.gather dt in
  let bytes = Table.byte_size full in
  Cost.charge cost
    (Cost.Gather { table = Dtable.name dt; rows = Table.nrows full; bytes })
    (seconds_for cluster bytes);
  full
