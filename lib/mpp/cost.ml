type op =
  | Seq_scan of { table : string; rows : int }
  | Hash_join of { name : string; rows_out : int; max_seg_rows : int }
  | Redistribute of { table : string; rows : int; bytes : int }
  | Broadcast of { table : string; rows : int; bytes : int }
  | Gather of { table : string; rows : int; bytes : int }
  | Coordinator of { label : string; rows : int }

type entry = { op : op; sim_seconds : float; measured_seconds : float }

type t = {
  mutable entries : entry list;
  mutable elapsed : float;
  mutable measured : float;
}

let create () = { entries = []; elapsed = 0.; measured = 0. }

let charge ?(measured_seconds = 0.) t op sim_seconds =
  t.entries <- { op; sim_seconds; measured_seconds } :: t.entries;
  t.elapsed <- t.elapsed +. sim_seconds;
  t.measured <- t.measured +. measured_seconds

let elapsed t = t.elapsed
let measured_seconds t = t.measured
let entries t = List.rev t.entries

let motion_bytes t =
  List.fold_left
    (fun acc e ->
      match e.op with
      | Redistribute { bytes; _ } | Broadcast { bytes; _ } | Gather { bytes; _ }
        ->
        acc + bytes
      | Seq_scan _ | Hash_join _ | Coordinator _ -> acc)
    0 t.entries

let pp_op ppf = function
  | Seq_scan { table; rows } -> Format.fprintf ppf "Seq Scan on %s (%d rows)" table rows
  | Hash_join { name; rows_out; max_seg_rows } ->
    Format.fprintf ppf "Hash Join %s (%d rows out, %d max/seg)" name rows_out
      max_seg_rows
  | Redistribute { table; rows; bytes } ->
    Format.fprintf ppf "Redistribute Motion %s (%d rows, %.1f MB)" table rows
      (float_of_int bytes /. 1048576.)
  | Broadcast { table; rows; bytes } ->
    Format.fprintf ppf "Broadcast Motion %s (%d rows, %.1f MB)" table rows
      (float_of_int bytes /. 1048576.)
  | Gather { table; rows; bytes } ->
    Format.fprintf ppf "Gather Motion %s (%d rows, %.1f MB)" table rows
      (float_of_int bytes /. 1048576.)
  | Coordinator { label; rows } ->
    Format.fprintf ppf "Coordinator %s (%d rows)" label rows

let pp_plan ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun e ->
      Format.fprintf ppf "%7.3fs  %a@," e.sim_seconds pp_op e.op)
    (entries t);
  Format.fprintf ppf "total %7.3fs simulated (%.3fs measured), %.1f MB shipped@]"
    t.elapsed t.measured
    (float_of_int (motion_bytes t) /. 1048576.)
