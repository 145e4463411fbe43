type entry = { label : string; seconds : float; rows_out : int }
type t = { mutable entries : entry list (* newest first *) }

let create () = { entries = [] }

let record st ~label ~seconds ~rows_out =
  st.entries <- { label; seconds; rows_out } :: st.entries

let time st ~label ~rows f =
  let t0 = Obs.now () in
  let result = f () in
  let seconds = Obs.now () -. t0 in
  record st ~label ~seconds ~rows_out:(rows result);
  result

let queries st = List.length st.entries
let total_seconds st = List.fold_left (fun a e -> a +. e.seconds) 0. st.entries
let total_rows st = List.fold_left (fun a e -> a + e.rows_out) 0 st.entries
let entries st = List.rev st.entries
let reset st = st.entries <- []
let merge dst src = dst.entries <- src.entries @ dst.entries

let pp ppf st =
  let by_label = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let n, s, r =
        Option.value ~default:(0, 0., 0) (Hashtbl.find_opt by_label e.label)
      in
      Hashtbl.replace by_label e.label (n + 1, s +. e.seconds, r + e.rows_out))
    st.entries;
  let rows =
    Hashtbl.fold (fun label v acc -> (label, v) :: acc) by_label []
    |> List.sort compare
  in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (label, (n, s, r)) ->
      Format.fprintf ppf "%-28s %6d queries  %8.3fs  %10d rows@," label n s r)
    rows;
  Format.fprintf ppf "@]"
