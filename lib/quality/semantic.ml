module Table = Relational.Table
module Join = Relational.Join
module Ops = Relational.Ops
module Funcon = Kb.Funcon
module Storage = Kb.Storage

type violation = {
  entity : int;
  cls : int;
  rel : int;
  ftype : Funcon.ftype;
  count : int;
  degree : int;
}

(* TΠ columns: I=0 R=1 x=2 C1=3 y=4 C2=5.
   For Type I the constrained position is (x, C1); for Type II, (y, C2).
   Following Query 3 of the paper we group by (R, entity, entity-class,
   other-class) and compare the group size against the degree. *)

let positions = function
  | Funcon.Type_I -> (2, 3, 5) (* entity, its class, other class *)
  | Funcon.Type_II -> (4, 5, 3)

let degree_map omega ftype =
  let m = Hashtbl.create 16 in
  List.iter
    (fun (c : Funcon.t) ->
      if c.Funcon.ftype = ftype then
        match Hashtbl.find_opt m c.Funcon.rel with
        | Some d -> Hashtbl.replace m c.Funcon.rel (min d c.Funcon.degree)
        | None -> Hashtbl.replace m c.Funcon.rel c.Funcon.degree)
    omega;
  m

let violations_of_type pi omega ftype =
  let degrees = degree_map omega ftype in
  if Hashtbl.length degrees = 0 then []
  else begin
    let ent, ecls, ocls = positions ftype in
    let facts = Storage.table pi in
    (* TΠ ⋈ TΩ on R: keep only facts of constrained relations. *)
    let omega_tbl =
      Funcon.to_table
        (List.filter (fun (c : Funcon.t) -> c.Funcon.ftype = ftype) omega)
    in
    let constrained =
      Join.hash_join ~name:"constrained"
        ~cols:[| "R"; "e"; "Ce"; "Co" |]
        ~out:
          [|
            Join.Col (Join.Probe, 1);
            Join.Col (Join.Probe, ent);
            Join.Col (Join.Probe, ecls);
            Join.Col (Join.Probe, ocls);
          |]
        ~oweight:Join.No_weight
        (Ops.distinct omega_tbl [| 0 |], [| 0 |])
        (facts, [| 1 |])
    in
    (* GROUP BY (R, e, Ce, Co) HAVING the group count exceed the degree. *)
    let groups = Ops.group_count constrained [| 0; 1; 2; 3 |] in
    let acc = ref [] in
    Table.iter
      (fun g ->
        let rel = Table.get groups g 0 in
        let count = Table.get groups g 4 in
        let degree = Hashtbl.find degrees rel in
        if count > degree then
          acc :=
            {
              entity = Table.get groups g 1;
              cls = Table.get groups g 2;
              rel;
              ftype;
              count;
              degree;
            }
            :: !acc)
      groups;
    List.rev !acc
  end

let violations pi omega =
  violations_of_type pi omega Funcon.Type_I
  @ violations_of_type pi omega Funcon.Type_II

let apply_collect ?(ban = true) pi omega =
  let obs = Obs.ambient () in
  let t0 = if Obs.enabled obs then Obs.now () else 0. in
  let record vs deleted =
    if Obs.enabled obs then begin
      Obs.add obs "quality.violations" (List.length vs);
      Obs.add obs "quality.deleted" deleted;
      Obs.add_time obs "quality.seconds" (Obs.now () -. t0)
    end
  in
  let vs = violations pi omega in
  if vs = [] then begin
    record [] 0;
    ([], 0)
  end
  else begin
    (* Delete every fact whose constrained position holds a violating
       (entity, class) pair. *)
    let bad_subject = Hashtbl.create 64 and bad_object = Hashtbl.create 64 in
    List.iter
      (fun v ->
        let tbl =
          match v.ftype with
          | Funcon.Type_I -> bad_subject
          | Funcon.Type_II -> bad_object
        in
        Hashtbl.replace tbl (v.entity, v.cls) ())
      vs;
    (* Collect the doomed ids, then delete them as one batch — a single
       table compaction and key-index rebuild no matter how many facts
       the violating entities reach (see [Storage.delete_ids]). *)
    let t = Storage.table pi in
    let doomed = ref [] in
    Table.iter
      (fun row ->
        if
          Hashtbl.mem bad_subject (Table.get t row 2, Table.get t row 3)
          || Hashtbl.mem bad_object (Table.get t row 4, Table.get t row 5)
        then doomed := Table.get t row 0 :: !doomed)
      t;
    let deleted = Storage.delete_ids ~ban pi (List.rev !doomed) in
    record vs deleted;
    (vs, deleted)
  end

let apply ?ban pi omega = snd (apply_collect ?ban pi omega)
let hook omega pi =
  let vs, deleted = apply_collect pi omega in
  (List.length vs, deleted)

let pp_violation ~entity_name ~rel_name ppf v =
  Format.fprintf ppf "%s violates %s (%s): %d facts, degree %d"
    (entity_name v.entity) (rel_name v.rel)
    (match v.ftype with Funcon.Type_I -> "I" | Funcon.Type_II -> "II")
    v.count v.degree


let violation_group pi (v : violation) =
  let tbl = Storage.table pi in
  let epos, cpos =
    match v.ftype with Funcon.Type_I -> (2, 3) | Funcon.Type_II -> (4, 5)
  in
  let acc = ref [] in
  Table.iter
    (fun row ->
      if
        Table.get tbl row 1 = v.rel
        && Table.get tbl row epos = v.entity
        && Table.get tbl row cpos = v.cls
      then
        acc :=
          ( ( Table.get tbl row 1, Table.get tbl row 2, Table.get tbl row 3,
              Table.get tbl row 4, Table.get tbl row 5 ),
            Table.is_null_weight (Table.weight tbl row) )
          :: !acc)
    tbl;
  List.rev !acc
