module Table = Relational.Table
module Index = Relational.Index
module Join = Relational.Join
module Pipeline = Relational.Pipeline
module Sink = Relational.Sink
module Batch = Relational.Batch
module Pattern = Mln.Pattern
module Storage = Kb.Storage
module Fgraph = Factor_graph.Fgraph

(* Column layouts, fixed by the storage modules:
   TΠ:      I=0  R=1  x=2  C1=3  y=4  C2=5
   M1/M2:   R1=0 R2=1 C1=2 C2=3
   M3..M6:  R1=0 R2=1 R3=2 C1=3 C2=4 C3=5
   J (the Mi ⋈ TΠ intermediate of two-atom patterns):
            R1=0 R3=1 C1=2 C2=3 C3=4 z=5 x=6 I2=7 *)

(* Physical description of the queries of one pattern. *)
module Shape = struct
type t =
  | One_atom of {
      m_key : int array;  (* join key columns on Mi *)
      t_key : int array;  (* join key columns on TΠ *)
      x_src : int;  (* TΠ column holding the head's x value *)
      y_src : int;  (* TΠ column holding the head's y value *)
    }
  | Two_atom of {
      m_key1 : int array;  (* step 1: Mi side *)
      t_key1 : int array;  (* step 1: TΠ side (the q atom) *)
      z_src : int;  (* TΠ column holding z in the q atom *)
      x_src : int;  (* TΠ column holding x in the q atom *)
      j_key2 : int array;  (* step 2: J side *)
      t_key2 : int array;  (* step 2: TΠ side (the r atom) *)
      y_src : int;  (* TΠ column holding y in the r atom *)
    }

end

open Shape

(* TΠ columns *)
let tR = 1
let tx = 2
let tC1 = 3
let ty = 4
let tC2 = 5

let shape_of : Pattern.t -> Shape.t = function
  | Pattern.P1 ->
    (* p(x,y) <- q(x,y):  M.R2 = T.R, M.C1 = T.C1, M.C2 = T.C2 *)
    One_atom
      { m_key = [| 1; 2; 3 |]; t_key = [| tR; tC1; tC2 |]; x_src = tx; y_src = ty }
  | Pattern.P2 ->
    (* p(x,y) <- q(y,x):  q's first argument is y ∈ C2, second is x ∈ C1 *)
    One_atom
      { m_key = [| 1; 3; 2 |]; t_key = [| tR; tC1; tC2 |]; x_src = ty; y_src = tx }
  | Pattern.P3 ->
    (* p(x,y) <- q(z,x), r(z,y) *)
    Two_atom
      {
        m_key1 = [| 1; 5; 3 |] (* R2, C3, C1 *);
        t_key1 = [| tR; tC1; tC2 |];
        z_src = tx;
        x_src = ty;
        j_key2 = [| 1; 4; 3; 5 |] (* R3, C3, C2, z *);
        t_key2 = [| tR; tC1; tC2; tx |];
        y_src = ty;
      }
  | Pattern.P4 ->
    (* p(x,y) <- q(x,z), r(z,y) *)
    Two_atom
      {
        m_key1 = [| 1; 3; 5 |] (* R2, C1, C3 *);
        t_key1 = [| tR; tC1; tC2 |];
        z_src = ty;
        x_src = tx;
        j_key2 = [| 1; 4; 3; 5 |];
        t_key2 = [| tR; tC1; tC2; tx |];
        y_src = ty;
      }
  | Pattern.P5 ->
    (* p(x,y) <- q(z,x), r(y,z) *)
    Two_atom
      {
        m_key1 = [| 1; 5; 3 |];
        t_key1 = [| tR; tC1; tC2 |];
        z_src = tx;
        x_src = ty;
        j_key2 = [| 1; 3; 4; 5 |] (* R3, C2, C3, z *);
        t_key2 = [| tR; tC1; tC2; ty |];
        y_src = tx;
      }
  | Pattern.P6 ->
    (* p(x,y) <- q(x,z), r(y,z) *)
    Two_atom
      {
        m_key1 = [| 1; 3; 5 |];
        t_key1 = [| tR; tC1; tC2 |];
        z_src = ty;
        x_src = tx;
        j_key2 = [| 1; 3; 4; 5 |];
        t_key2 = [| tR; tC1; tC2; ty |];
        y_src = tx;
      }

type prepared = {
  parts : Mln.Partition.t;
  m_index : Index.t array; (* per pattern, on the step-1 Mi key *)
  mirror_index : Index.t option array; (* lazily built for semi-naive *)
}

let step1_key pat =
  match shape_of pat with
  | One_atom s -> s.m_key
  | Two_atom s -> s.m_key1

let prepare parts =
  {
    parts;
    m_index =
      Array.init 6 (fun i ->
          let pat = Pattern.of_index i in
          Index.build (Mln.Partition.table parts pat) (step1_key pat));
    mirror_index = Array.make 6 None;
  }

let partitions p = p.parts

let j_cols = [| "R1"; "R3"; "C1"; "C2"; "C3"; "z"; "x"; "I2" |]
let atom_cols = [| "R"; "x"; "C1"; "y"; "C2" |]
let atom_i_cols = [| "R"; "x"; "C1"; "y"; "C2"; "I2"; "I3" |]

let step1_out (s : Shape.t) =
  match s with
  | One_atom _ -> invalid_arg "Queries.step1_out"
  | Two_atom s ->
    [|
      Join.Col (Join.Build, 0);
      Join.Col (Join.Build, 2);
      Join.Col (Join.Build, 3);
      Join.Col (Join.Build, 4);
      Join.Col (Join.Build, 5);
      Join.Col (Join.Probe, s.z_src);
      Join.Col (Join.Probe, s.x_src);
      Join.Col (Join.Probe, 0);
    |]

let atoms_out (s : Shape.t) =
  match s with
  | One_atom s ->
    [|
      Join.Col (Join.Build, 0);
      Join.Col (Join.Probe, s.x_src);
      Join.Col (Join.Build, 2);
      Join.Col (Join.Probe, s.y_src);
      Join.Col (Join.Build, 3);
    |]
  | Two_atom s ->
    [|
      Join.Col (Join.Build, 0);
      Join.Col (Join.Build, 6);
      Join.Col (Join.Build, 2);
      Join.Col (Join.Probe, s.y_src);
      Join.Col (Join.Build, 3);
    |]

let factors_out (s : Shape.t) =
  match s with
  | One_atom s ->
    [|
      Join.Col (Join.Build, 0);
      Join.Col (Join.Probe, s.x_src);
      Join.Col (Join.Build, 2);
      Join.Col (Join.Probe, s.y_src);
      Join.Col (Join.Build, 3);
      Join.Col (Join.Probe, 0);
      Join.Const Fgraph.null;
    |]
  | Two_atom s ->
    [|
      Join.Col (Join.Build, 0);
      Join.Col (Join.Build, 6);
      Join.Col (Join.Build, 2);
      Join.Col (Join.Probe, s.y_src);
      Join.Col (Join.Build, 3);
      Join.Col (Join.Build, 7);
      Join.Col (Join.Probe, 0);
    |]

(* Logical-plan mirror of Query 1-i, for EXPLAIN: the same joins and
   projections the physical path executes, expressed as a
   [Relational.Plan.t] so the planner's cardinality estimates can be
   printed (and compared) against observed row counts.  The physical path
   folds the final dedup into the join; the plan makes it an explicit
   [Distinct] node. *)
module Plan = Relational.Plan

let atoms_plan p pat pi =
  let t = Storage.table pi in
  let m_tbl = Mln.Partition.table p.parts pat in
  match shape_of pat with
  | One_atom s ->
    (* Mi has 4 columns, so TΠ columns sit at offset 4 in the join. *)
    let join =
      Plan.Equi_join
        { left = Plan.Scan m_tbl; right = Plan.Scan t;
          lkey = s.m_key; rkey = s.t_key }
    in
    Plan.Distinct
      (None, Plan.Project ([| 0; 4 + s.x_src; 2; 4 + s.y_src; 3 |], join))
  | Two_atom s ->
    (* Mi has 6 columns; J keeps (R1, R3, C1, C2, C3, z, x, I2). *)
    let j =
      Plan.Distinct
        ( None,
          Plan.Project
            ( [| 0; 2; 3; 4; 5; 6 + s.z_src; 6 + s.x_src; 6 |],
              Plan.Equi_join
                { left = Plan.Scan m_tbl; right = Plan.Scan t;
                  lkey = s.m_key1; rkey = s.t_key1 } ) )
    in
    let join2 =
      Plan.Equi_join
        { left = j; right = Plan.Scan t; lkey = s.j_key2; rkey = s.t_key2 }
    in
    Plan.Distinct (None, Plan.Project ([| 0; 6; 2; 8 + s.y_src; 3 |], join2))

(* Step 1 of two-atom patterns: J = Mi ⋈ q, where [q] is TΠ or the
   delta facts under semi-naive evaluation. *)
let step1 midx pat (s : Shape.t) q =
  match s with
  | One_atom _ -> invalid_arg "step1"
  | Two_atom s2 ->
    Join.hash_join_pre
      ~name:(Pattern.to_string pat ^ "_J")
      ~cols:j_cols ~out:(step1_out s)
      ~oweight:(Join.Weight_of Join.Build)
      ~dedup:true midx (q, s2.t_key1)

(* Query 1-i or 2-i under the projection [out], every body atom probing
   [src]: TΠ or — for a one-atom pattern's only atom — the delta. *)
let run_query p pat ~name ~cols ~out ~oweight ~dedup src =
  let midx = p.m_index.(Pattern.index pat) in
  match shape_of pat with
  | One_atom s1 ->
    Join.hash_join_pre ~name ~cols ~out ~oweight ~dedup midx (src, s1.t_key)
  | Two_atom s2 as s ->
    let j = step1 midx pat s src in
    Join.hash_join_pre ~name ~cols ~out ~oweight ~dedup
      (Join.build j s2.j_key2)
      (src, s2.t_key2)

let resident pi = Pipeline.of_table (Storage.table pi)

let atoms_query p pat src =
  run_query p pat
    ~name:("atoms_" ^ Pattern.to_string pat)
    ~cols:atom_cols
    ~out:(atoms_out (shape_of pat))
    ~oweight:Join.No_weight ~dedup:true src

let ground_atoms p pat pi = atoms_query p pat (resident pi)

(* Resolve heads against TΠ and emit factor rows, in [order] when one is
   given. *)
let resolve_heads ?order rows pi g =
  let idx = Storage.key_index pi in
  let facts = Storage.table pi in
  let kv = Array.make 5 0 in
  let produced = ref 0 in
  let resolve r =
    for i = 0 to 4 do
      kv.(i) <- Table.get rows r i
    done;
    (* A key's newest row is its only live candidate (Storage.find). *)
    match Index.first_match idx kv with
    | Some head_row when Storage.live_row pi head_row ->
      let i1 = Table.get facts head_row 0 in
      let i2 = Table.get rows r 5 and i3 = Table.get rows r 6 in
      Fgraph.add_clause g ~i1 ~i2
        ?i3:(if i3 = Fgraph.null then None else Some i3)
        ~w:(Table.weight rows r) ();
      incr produced
    | Some _ | None -> () (* head was deleted or retracted *)
  in
  (match order with
  | Some perm -> Array.iter resolve perm
  | None ->
    for r = 0 to Table.nrows rows - 1 do
      resolve r
    done);
  !produced

(* The scan join's order of derivation rows, read off their body ids: a
   one-atom join streams TΠ as its only body atom, so by I2; a two-atom
   join streams TΠ as the r atom and meets J — q id descending — for
   each, so by I3 ascending, then I2 descending.  The rows of one body
   (or body pair) keep their relative order. *)
let scan_order pat rows =
  let id r c = Table.get rows r c in
  let cmp =
    match shape_of pat with
    | One_atom _ -> fun a b -> Int.compare (id a 5) (id b 5)
    | Two_atom _ ->
      fun a b ->
        match Int.compare (id a 6) (id b 6) with
        | 0 -> Int.compare (id b 5) (id a 5)
        | c -> c
  in
  let perm = Array.init (Table.nrows rows) Fun.id in
  Array.stable_sort cmp perm;
  perm

(* --- semi-naive (delta) evaluation -------------------------------

   New facts at iteration k+1 need at least one body atom bound to a
   fact from iteration k's delta:

     Δ(q ⋈ r) = (Δ ⋈_q T) ∪ (T ⋈_q Δ_r)

   The second union term pivots the join to start from the r atom; by the
   patterns' symmetry this is the *mirrored* pattern run on transformed
   rule rows: swapping the roles of x and y maps
   q(x-atom), r(y-atom) to r(x-atom), q(y-atom) with
   P3↔P3, P4↔P5, P5↔P4, P6↔P6, rows (R1,R2,R3,C1,C2,C3) →
   (R1,R3,R2,C2,C1,C3), and the head emitted with x and y swapped. *)

let mirror_pattern = function
  | Pattern.P3 -> Pattern.P3
  | Pattern.P4 -> Pattern.P5
  | Pattern.P5 -> Pattern.P4
  | Pattern.P6 -> Pattern.P6
  | (Pattern.P1 | Pattern.P2) as p -> p

let mirror_rule_table pat tbl =
  let mp = mirror_pattern pat in
  let out =
    Table.create ~weighted:true
      ~name:(Table.name tbl ^ "_mirror")
      (Pattern.columns mp)
  in
  Table.iter
    (fun r ->
      Table.append_w out
        [|
          Table.get tbl r 0; Table.get tbl r 2; Table.get tbl r 1;
          Table.get tbl r 4; Table.get tbl r 3; Table.get tbl r 5;
        |]
        (Table.weight tbl r))
    tbl;
  out

(* [factors_out] for the mirrored run of a two-atom pattern: the head
   columns (x, C1)/(y, C2) *and* the body ids I2/I3 are swapped back to the
   original orientation, so delta-built factor rows are textually identical
   to the ones the batch Query 2 emits for the same instances. *)
let factors_out_swapped s =
  let a = factors_out s in
  [| a.(0); a.(3); a.(4); a.(1); a.(2); a.(6); a.(5) |]

let mirror_index p pat =
  match p.mirror_index.(Pattern.index pat) with
  | Some idx -> idx
  | None ->
    let mp = mirror_pattern pat in
    let tbl =
      mirror_rule_table pat (Mln.Partition.table (partitions p) pat)
    in
    let idx = Index.build tbl (step1_key mp) in
    p.mirror_index.(Pattern.index pat) <- Some idx;
    idx

(* One union term of a two-atom delta query: Δ bound to the q atom of
   [pat], or to its r atom, as the q atom of the mirrored pattern.  Step
   1 (the rules ⋈ Δ) has already run into [j]; step 2 joins [j] on
   [j_key] with TΠ on [t_key] and projects [out], which puts a mirrored
   term's head and body ids back in [pat]'s orientation.  Step 2 walks
   the Δ-sized J and probes TΠ's maintained partial-key index on
   [t_key] — never a pass over TΠ ({!Join.index_matches}). *)
type delta_term = {
  j : Table.t;
  j_key : int array;
  t_key : int array;
  out : Join.out_col array;
}

(* The q term and the r term of two-atom pattern [pat] over [delta]. *)
let delta_terms p pat ~delta =
  let term midx as_pat ~out =
    match shape_of as_pat with
    | Shape.One_atom _ -> invalid_arg "Queries.delta_terms: one-atom pattern"
    | Shape.Two_atom s2 as shape ->
      {
        j = step1 midx as_pat shape delta;
        j_key = s2.j_key2;
        t_key = s2.t_key2;
        out = out shape;
      }
  in
  ( term p.m_index.(Pattern.index pat) pat ~out:factors_out,
    term (mirror_index p pat) (mirror_pattern pat) ~out:factors_out_swapped )

(* The residual of a delta term's TΠ probe: live rows only — none at
   all while nothing is dead, so the probe pays one comparison per call,
   not one per probed row — and, [below] an id, only the facts older
   than it. *)
let probe_residual pi below =
  let t = Storage.table pi in
  let live = Storage.pending_deletes pi = 0 in
  match below with
  | None -> if live then None else Some (fun _ row -> Storage.live_row pi row)
  | Some w when live -> Some (fun _ row -> Table.get t row 0 < w)
  | Some w ->
    Some (fun _ row -> Table.get t row 0 < w && Storage.live_row pi row)

(* The two union terms of a two-atom delta query, projected into [sink]
   in the scan join's order.  The scan join [J ⋈ TΠ] streams TΠ as the r
   atom: it emits by r row ascending, then by J row descending — q id
   descending, then the rules of one (q, r) pair in ascending Mi row.
   Rows ascend with ids, so both orders can be read off ids.  The q term
   (J built from Δ as the q atom) sorts its matches into that order
   directly.  The r term's J holds one block of rows per Δ fact, in Δ's
   order; within a block its matches are sorted by q row descending,
   then J row descending, which lists the rules of a (q, r) pair in
   ascending Mi row as well.  Merging the two by r id ascending, then q
   id descending, the q term first on a tie, yields every derivation
   that uses a Δ fact in the scan's order.  The r term's probe keeps
   only q facts [below] Δ's first id, so one whose q and r are both in
   Δ comes once, from the q term. *)
let probe_scan_order pi ~sink ~below q r =
  let t = Storage.table pi in
  let np = Table.nrows t in
  let probe d below =
    Join.index_matches ?residual:(probe_residual pi below) (d.j, d.j_key)
      (Storage.partial_index pi d.t_key)
  in
  (* q term: TΠ row ascending, then J row descending. *)
  let nq = Table.nrows q.j in
  let qs = ref [] in
  probe q None (fun jr tr -> qs := ((tr * nq) + (nq - 1 - jr)) :: !qs);
  let qs = Array.of_list !qs in
  Array.sort Int.compare qs;
  (* r term: Δ block by block; within one, TΠ row descending, then J row
     descending. *)
  let nr = Table.nrows r.j in
  let blocks = ref [] and block = ref [] and block_id = ref (-1) in
  let close_block () =
    if !block <> [] then begin
      let a = Array.of_list !block in
      Array.sort Int.compare a;
      blocks := a :: !blocks;
      block := []
    end
  in
  probe r (Some below) (fun jr tr ->
      let id = Table.get r.j jr 7 in
      if id <> !block_id then begin
        close_block ();
        block_id := id
      end;
      block := (((np - 1 - tr) * nr) + (nr - 1 - jr)) :: !block);
  close_block ();
  let rs = Array.concat (List.rev !blocks) in
  let ob =
    Batch.create
      ~capacity:
        (max 1
           (min (Array.length qs + Array.length rs) Batch.default_capacity))
      ~weighted:true (Array.length q.out)
  in
  let emit d jr tr =
    Join.emit_match ~sink ob ~out:d.out ~oweight:(Join.Weight_of Join.Build)
      d.j jr t tr
  in
  let i = ref 0 and k = ref 0 in
  while !i < Array.length qs || !k < Array.length rs do
    let q_first =
      !k >= Array.length rs
      || !i < Array.length qs
         &&
         let qc = qs.(!i) and rc = rs.(!k) in
         let r_of_q = Table.get t (qc / nq) 0
         and r_of_r = Table.get r.j (nr - 1 - (rc mod nr)) 7 in
         r_of_q < r_of_r
         || r_of_q = r_of_r
            && Table.get q.j (nq - 1 - (qc mod nq)) 7
               >= Table.get t (np - 1 - (rc / nr)) 0
    in
    if q_first then begin
      let qc = qs.(!i) in
      emit q (nq - 1 - (qc mod nq)) (qc / nq);
      incr i
    end
    else begin
      let rc = rs.(!k) in
      emit r (nr - 1 - (rc mod nr)) (np - 1 - (rc / nr));
      incr k
    end
  done;
  if not (Batch.is_empty ob) then Sink.push_batch sink ob;
  (nq + nr)

let factors_query p pat ~name src =
  run_query p pat ~name ~cols:atom_i_cols
    ~out:(factors_out (shape_of pat))
    ~oweight:(Join.Weight_of Join.Build) ~dedup:false src

let derivations p pat pi =
  factors_query p pat ~name:("factors_" ^ Pattern.to_string pat) (resident pi)

(* Δ is the suffix of TΠ from [from]: a q fact of id [from] or more is in
   Δ, so the r term keeps only older ones, and a derivation with both
   body facts in Δ comes once, from the q term.  A two-atom query
   records the join counters a scan join records. *)
let derivations_delta p pat pi ~from =
  let delta = Storage.rows_from pi from in
  let name = "factors_" ^ Pattern.to_string pat ^ "_d" in
  match shape_of pat with
  | Shape.One_atom _ -> factors_query p pat ~name delta
  | Shape.Two_atom _ ->
    let obs = Obs.ambient () in
    let t0 = if Obs.enabled obs then Obs.now () else 0. in
    let sink = Sink.create ~weighted:true ~name atom_i_cols in
    let q, r = delta_terms p pat ~delta in
    let probe_rows = probe_scan_order pi ~sink ~below:from q r in
    if Obs.enabled obs then begin
      Obs.add obs "join.joins" 2;
      Obs.add obs "join.probe_rows" probe_rows;
      Obs.add obs "join.rows_out" (Sink.rows_out sink);
      Obs.add_time obs "join.probe_seconds" (Obs.now () -. t0)
    end;
    Sink.table sink

let ground_factors p pat pi g = resolve_heads (derivations p pat pi) pi g

let singleton_factors pi g =
  let n = ref 0 in
  Storage.iter
    (fun ~id ~r:_ ~x:_ ~c1:_ ~y:_ ~c2:_ ~w ->
      if not (Table.is_null_weight w) then begin
        Fgraph.add_singleton g ~i:id ~w;
        incr n
      end)
    pi;
  !n
