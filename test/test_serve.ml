(* The serving layer: the shared op codec, the Snapshot/Writer split,
   and the socket server's snapshot-isolation guarantees.

   The load-bearing property is the concurrency differential: answers
   observed by reader domains racing a committing writer must be
   bit-identical to querying each published epoch serially — a reader
   sees exactly one epoch, never a blend. *)

(* The dune stanza runs this binary with PROBKB_DEBUG=1: every
   frozen-snapshot query below re-hashes the copied factor table and
   fails loudly on any aliasing with live session state. *)

module Gamma = Kb.Gamma
module Storage = Kb.Storage
module Dict = Relational.Dict
module Local = Grounding.Local
module Json = Obs.Json
module Engine = Probkb.Engine
module Session = Probkb.Engine.Session
module Snapshot = Probkb.Snapshot
module Writer = Probkb.Engine.Writer
module Protocol = Serve.Protocol
module Server = Serve.Server

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let sigmoid w = 1. /. (1. +. exp (-.w))

let no_infer_engine kb =
  Engine.create ~config:(Probkb.Config.make ~inference:None ()) kb

(* Resolve a string key to dictionary ids (interning — test setup only). *)
let key_ids kb (r, x, c1, y, c2) =
  ( Gamma.relation kb r,
    Gamma.entity kb x,
    Gamma.cls kb c1,
    Gamma.entity kb y,
    Gamma.cls kb c2 )

(* --- the shared codec -------------------------------------------------- *)

let test_codec_roundtrip () =
  let key = ("r", "x", "C1", "y", "C2") in
  let ops =
    [
      Protocol.Ingest [ (key, 0.9); (("s", "a", "C", "b", "C"), 0.5) ];
      Protocol.Retract { keys = [ key ]; ban = true };
      Protocol.Retract { keys = []; ban = false };
      Protocol.Retract_rules { head = "r" };
      Protocol.Add_rules [ "1.40 live_in(x:W, y:P) :- born_in(x, y)" ];
      Protocol.Reexpand;
      Protocol.Refresh;
      Protocol.Query key;
      Protocol.Query_local { key; budget = None };
      Protocol.Query_local
        {
          key;
          budget =
            Some
              (Local.budget ~max_facts:64 ~max_hops:3 ~decay:0.8
                 ~min_influence:0.01 ());
        };
      Protocol.Stats;
      Protocol.Metrics;
    ]
  in
  List.iter
    (fun op ->
      match Protocol.op_of_line (Json.to_string (Protocol.op_to_json op)) with
      | Ok op' -> check_bool "op survives the wire round-trip" true (op = op')
      | Error m -> Alcotest.failf "round-trip rejected: %s" m)
    ops

let test_codec_errors () =
  let err line =
    match Protocol.op_of_line line with
    | Error m -> m
    | Ok _ -> Alcotest.failf "accepted: %s" line
  in
  check_string "parse failure" "malformed JSON" (err "{");
  List.iter
    (fun line -> check_string line "malformed JSON" (err line))
    [
      {|{"op":"stats","x":1e}|};
      {|{"op":"stats","x":1e+}|};
      {|{"op":"stats","x":1.4E}|};
      {|{"op":"stats","x":1.}|};
      {|{"op":"stats","x":-}|};
      {|{"op":"stats","x":-e5}|};
      {|{"op":"stats","x":01}|};
    ];
  check_string "no op member" "missing op" (err {|{"x":1}|});
  check_string "unknown op" "unknown op \"frobnicate\""
    (err {|{"op":"frobnicate"}|});
  check_string "query without key" "query needs a key" (err {|{"op":"query"}|});
  check_string "retract_rules without head" "retract_rules needs a head relation"
    (err {|{"op":"retract_rules"}|});
  check_string "bad budget" "Local.budget: decay must be in (0, 1]"
    (err {|{"op":"query_local","key":["r","x","C","y","C"],"decay":0.0}|})

(* Byte-fuzz over the request decoder: random bytes and mutated valid
   request lines (every op, numbers in every JSON form) must each end in
   [Ok] or [Error], never in an exception — one escaping the decoder
   would end a session or drop a served connection without a reply. *)
let test_codec_byte_fuzz =
  let valid =
    [
      {|{"op":"ingest","facts":[["r","x","C1","y","C2",0.9],["s","a","C","b","C",-2.5E-1]]}|};
      {|{"op":"retract","keys":[["r","x","C1","y","C2"]],"ban":true}|};
      {|{"op":"retract_rules","head":"r"}|};
      {|{"op":"add_rules","rules":["1.40 live_in(x:W, y:P) :- born_in(x, y)"]}|};
      {|{"op":"reexpand"}|};
      {|{"op":"refresh"}|};
      {|{"op":"query","key":["r","x","C1","y","C2"]}|};
      {|{"op":"query_local","key":["r","x","C","y","C"],"budget":64,"max_hops":3,"decay":0.8,"min_influence":1e-2}|};
      {|{"op":"stats","x":[0,-0,1.5e+3,-12,null,false,"é"]}|};
      {|{"op":"metrics"}|};
    ]
  in
  Tutil.qcheck_case ~count:5000 "op decoder byte-fuzz: Ok or Error"
    (Tutil.arb_fuzzed ~alphabet:{|{}[]":,.-+eE0123456789 \u|} valid)
    (fun line ->
      match Protocol.op_of_line line with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let test_resolve_reads_never_intern () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let unknown = ("born_in", "Nobody At All", "W", "Nowhere", "P") in
  (match Protocol.resolve kb (Protocol.Query unknown) with
  | Ok (Protocol.RQuery None) -> ()
  | _ -> Alcotest.fail "unknown key should resolve to RQuery None");
  (match Protocol.resolve kb (Protocol.Query_local { key = unknown; budget = None })
   with
  | Ok (Protocol.RQuery_local { key = None; _ }) -> ()
  | _ -> Alcotest.fail "unknown key should resolve to RQuery_local None");
  check_bool "read-path resolution did not intern the entity" true
    (Dict.find_opt (Gamma.entities kb) "Nobody At All" = None)

let test_step_session_semantics () =
  (* [step] is the session subcommand's whole interpreter: write, then
     read your write, on one session. *)
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let s = Engine.session (no_infer_engine kb) in
  let reply =
    Protocol.step kb s
      {|{"op":"ingest","facts":[["born_in","Saul Bellow","W","Montreal","C",0.7]]}|}
  in
  check_bool "ingest reports epoch 1" true
    (Json.member "epoch" reply = Some (Json.Int 1));
  let reply =
    Protocol.step kb s
      {|{"op":"query","key":["born_in","Saul Bellow","W","Montreal","C"]}|}
  in
  check_bool "the ingested fact is found" true
    (Json.member "found" reply = Some (Json.Bool true));
  let reply = Protocol.step kb s {|{"op":"refresh"}|} in
  check_bool "refresh without inference answers an error" true
    (Json.member "error" reply <> None)

(* --- snapshot immutability --------------------------------------------- *)

(* [Engine.run] stores each inferred fact's marginal in its weight
   column.  A snapshot frozen afterwards must report that value as the
   fact's marginal, not as an extraction weight, and a base fact's
   extraction weight with no marginal. *)
let test_view_after_run () =
  let kb, f1, _ = Tutil.ruth_gruber_kb () in
  let r = Engine.run (Engine.create kb) in
  check_bool "marginals stored" true (r.Engine.marginals_stored > 0);
  let pi = Gamma.pi kb in
  let snap =
    Snapshot.freeze ~pi
      ~lineage:(Factor_graph.Lineage.build r.Engine.expansion.Engine.graph)
      ()
  in
  let stored id =
    Relational.Table.weight (Storage.table pi)
      (Option.get (Storage.row_of_id pi id))
  in
  let r_, x, c1, y, c2 =
    key_ids kb ("live_in", "Ruth Gruber", "W", "Brooklyn", "P")
  in
  let live = Option.get (Snapshot.find snap ~r:r_ ~x ~c1 ~y ~c2) in
  (match Snapshot.view snap live with
  | Some v ->
    check_bool "inferred fact: not base" false v.Snapshot.base;
    check_bool "inferred fact: null weight" true
      (Relational.Table.is_null_weight v.Snapshot.weight);
    check_bool "inferred fact: the stored marginal" true
      (v.Snapshot.marginal = Some (stored live))
  | None -> Alcotest.fail "live_in(Ruth Gruber, Brooklyn) has no view");
  match Snapshot.view snap f1 with
  | Some v ->
    check_bool "base fact: base" true v.Snapshot.base;
    check_bool "base fact: its extraction weight" true
      (v.Snapshot.weight = 0.96);
    check_bool "base fact: no marginal" true (v.Snapshot.marginal = None)
  | None -> Alcotest.fail "born_in(Ruth Gruber, New York City) has no view"

let test_snapshot_immutable_across_epochs () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let s = Engine.session (no_infer_engine kb) in
  let snap0 = Session.snapshot s in
  check_bool "snapshot verifies" true (Snapshot.verify_integrity snap0);
  check_bool "snapshot is cached per epoch" true (Session.snapshot s == snap0);
  let facts0 = Storage.size (Gamma.pi kb) in
  let st0 = Snapshot.stats snap0 in
  check_int "stats count the storage" facts0 st0.Snapshot.facts;
  check_bool "stats report a frozen snapshot" true st0.Snapshot.frozen;
  let keys = ref [] in
  Storage.iter
    (fun ~id ~r ~x ~c1 ~y ~c2 ~w:_ -> keys := (id, (r, x, c1, y, c2)) :: !keys)
    (Gamma.pi kb);
  let answer snap (r, x, c1, y, c2) =
    match Snapshot.query_local snap ~r ~x ~c1 ~y ~c2 with
    | Some a ->
      check_int "answers carry the snapshot's epoch" (Snapshot.epoch snap)
        a.Snapshot.epoch;
      a.Snapshot.marginal
    | None -> Alcotest.fail "key not answered"
  in
  let before = List.map (fun (id, k) -> (id, k, answer snap0 k)) !keys in
  (* A second writer born in both places adds a support factor to
     located_in(Brooklyn, NYC) — the old component's marginals move. *)
  let f1 = key_ids kb ("born_in", "Saul Bellow", "W", "Brooklyn", "P") in
  let f2 = key_ids kb ("born_in", "Saul Bellow", "W", "New York City", "C") in
  let tup (r, x, c1, y, c2) w = (r, x, c1, y, c2, w) in
  let st = Session.ingest s [ tup f1 0.8; tup f2 0.8 ] in
  check_int "two facts ingested" 2 st.Session.inserted;
  let snap1 = Session.snapshot s in
  check_bool "a new epoch was published" true
    (Snapshot.epoch snap1 > Snapshot.epoch snap0);
  check_bool "the cache rolled over" true (snap1 != snap0);
  (* The old snapshot answers exactly what it answered before. *)
  check_int "old snapshot still counts the old facts" facts0
    (Snapshot.stats snap0).Snapshot.facts;
  List.iter
    (fun (id, k, m) ->
      check_bool
        (Printf.sprintf "fact %d: old snapshot's answer is unchanged" id)
        true
        (answer snap0 k = m))
    before;
  let located =
    key_ids kb ("located_in", "Brooklyn", "P", "New York City", "C")
  in
  check_bool "the new evidence moved the new epoch's marginal" true
    (answer snap1 located <> answer snap0 located);
  let r, x, c1, y, c2 = f1 in
  check_bool "old snapshot cannot find the new fact" true
    (Snapshot.find snap0 ~r ~x ~c1 ~y ~c2 = None);
  check_bool "new snapshot finds it" true
    (Snapshot.find snap1 ~r ~x ~c1 ~y ~c2 <> None);
  check_bool "old snapshot still verifies after the commit" true
    (Snapshot.verify_integrity snap0)

(* An unbudgeted read walks and solves its fact's whole component: a
   fact of a sampled component's 2-core costs the core's chain.  The read
   records the compiled neighbourhood's variable count as the
   [query_local.vars_dist] histogram, the figure that names that cost. *)
let test_query_local_vars_dist () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let graph = (Engine.expand (no_infer_engine kb)).Engine.graph in
  let obs = Obs.create ~config:Obs.Config.enabled () in
  let solver =
    {
      Inference.Hybrid.exact_max_vars = 2;
      max_width = 1;
      gibbs = { Inference.Gibbs.burn_in = 5; samples = 20; seed = 3 };
    }
  in
  let snap =
    Snapshot.freeze ~solver ~obs ~pi:(Gamma.pi kb)
      ~lineage:(Factor_graph.Lineage.build graph) ()
  in
  let r, x, c1, y, c2 =
    key_ids kb ("located_in", "Brooklyn", "P", "New York City", "C")
  in
  let id = Option.get (Snapshot.find snap ~r ~x ~c1 ~y ~c2) in
  (* The fact's component, and the 2-core the sampler runs on. *)
  let c = Factor_graph.Fgraph.compile graph in
  let p = Inference.Decompose.partition c in
  let comp = p.comp_of_var.(Hashtbl.find c.var_of_id id) in
  let vars =
    Array.fold_left
      (fun n i -> if i = comp then n + 1 else n)
      0 p.comp_of_var
  in
  let core = Inference.Peel.core (Inference.Peel.run c) in
  check_bool "the fact is in the 2-core" true
    (Hashtbl.mem core.Factor_graph.Fgraph.var_of_id id);
  let a = Option.get (Snapshot.query_local snap ~r ~x ~c1 ~y ~c2) in
  check_bool "sampled" false a.Snapshot.enumerated;
  check_bool "not truncated" false a.Snapshot.truncated;
  match
    Obs.Summary.hist (Obs.Summary.of_trace obs) "query_local.vars_dist"
  with
  | Some h ->
    (* One read: its sample is the histogram's maximum. *)
    check_int "one sample" 1 (Obs.Hist.count h);
    Alcotest.(check (float 0.)) "the neighbourhood's variable count"
      (float_of_int vars) (Obs.Hist.sum h);
    check_bool "the top bucket holds it" true
      (let m = Obs.Hist.max_value h in
       float_of_int vars <= m && m < float_of_int (2 * vars))
  | None -> Alcotest.fail "no query_local.vars_dist histogram"

(* --- frozen snapshot = the old freeze ------------------------------------ *)

(* A frozen snapshot copies TΠ's and TΦ's arrays and builds a CSR
   adjacency; the oracle (test/snapshot_oracle.ml) is the freeze it
   replaced, which rehashed every row.  Over a random session op stream
   at scale 0.005 — ingests (re-ingested retracted keys among them, which
   take new ids), retracts with and without ban, refreshes — and over
   copies of TΠ with tombstones pending, the two answer bit for bit:
   [find] for every key ever seen and for unknown keys, [view] and
   [marginal] for every id up to one past [next_id], [stats], and
   budgeted and unbounded [query_local]. *)

let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

let same_float_opt a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> same_float a b
  | _ -> false

let same_view (a : Snapshot.view option) (b : Snapshot.view option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    a.id = b.id && a.base = b.base && same_float a.weight b.weight
    && same_float_opt a.marginal b.marginal
  | _ -> false

let same_answer (a : Snapshot.answer option) (b : Snapshot.answer option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    a.id = b.id && same_float a.marginal b.marginal && a.epoch = b.epoch
    && a.interior = b.interior && a.boundary = b.boundary && a.hops = b.hops
    && a.factors = b.factors
    && same_float a.pruned_mass b.pruned_mass
    && a.truncated = b.truncated && a.enumerated = b.enumerated
  | _ -> false

let solver_small =
  {
    Inference.Hybrid.default_options with
    gibbs = { Inference.Gibbs.burn_in = 10; samples = 40; seed = 3 };
  }

(* [probes] are the keys [query_local] is asked about, budgeted and
   unbounded; [keys] the keys [find] is asked about. *)
let check_freeze_against_oracle ~what ~epoch ~marginals ~keys ~probes ~pi
    ~graph =
  let snap =
    Snapshot.freeze ~epoch ~marginals ~solver:solver_small ~pi
      ~lineage:(Factor_graph.Lineage.build graph) ()
  and oracle =
    Snapshot_oracle.freeze ~epoch ~marginals ~solver:solver_small ~pi ~graph ()
  in
  let stats = Snapshot.stats snap in
  check_bool (what ^ ": stats") true (stats = oracle.Snapshot_oracle.stats);
  List.iter
    (fun (r, x, c1, y, c2) ->
      if
        Snapshot.find snap ~r ~x ~c1 ~y ~c2
        <> oracle.Snapshot_oracle.find ~r ~x ~c1 ~y ~c2
      then Alcotest.failf "%s: find (%d, %d, %d, %d, %d)" what r x c1 y c2)
    keys;
  for id = -1 to Storage.next_id pi do
    if not (same_view (Snapshot.view snap id) (oracle.Snapshot_oracle.view id))
    then Alcotest.failf "%s: view %d" what id;
    if
      not
        (same_float_opt (Snapshot.marginal snap id)
           (oracle.Snapshot_oracle.marginal id))
    then Alcotest.failf "%s: marginal %d" what id
  done;
  List.iteri
    (fun i (r, x, c1, y, c2) ->
      let ask budget =
        if
          not
            (same_answer
               (Snapshot.query_local ?budget snap ~r ~x ~c1 ~y ~c2)
               (Snapshot_oracle.query_local ?budget oracle ~r ~x ~c1 ~y ~c2))
        then Alcotest.failf "%s: query_local (%d, %d, %d, %d, %d)" what r x c1 y c2
      in
      ask (Some (Local.budget ~max_facts:32 ()));
      if i < 2 then ask None)
    probes;
  stats

let snapshot_oracle_stream () =
  let g =
    Workload.Reverb_sherlock.generate
      { Workload.Reverb_sherlock.default_config with scale = 0.005; seed = 9 }
  in
  let kb = Workload.Reverb_sherlock.kb g in
  let engine =
    Engine.create
      ~config:
        (Probkb.Config.make ~inference:(Some solver_small) ())
      kb
  in
  let s = Engine.session engine in
  let pi = Gamma.pi kb in
  let rng = Workload.Rng.create 23 in
  let pick arr = arr.(Workload.Rng.int rng (Array.length arr)) in
  let live () =
    let acc = ref [] in
    Storage.iter
      (fun ~id ~r ~x ~c1 ~y ~c2 ~w -> acc := (id, (r, x, c1, y, c2), w) :: !acc)
      pi;
    Array.of_list (List.rev !acc)
  in
  let seen = Hashtbl.create 4096 in
  let unknown = [ (0, -7, 0, -7, 0); (max_int, 0, 0, 0, 0) ] in
  let retracted = ref [] in
  let with_marginals = ref 0 and ran = Array.make 4 0 and reingested = ref 0 in
  let compare_epoch what =
    let facts = live () in
    Array.iter (fun (_, k, _) -> Hashtbl.replace seen k ()) facts;
    let keys = unknown @ List.of_seq (Hashtbl.to_seq_keys seen) in
    let marginals = Hashtbl.create 256 in
    for id = 0 to Storage.next_id pi - 1 do
      Option.iter (Hashtbl.replace marginals id) (Session.marginal s id)
    done;
    let probes =
      List.init 6 (fun _ ->
          let _, k, _ = pick facts in
          k)
      @ unknown
    in
    let check ~what pi =
      check_freeze_against_oracle ~what ~epoch:(Session.epoch s) ~marginals
        ~keys ~probes ~pi ~graph:(Session.graph s)
    in
    let st = check ~what pi in
    if st.Snapshot.marginals_cached > 0 then incr with_marginals;
    (* Tombstones pending, on a copy: the session's own TΠ stays flushed.
       An id past [next_id] is tombstoned too. *)
    let pending = Storage.copy pi in
    List.iter (Storage.mark_deleted pending)
      (Storage.next_id pi
      :: List.init 5 (fun _ ->
             let id, _, _ = pick facts in
             id));
    let st' = check ~what:(what ^ ", tombstones pending") pending in
    check_bool (what ^ ": pending tombstones hide facts") true
      (st'.Snapshot.facts < st.Snapshot.facts)
  in
  let apply op =
    ran.(op) <- ran.(op) + 1;
    match op with
    | 0 ->
      (* Fresh facts, plus up to two retracted keys again (new ids). *)
      let fresh =
        List.init 4 (fun j ->
            let r, x, c1, y, c2 = Workload.Reverb_sherlock.random_fact g rng in
            (r, x, c1, y, c2, 0.6 +. (0.05 *. float_of_int j)))
      in
      let again = List.filteri (fun i _ -> i < 2) !retracted in
      retracted := List.filteri (fun i _ -> i >= 2) !retracted;
      reingested := !reingested + List.length again;
      ignore (Session.ingest s (fresh @ again))
    | 1 | 2 ->
      let base =
        List.filter
          (fun (_, _, w) -> not (Relational.Table.is_null_weight w))
          (Array.to_list (live ()))
        |> Array.of_list
      in
      let picks = List.init 3 (fun _ -> pick base) |> List.sort_uniq compare in
      ignore
        (Session.retract ~ban:(op = 2) s (List.map (fun (id, _, _) -> id) picks));
      if op = 1 then
        retracted :=
          List.map (fun (_, (r, x, c1, y, c2), w) -> (r, x, c1, y, c2, w)) picks
          @ !retracted
    | _ -> ignore (Session.refresh_marginals s)
  in
  compare_epoch "epoch 0";
  (* Ingest, retract, retract with ban, refresh: four, three, two and
     three of each, in a random order. *)
  List.concat_map
    (fun (op, n) -> List.init n (fun _ -> (Workload.Rng.int rng 1_000_000, op)))
    [ (0, 4); (1, 3); (2, 2); (3, 3) ]
  |> List.sort compare
  |> List.iteri (fun i (_, op) ->
         apply op;
         compare_epoch (Printf.sprintf "step %d (op %d)" (i + 1) op));
  (* The stream is not vacuous. *)
  check_bool "every op kind ran" true (Array.for_all (fun n -> n > 0) ran);
  check_bool "retracted keys were ingested again" true (!reingested > 0);
  check_bool "some snapshots carried marginals" true (!with_marginals > 0)

let test_freeze_equals_oracle () =
  List.iter
    (fun d ->
      Pool.set_default_size d;
      Fun.protect
        ~finally:(fun () -> Pool.set_default_size (Pool.env_domains ()))
        snapshot_oracle_stream)
    [ 1; 4 ]

(* --- snapshots follow session rule edits ---------------------------- *)

(* Every epoch mutation, [Session.add_rules] and [retract_rules]
   included, drops the session's snapshot: no point query answers
   against a stale rule set. *)
let test_engine_sees_session_rule_edits () =
  let kb = Gamma.create () in
  ignore (Gamma.add_fact_by_name kb ~r:"r0" ~x:"a" ~c1:"C" ~y:"b" ~c2:"C" ~w:0.8);
  let s = Engine.session (no_infer_engine kb) in
  let r0, x, c1, y, c2 = key_ids kb ("r0", "a", "C", "b", "C") in
  let ask r = Snapshot.query_local (Session.snapshot s) ~r ~x ~c1 ~y ~c2 in
  let marginal_of_r0 () =
    match ask r0 with
    | Some a -> a.Snapshot.marginal
    | None -> Alcotest.fail "r0(a,b) not answered"
  in
  (* Cache the snapshot of the rule-free KB. *)
  check_bool "no rules: P = sigmoid(w)" true (marginal_of_r0 () = sigmoid 0.8);
  let clauses =
    Mln.Parse.parse_lines
      ~intern_rel:(Gamma.relation kb)
      ~intern_cls:(Gamma.cls kb)
      [ "1.10 r1(x:C, y:C) :- r0(x, y)" ]
  in
  let st = Session.add_rules s clauses in
  check_int "the rule derives r1(a,b)" 1 st.Session.derived;
  let r1 = Gamma.relation kb "r1" in
  check_bool "the snapshot answers the newly derived fact" true
    (ask r1 <> None);
  check_bool "the rule factor moved the base marginal" true
    (marginal_of_r0 () <> sigmoid 0.8);
  let st =
    Session.retract_rules s ~remove:(fun c -> c.Mln.Clause.head_rel = r1)
  in
  check_int "retracting the rule retracts its derivation" 1
    st.Session.retracted;
  check_bool "the derived fact is gone from the snapshot" true (ask r1 = None);
  check_bool "the base marginal is the prior again, bitwise" true
    (marginal_of_r0 () = sigmoid 0.8)

(* --- concurrency differential ------------------------------------------ *)

(* K feeder relations q0..q{K-1} each imply r1; the writer ingests one
   feeder fact per epoch, shifting the whole component's marginals.
   Readers race the commits; afterwards, every recorded (key, epoch,
   marginal) triple must equal the serial replay of that epoch's
   published snapshot, bit for bit. *)
let test_concurrent_readers_differential () =
  let epochs = 5 and n_readers = 3 in
  let kb = Gamma.create () in
  let rules =
    "1.10 r1(x:C, y:C) :- r0(x, y)"
    :: "0.90 r2(x:C, y:C) :- r1(x, y)"
    :: List.init epochs (fun i ->
           Printf.sprintf "0.70 r1(x:C, y:C) :- q%d(x, y)" i)
  in
  ignore (Kb.Loader.load_rules kb rules);
  ignore (Gamma.add_fact_by_name kb ~r:"r0" ~x:"a" ~c1:"C" ~y:"b" ~c2:"C" ~w:0.9);
  (* Pre-intern everything the writer will touch: readers must not race
     dictionary mutation (the server serializes this under a lock; here
     we exercise the raw Snapshot/Writer layer). *)
  let feeders =
    List.init epochs (fun i ->
        key_ids kb (Printf.sprintf "q%d" i, "a", "C", "b", "C"))
  in
  let s = Engine.session (no_infer_engine kb) in
  let writer = Writer.of_session s in
  let keys =
    List.map (fun r -> key_ids kb (r, "a", "C", "b", "C")) [ "r0"; "r1"; "r2" ]
  in
  let snaps = Array.make (epochs + 1) (Writer.published writer) in
  let stop = Atomic.make false in
  let records = Array.make n_readers [] in
  let readers =
    List.init n_readers (fun ri ->
        Domain.spawn (fun () ->
            let acc = ref [] in
            while not (Atomic.get stop) do
              let snap = Writer.published writer in
              List.iteri
                (fun ki (r, x, c1, y, c2) ->
                  match Snapshot.query_local snap ~r ~x ~c1 ~y ~c2 with
                  | Some a ->
                    acc := (ki, a.Snapshot.epoch, a.Snapshot.marginal) :: !acc
                  | None -> Alcotest.fail "key missing from a snapshot")
                keys
            done;
            records.(ri) <- !acc))
  in
  List.iteri
    (fun i (r, x, c1, y, c2) ->
      ignore (Session.ingest s [ (r, x, c1, y, c2, 0.8) ]);
      snaps.(i + 1) <- Writer.publish writer;
      Unix.sleepf 0.01 (* let readers observe this epoch *))
    feeders;
  Atomic.set stop true;
  List.iter Domain.join readers;
  (* Serial replay: the per-epoch oracle. *)
  let expected = Hashtbl.create 64 in
  Array.iteri
    (fun i snap ->
      check_int "published snapshots are successive epochs" i
        (Snapshot.epoch snap);
      List.iteri
        (fun ki (r, x, c1, y, c2) ->
          match Snapshot.query_local snap ~r ~x ~c1 ~y ~c2 with
          | Some a -> Hashtbl.replace expected (ki, i) a.Snapshot.marginal
          | None -> Alcotest.fail "key missing from serial replay")
        keys)
    snaps;
  let observations = ref 0 in
  Array.iter
    (List.iter (fun (ki, e, m) ->
         incr observations;
         match Hashtbl.find_opt expected (ki, e) with
         | None -> Alcotest.failf "reader observed unpublished epoch %d" e
         | Some m' ->
           check_bool
             (Printf.sprintf "key %d at epoch %d: bitwise equal to replay" ki e)
             true (m = m')))
    records;
  check_bool "readers observed at least one answer" true (!observations > 0);
  (* Marginals genuinely moved across epochs — the differential is not
     vacuous. *)
  check_bool "epochs have distinct answers" true
    (Hashtbl.find expected (1, 0) <> Hashtbl.find expected (1, epochs))

(* --- the socket server -------------------------------------------------- *)

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let send_op oc op = send oc (Json.to_string (Protocol.op_to_json op))

let test_server_end_to_end () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let s = Engine.session (no_infer_engine kb) in
  let facts0 = Storage.size (Gamma.pi kb) in
  let writer = Writer.of_session s in
  let srv =
    Server.start ~pool:2 ~kb ~writer
      ~addr:(Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
      ()
  in
  let addr = Server.sockaddr srv in
  check_bool "a real port was bound" true (Server.port srv <> None);
  let connect () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd addr;
    (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  in
  (* Concurrent clients: each ingests its own fact and must read it back
     on the same connection (the write reply is sent only after its
     epoch is published). *)
  let n_clients = 3 in
  let results = Array.make n_clients false in
  let clients =
    List.init n_clients (fun ci ->
        Domain.spawn (fun () ->
            let fd, ic, oc = connect () in
            let name = Printf.sprintf "client%d" ci in
            let key = ("born_in", name, "W", "Springfield", "P") in
            send_op oc (Protocol.Ingest [ (key, 0.7) ]);
            let ingest_ok =
              match Json.of_string_opt (input_line ic) with
              | Some doc -> Json.member "epoch" doc <> None
              | None -> false
            in
            send_op oc (Protocol.Query key);
            let read_ok =
              match Json.of_string_opt (input_line ic) with
              | Some doc -> Json.member "found" doc = Some (Json.Bool true)
              | None -> false
            in
            send oc {|{"op":"bogus"}|};
            let err_ok =
              match Json.of_string_opt (input_line ic) with
              | Some doc -> Json.member "error" doc <> None
              | None -> false
            in
            results.(ci) <- ingest_ok && read_ok && err_ok;
            try Unix.close fd with Unix.Unix_error (_, _, _) -> ()))
  in
  List.iter Domain.join clients;
  Array.iteri
    (fun i ok ->
      check_bool (Printf.sprintf "client %d read its own write" i) true ok)
    results;
  (* A fresh connection sees all three committed epochs, and the local
     point query answers over the wire. *)
  let fd, ic, oc = connect () in
  send_op oc Protocol.Stats;
  (match Json.of_string_opt (input_line ic) with
  | Some doc ->
    check_bool "stats reports the committed epochs" true
      (Json.member "epoch" doc = Some (Json.Int n_clients));
    check_bool "stats counts the ingested facts (and their derivations)" true
      (match Json.member "facts" doc with
      | Some (Json.Int n) -> n >= facts0 + n_clients
      | _ -> false)
  | None -> Alcotest.fail "stats reply did not parse");
  send_op oc
    (Protocol.Query_local
       { key = ("born_in", "Ruth Gruber", "W", "Brooklyn", "P"); budget = None });
  (match Json.of_string_opt (input_line ic) with
  | Some doc ->
    check_bool "query_local found the fact" true
      (Json.member "found" doc = Some (Json.Bool true));
    check_bool "the answer carries an epoch" true
      (Json.member "epoch" doc = Some (Json.Int n_clients));
    check_bool "the marginal is a number" true
      (match Json.member "marginal" doc with
      | Some (Json.Float _) -> true
      | _ -> false)
  | None -> Alcotest.fail "query_local reply did not parse");
  (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
  Server.stop srv;
  Server.stop srv (* idempotent *);
  check_bool "the socket refuses connections after stop" true
    (match connect () with
    | exception Unix.Unix_error (_, _, _) -> true
    | fd, _, _ ->
      (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
      false)

(* An exception escaping a request — here from a raising access-log
   sink — closes that connection instead of leaving its client waiting,
   is counted in [serve.errors], and leaves the reader domain serving:
   with a pool of one, a second connection is still answered, and stop
   joins every domain without an exception. *)
let test_server_survives_raising_request () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let writer = Writer.of_session (Engine.session (no_infer_engine kb)) in
  let obs = Obs.create ~config:Obs.Config.enabled () in
  let srv =
    Server.start ~pool:1 ~obs
      ~access_log:(fun _ -> failwith "access log unavailable")
      ~kb ~writer
      ~addr:(Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
      ()
  in
  let ask () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd (Server.sockaddr srv);
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
        let ic = Unix.in_channel_of_descr fd in
        send (Unix.out_channel_of_descr fd) {|{"op":"stats"}|};
        match input_line ic with
        | _ -> `Reply
        | exception End_of_file -> `Closed
        | exception (Sys_blocked_io | Sys_error _) -> `Timed_out)
  in
  check_bool "the first connection is closed" true (ask () = `Closed);
  check_bool "the reader still serves a second one" true (ask () = `Closed);
  Server.stop srv;
  check_int "both counted as errors" 2
    (Obs.Summary.counter (Obs.Summary.of_trace obs) "serve.errors")

(* A request line without a newline is cut off at the cap: the client
   gets an error reply, the connection closes, the error is counted, and
   the reader domain — the only one — goes on to serve the next client. *)
let test_server_bounds_request_lines () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let writer = Writer.of_session (Engine.session (no_infer_engine kb)) in
  let obs = Obs.create ~config:Obs.Config.enabled () in
  let srv =
    Server.start ~pool:1 ~obs ~kb ~writer
      ~addr:(Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
      ()
  in
  let connect () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Server.sockaddr srv);
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
    fd
  in
  let reply_of fd =
    match input_line (Unix.in_channel_of_descr fd) with
    | line -> Json.of_string_opt line
    | exception (End_of_file | Sys_error _ | Sys_blocked_io) -> None
  in
  let fd = connect () in
  (* 2 MiB, no newline.  The server stops reading at its cap, so the
     sender blocks until the connection closes: it runs on a domain of
     its own while this one waits for the reply. *)
  let sender =
    Domain.spawn (fun () ->
        let chunk = Bytes.make 65536 'x' in
        try
          for _ = 1 to 32 do
            ignore (Unix.write fd chunk 0 (Bytes.length chunk))
          done
        with Unix.Unix_error (_, _, _) -> ())
  in
  let reply = reply_of fd in
  Domain.join sender;
  (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
  check_bool "the oversized line gets the error reply" true
    (match reply with
    | Some doc ->
      Json.member "error" doc = Some (Json.String "request line too long")
    | None -> false);
  let fd = connect () in
  send (Unix.out_channel_of_descr fd) {|{"op":"stats"}|};
  let next = reply_of fd in
  (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
  check_bool "the next client is served" true
    (match next with
    | Some doc -> Json.member "epoch" doc <> None
    | None -> false);
  Server.stop srv;
  check_int "the oversized line is counted as an error" 1
    (Obs.Summary.counter (Obs.Summary.of_trace obs) "serve.errors")

(* A request line holding a number JSON's grammar rejects ([1e], an
   exponent without digits) gets the malformed-JSON error reply, and the
   next request on the same connection is answered. *)
let test_server_answers_malformed_number () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let writer = Writer.of_session (Engine.session (no_infer_engine kb)) in
  let srv =
    Server.start ~pool:1 ~kb ~writer
      ~addr:(Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
      ()
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
      Server.stop srv)
    (fun () ->
      Unix.connect fd (Server.sockaddr srv);
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      let ic = Unix.in_channel_of_descr fd
      and oc = Unix.out_channel_of_descr fd in
      let ask line =
        send oc line;
        match input_line ic with
        | reply -> Json.of_string_opt reply
        | exception (End_of_file | Sys_error _ | Sys_blocked_io) -> None
      in
      check_bool "the malformed number gets the error reply" true
        (ask {|{"op":"stats","x":1e}|}
        = Some (Json.Obj [ ("error", Json.String "malformed JSON") ]));
      check_bool "the next request on the connection is answered" true
        (match ask {|{"op":"stats"}|} with
        | Some doc -> Json.member "epoch" doc <> None
        | None -> false))

(* --- first reads in fresh processes ------------------------------------- *)

(* Two clients send their first query_local at the same moment, each in
   a fresh server process (test/serve_race.ml).  While the debug flag was
   a lazy value, two reader domains could force it at once; OCaml 5 then
   raises [CamlinternalLazy.Undefined] in one of them, which ended that
   reader without closing its connection, and its client waited forever.
   That happened in about 1 run in 30 on a 2-core host, so 150 runs
   (about 4 s) miss it with probability under 1%. *)
let test_first_reads_race () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "serve_race.exe"
  in
  for run = 1 to 150 do
    let pid =
      Unix.create_process exe [| exe |] Unix.stdin Unix.stdout Unix.stderr
    in
    let rec wait () =
      try snd (Unix.waitpid [] pid)
      with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    match wait () with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED 1 -> Alcotest.failf "run %d: a client timed out" run
    | Unix.WEXITED c -> Alcotest.failf "run %d: serve_race exited %d" run c
    | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Alcotest.failf "run %d: serve_race stopped by signal %d" run n
  done

(* --- telemetry: admin HTTP, metrics op, access/slow logs ---------------- *)

module Summary = Obs.Summary
module Admin = Serve.Admin
module Metrics = Serve.Metrics

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* A one-shot HTTP/1.0 request against the admin listener; returns the
   raw response text (status line, headers, body).  A listener that never
   answers fails the read after 10 s instead of hanging the suite. *)
let http_request addr request =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      Unix.connect fd addr;
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      let oc = Unix.out_channel_of_descr fd in
      output_string oc request;
      flush oc;
      let ic = Unix.in_channel_of_descr fd in
      let buf = Buffer.create 1024 in
      (try
         while true do
           Buffer.add_channel buf ic 1
         done
       with End_of_file -> ());
      Buffer.contents buf)

let http_get addr path =
  http_request addr ("GET " ^ path ^ " HTTP/1.0\r\nHost: t\r\n\r\n")

let http_status resp = Scanf.sscanf resp "HTTP/1.0 %d" Fun.id

let http_body resp =
  let rec find i =
    if i + 4 > String.length resp then String.length resp
    else if String.sub resp i 4 = "\r\n\r\n" then i + 4
    else find (i + 1)
  in
  let i = find 0 in
  String.sub resp i (String.length resp - i)

let test_admin_http () =
  let hits = Atomic.make 0 in
  let obs = Obs.create ~config:Obs.Config.enabled () in
  let admin =
    Admin.start ~obs
      ~addr:(Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
      ~routes:
        [
          ( "/metrics",
            Admin.route ~content_type:"text/plain; version=0.0.4" (fun () ->
                Atomic.incr hits;
                Printf.sprintf "up %d\n" (Atomic.get hits)) );
          ( "/boom",
            Admin.route ~content_type:"text/plain" (fun () ->
                failwith "handler exploded") );
        ]
      ()
  in
  let addr = Admin.sockaddr admin in
  check_bool "a real port was bound" true (Admin.port admin <> None);
  let resp = http_get addr "/metrics" in
  check_int "GET known route is 200" 200 (http_status resp);
  check_bool "content-type header present" true
    (contains resp "Content-Type: text/plain; version=0.0.4");
  check_string "body is the handler's rendering" "up 1\n" (http_body resp);
  (* The body is re-evaluated per request. *)
  check_string "second scrape re-renders" "up 2\n"
    (http_body (http_get addr "/metrics"));
  check_string "query strings are stripped" "up 3\n"
    (http_body (http_get addr "/metrics?refresh=1"));
  check_int "unknown path is 404" 404 (http_status (http_get addr "/nope"));
  check_int "non-GET is 405" 405
    (http_status
       (http_request addr "POST /metrics HTTP/1.0\r\nHost: t\r\n\r\n"));
  check_int "raising handler is 500" 500 (http_status (http_get addr "/boom"));
  check_int "malformed request line is 400" 400
    (http_status (http_request addr "nonsense\r\n\r\n"));
  (* Request and header lines are capped at 8 KiB: past it the listener
     answers 431 without reading on, and serves the next request. *)
  let long = String.make 16384 'x' in
  check_int "an oversized request line is 431" 431
    (http_status (http_request addr ("GET /" ^ long)));
  check_int "an oversized header line is 431" 431
    (http_status
       (http_request addr ("GET /metrics HTTP/1.0\r\nX-Pad: " ^ long)));
  check_int "both are counted in serve.errors" 2
    (Summary.counter (Summary.of_trace obs) "serve.errors");
  check_string "the next request is served" "up 4\n"
    (http_body (http_get addr "/metrics"));
  Admin.stop admin;
  Admin.stop admin (* idempotent *);
  check_bool "refuses connections after stop" true
    (match http_get addr "/metrics" with
    | exception Unix.Unix_error (_, _, _) -> true
    | "" -> true (* accepted then reset before a response *)
    | _ -> false)

(* One server, obs enabled, slow threshold 0 (every request is "slow"):
   drives the full telemetry path — metrics protocol op, Prometheus
   exposition, /statusz, access log with span subtrees — and checks the
   scraped request count against the client-side count. *)
let test_server_telemetry () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  (* One trace shared by the engine and the server (as the CLI wires it):
     the query_local spans recorded inside snapshot answers nest under
     the server's serve.request spans. *)
  let engine =
    Engine.create
      ~config:(Probkb.Config.make ~inference:None ~obs:Obs.Config.enabled ())
      kb
  in
  let s = Engine.session engine in
  let writer = Writer.of_session s in
  let obs = Engine.trace engine in
  let log_path = Filename.temp_file "probkb_access" ".ndjson" in
  let log_oc = open_out log_path in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log_path with Sys_error _ -> ())
    (fun () ->
      let srv =
        Server.start ~pool:2 ~obs
          ~access_log:(Server.ndjson_sink log_oc)
          ~slow_ms:0. ~kb ~writer
          ~addr:(Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
          ()
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Server.sockaddr srv);
      let ic = Unix.in_channel_of_descr fd
      and oc = Unix.out_channel_of_descr fd in
      let roundtrip op =
        send_op oc op;
        match Json.of_string_opt (input_line ic) with
        | Some doc -> doc
        | None ->
          Alcotest.failf "reply to %s did not parse"
            (Json.to_string (Protocol.op_to_json op))
      in
      let key = ("born_in", "Ruth Gruber", "W", "Brooklyn", "P") in
      ignore
        (roundtrip
           (Protocol.Ingest [ (("born_in", "X", "W", "Springfield", "P"), 0.7) ]));
      ignore (roundtrip (Protocol.Query key));
      ignore (roundtrip (Protocol.Query_local { key; budget = None }));
      ignore (roundtrip (Protocol.Stats));
      (* The in-band scrape: the metrics op answers the merged summary,
         including the requests that preceded it. *)
      let mreply = roundtrip Protocol.Metrics in
      (match Json.member "metrics" mreply with
      | Some m ->
        let sum = Summary.of_json_string (Json.to_string m) in
        check_bool "in-band summary counts the prior requests" true
          (Summary.counter sum "serve.requests" >= 4);
        check_bool "in-band summary carries request histograms" true
          (Summary.hist sum "serve.request_seconds" <> None)
      | None -> Alcotest.fail "metrics reply has no metrics member");
      (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
      (* Client-side count: 5 ops, all replied to — and telemetry is
         recorded before each reply is written, so the scrape agrees. *)
      let n_ops = 5 in
      let sum = Summary.of_trace (Server.trace srv) in
      check_int "scraped request count = client-side count" n_ops
        (Summary.counter sum "serve.requests");
      check_bool "every request is in the latency histogram" true
        (match Summary.hist sum "serve.request_seconds" with
        | Some h -> Obs.Hist.count h = n_ops
        | None -> false);
      check_bool "per-op series recorded" true
        (match Summary.hist sum "serve.request_seconds|op=query_local" with
        | Some h -> Obs.Hist.count h = 1
        | None -> false);
      (* Prometheus exposition. *)
      let text = Server.metrics_text srv in
      List.iter
        (fun needle ->
          check_bool (Printf.sprintf "exposition contains %S" needle) true
            (contains text needle))
        [
          "# TYPE serve_requests_total counter";
          Printf.sprintf "serve_requests_total %d" n_ops;
          "# TYPE serve_request_seconds histogram";
          "serve_request_seconds_bucket{op=\"query_local\",le=\"+Inf\"} 1";
          "serve_request_seconds_count{op=\"query_local\"} 1";
          "# TYPE serve_epoch_lag gauge";
          "serve_epoch_lag 0";
          "serve_epoch_lag_dist_count 1";
          "serve_apply_seconds_count 1";
        ];
      (* /statusz. *)
      let st = Server.status_json srv in
      check_bool "statusz epoch is the committed epoch" true
        (Json.member "epoch" st = Some (Json.Int 1));
      check_bool "statusz counts requests" true
        (Json.member "requests" st = Some (Json.Int n_ops));
      check_bool "statusz counts the slow requests" true
        (Json.member "slow_requests" st = Some (Json.Int n_ops));
      check_bool "statusz has memory figures" true
        (match Json.member "mem" st with Some (Json.Obj _) -> true | _ -> false);
      check_bool "statusz has per-op latency digests" true
        (match Json.member "request_seconds" st with
        | Some (Json.Obj kv) ->
          List.mem_assoc "all" kv && List.mem_assoc "query_local" kv
        | _ -> false);
      Server.stop srv;
      close_out log_oc;
      (* The access log: one record per request, unique ids, and — with
         slow_ms 0 — span subtrees on every record; the query_local one
         carries the grounding walk's attributes. *)
      let ic = open_in log_path in
      let records = ref [] in
      (try
         while true do
           records := Json.of_string (input_line ic) :: !records
         done
       with End_of_file -> ());
      close_in ic;
      let records = List.rev !records in
      check_int "one access record per request" n_ops (List.length records);
      let ids =
        List.filter_map
          (fun r ->
            match Json.member "id" r with Some (Json.Int i) -> Some i | _ -> None)
          records
      in
      check_int "every record has an id" n_ops (List.length ids);
      check_bool "ids are unique" true
        (List.sort_uniq compare ids = List.sort compare ids
        && List.length (List.sort_uniq compare ids) = n_ops);
      List.iter
        (fun r ->
          check_bool "record marked slow at threshold 0" true
            (Json.member "slow" r = Some (Json.Bool true));
          check_bool "slow record carries spans" true
            (Json.member "spans" r <> None))
        records;
      let ql =
        List.find_opt
          (fun r -> Json.member "op" r = Some (Json.String "query_local"))
          records
      in
      match ql with
      | None -> Alcotest.fail "no access record for query_local"
      | Some r -> (
        match Json.member "spans" r with
        | Some spans ->
          let text = Json.to_string spans in
          List.iter
            (fun needle ->
              check_bool
                (Printf.sprintf "slow-query subtree carries %S" needle)
                true (contains text needle))
            [ "serve.request"; "query_local"; "hops"; "boundary"; "pruned_mass" ]
        | None -> Alcotest.fail "query_local record has no spans"))

(* Dead rows are observable without a flag: after a retract that pushes
   them past the compaction threshold (most of the Ruth Gruber KB dies
   with born_in(Brooklyn)), /metrics carries the compaction counter —
   one per table — and both dead-row gauges, and the trace holds a
   compact span under the retract. *)
let test_dead_rows_on_metrics () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let engine =
    Engine.create
      ~config:(Probkb.Config.make ~inference:None ~obs:Obs.Config.enabled ())
      kb
  in
  let writer = Writer.of_session (Engine.session engine) in
  let srv =
    Server.start ~pool:1 ~obs:(Engine.trace engine) ~kb ~writer
      ~addr:(Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
      ()
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Server.sockaddr srv);
  let ic = Unix.in_channel_of_descr fd in
  send_op
    (Unix.out_channel_of_descr fd)
    (Protocol.Retract
       { keys = [ ("born_in", "Ruth Gruber", "W", "Brooklyn", "P") ]; ban = false });
  let reply = Json.of_string (input_line ic) in
  (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
  check_bool "the retract took facts" true
    (match Json.member "retracted" reply with
    | Some (Json.Int n) -> n >= 3
    | _ -> false);
  let text = Server.metrics_text srv in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "exposition contains %S" needle) true
        (contains text needle))
    [
      "# TYPE incremental_compactions_total counter";
      "incremental_compactions_total 2";
      "# TYPE incremental_dead_facts gauge";
      "incremental_dead_facts 0";
      "# TYPE incremental_dead_factors gauge";
      "incremental_dead_factors 0";
    ];
  let rec has_compact_under_retract (n : Summary.node) =
    (n.Summary.name = "retract"
    && List.exists (fun (c : Summary.node) -> c.Summary.name = "compact")
         n.Summary.children)
    || List.exists has_compact_under_retract n.Summary.children
  in
  check_bool "a compact span under retract" true
    (List.exists has_compact_under_retract
       (Summary.of_trace (Engine.trace engine)).Summary.spans);
  Server.stop srv

(* Trust signals are observable without a flag too: after refreshes,
   /metrics carries the whole graph's exact fraction, largest width
   solved and sampled variable count as gauges, and counters of what the
   refreshes solved, reused, peeled and sampled.  The options sample
   every component past two variables; the second refresh follows no
   write, so it copies every exact answer and samples the rest again.  A
   fact no rule mentions is a component of its own, solved exactly. *)
let test_trust_signals_on_metrics () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  ignore
    (Kb.Gamma.add_fact_by_name kb ~r:"visited" ~x:"Ruth Gruber" ~c1:"W"
       ~y:"Alaska" ~c2:"P" ~w:0.8);
  (* A three-fact star (born_in and the live_in and grow_up_in it
     derives): width 1, so it is eliminated. *)
  ignore
    (Kb.Gamma.add_fact_by_name kb ~r:"born_in" ~x:"Ada" ~c1:"W" ~y:"Paris"
       ~c2:"C" ~w:0.9);
  let options =
    {
      Inference.Hybrid.exact_max_vars = 2;
      max_width = 1;
      gibbs = { Inference.Gibbs.burn_in = 5; samples = 20; seed = 3 };
    }
  in
  let engine =
    Engine.create
      ~config:
        (Probkb.Config.make ~inference:(Some options)
           ~obs:Obs.Config.enabled ())
      kb
  in
  let writer = Writer.of_session (Engine.session engine) in
  let srv =
    Server.start ~pool:1 ~obs:(Engine.trace engine) ~kb ~writer
      ~addr:(Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
      ()
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Server.sockaddr srv);
  let ic = Unix.in_channel_of_descr fd
  and oc = Unix.out_channel_of_descr fd in
  for _ = 1 to 2 do
    send_op oc Protocol.Refresh;
    check_bool "the refresh replied with its epoch" true
      (Json.member "epoch" (Json.of_string (input_line ic)) <> None)
  done;
  (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
  let text = Server.metrics_text srv in
  let r =
    match Session.last_run (Writer.session writer) with
    | Some (Inference.Marginal.Hybrid_run r) -> r
    | None -> Alcotest.fail "no refresh report"
  in
  check_bool "a component is sampled" true
    (r.Inference.Hybrid.sampled_vars > 0);
  check_bool "the peel eliminated some sampled variables" true
    (r.Inference.Hybrid.peeled_vars > 0
    && r.Inference.Hybrid.peeled_vars < r.Inference.Hybrid.sampled_vars);
  check_bool "a component is exact" true (r.Inference.Hybrid.exact_vars > 0);
  let value name =
    let prefix = name ^ " " in
    let n = String.length prefix in
    match
      List.find_opt (String.starts_with ~prefix)
        (String.split_on_char '\n' text)
    with
    | Some l -> float_of_string (String.sub l n (String.length l - n))
    | None -> Alcotest.failf "no %s sample on /metrics" name
  in
  Alcotest.(check (float 1e-9)) "inference_exact_fraction"
    (Inference.Hybrid.exact_fraction r)
    (value "inference_exact_fraction");
  Alcotest.(check (float 0.)) "inference_max_width_solved"
    (float_of_int r.Inference.Hybrid.max_width_solved)
    (value "inference_max_width_solved");
  Alcotest.(check (float 0.)) "inference_sampled_vars"
    (float_of_int r.Inference.Hybrid.sampled_vars)
    (value "inference_sampled_vars");
  (* The first refresh enumerated and eliminated the exact components. *)
  check_bool "a component is eliminated" true
    (r.Inference.Hybrid.eliminated_components > 0);
  check_bool "enumeration time exported" true
    (value "hybrid_enumerate_seconds_total" > 0.);
  check_bool "elimination time exported" true
    (value "hybrid_jtree_seconds_total" > 0.);
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "exposition contains %S" needle) true
        (contains text needle))
    [
      "# TYPE inference_exact_fraction gauge";
      "# TYPE inference_max_width_solved gauge";
      "# TYPE inference_sampled_vars gauge";
      (* The second refresh copies every exact answer and re-runs the
         sampler on the sampled components. *)
      Printf.sprintf "hybrid_components_total %d"
        (Array.length r.Inference.Hybrid.components
        + r.Inference.Hybrid.sampled_components);
      Printf.sprintf "hybrid_components_reused_total %d"
        (Array.length r.Inference.Hybrid.components
        - r.Inference.Hybrid.sampled_components);
      Printf.sprintf "hybrid_vars_reused_total %d"
        r.Inference.Hybrid.exact_vars;
      (* Each refresh peels the sampled components afresh. *)
      "# TYPE hybrid_vars_peeled_total counter";
      Printf.sprintf "hybrid_vars_peeled_total %d"
        (2 * r.Inference.Hybrid.peeled_vars);
      "hybrid_sampler_runs_total 2";
    ];
  Server.stop srv

let () =
  Alcotest.run "serve"
    [
      ( "codec",
        [
          Alcotest.test_case "ops round-trip the wire" `Quick
            test_codec_roundtrip;
          Alcotest.test_case "malformed input" `Quick test_codec_errors;
          test_codec_byte_fuzz;
          Alcotest.test_case "read resolution never interns" `Quick
            test_resolve_reads_never_intern;
          Alcotest.test_case "session-mode step" `Quick
            test_step_session_semantics;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "freeze = the old freeze, random epochs" `Quick
            test_freeze_equals_oracle;
          Alcotest.test_case "immutable across epochs" `Quick
            test_snapshot_immutable_across_epochs;
          Alcotest.test_case "view after Engine.run" `Quick
            test_view_after_run;
          Alcotest.test_case "engine sees session rule edits" `Quick
            test_engine_sees_session_rule_edits;
          Alcotest.test_case "an unbudgeted read records its variables"
            `Quick test_query_local_vars_dist;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "readers = serial replay" `Quick
            test_concurrent_readers_differential;
        ] );
      ( "server",
        [
          Alcotest.test_case "end to end over a socket" `Quick
            test_server_end_to_end;
          Alcotest.test_case "a raising request closes its connection" `Quick
            test_server_survives_raising_request;
          Alcotest.test_case "an oversized request line is cut off" `Quick
            test_server_bounds_request_lines;
          Alcotest.test_case "a malformed number is answered" `Quick
            test_server_answers_malformed_number;
          Alcotest.test_case "first reads race in fresh processes" `Quick
            test_first_reads_race;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "admin HTTP listener" `Quick test_admin_http;
          Alcotest.test_case "metrics, statusz and access logs" `Quick
            test_server_telemetry;
          Alcotest.test_case "dead rows on /metrics" `Quick
            test_dead_rows_on_metrics;
          Alcotest.test_case "trust signals on /metrics" `Quick
            test_trust_signals_on_metrics;
        ] );
    ]
