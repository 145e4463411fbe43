(* The observability subsystem: deterministic span trees across pool
   sizes, counter totals on the worked example, EXPLAIN instrumentation,
   and JSON round-trips of summaries. *)

module Obs = Probkb.Obs
module Summary = Obs.Summary

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Span-tree shape with timings erased. *)
type shape = Node of string * int * shape list

let rec shape (n : Summary.node) =
  Node (n.Summary.name, n.Summary.count, List.map shape n.Summary.children)

let expand_with_obs () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let config =
    Probkb.Config.make ~inference:None ~obs:Obs.Config.enabled ()
  in
  let engine = Probkb.Engine.create ~config kb in
  let e = Probkb.Engine.expand engine in
  (kb, e)

let with_pool_size d f =
  Pool.set_default_size d;
  Fun.protect ~finally:(fun () -> Pool.set_default_size (Pool.env_domains ())) f

let test_span_tree_deterministic () =
  let shapes_at d =
    with_pool_size d (fun () ->
        let _, e = expand_with_obs () in
        List.map shape e.Probkb.Engine.obs.Summary.spans)
  in
  let s1 = shapes_at 1 and s4 = shapes_at 4 in
  check_bool "same span tree for pool sizes 1 and 4" true (s1 = s4);
  (* The expand stage nests the closure, its iterations and the M-pattern
     queries. *)
  let _, e = expand_with_obs () in
  let s = e.Probkb.Engine.obs in
  check_bool "expand > closure > iteration 1 > M1 present" true
    (Option.is_some (Summary.find s [ "expand"; "closure"; "iteration 1"; "M1" ]));
  check_bool "factor span present" true
    (Option.is_some (Summary.find s [ "expand"; "factors" ]))

let test_counters_worked_example () =
  let _, e = expand_with_obs () in
  let s = e.Probkb.Engine.obs in
  (* The worked example derives exactly 5 new facts (Figure 2). *)
  check_int "ground.new_facts" 5 (Summary.counter s "ground.new_facts");
  check_int "iterations counted" e.Probkb.Engine.iterations
    (Summary.counter s "ground.iterations");
  check_int "factors counted" e.Probkb.Engine.n_factors
    (Summary.counter s "ground.clause_factors"
    + Summary.counter s "ground.singleton_factors");
  (* Operator counters obey their own bookkeeping identity. *)
  check_int "distinct rows_in - duplicates = rows_out"
    (Summary.counter s "distinct.rows_in"
    - Summary.counter s "distinct.duplicates")
    (Summary.counter s "distinct.rows_out");
  check_bool "joins recorded" true (Summary.counter s "join.joins" > 0)

let test_explain_est_vs_observed () =
  let kb, _ = expand_with_obs () in
  let prepared = Grounding.Queries.prepare (Kb.Gamma.partitions kb) in
  let pi = Kb.Gamma.pi kb in
  let checked = ref 0 in
  List.iter
    (fun pat ->
      if Mln.Partition.count (Grounding.Queries.partitions prepared) pat > 0
      then begin
        incr checked;
        let plan = Grounding.Queries.atoms_plan prepared pat pi in
        let table, a = Relational.Plan.analyze plan in
        check_int "observed rows match the result" (Relational.Table.nrows table)
          a.Relational.Plan.rows;
        check_bool "estimate is non-negative" true (a.Relational.Plan.est_rows >= 0);
        check_bool "plan has children" true (a.Relational.Plan.children <> []);
        check_bool "timing is non-negative" true (a.Relational.Plan.seconds >= 0.)
      end)
    Mln.Pattern.all;
  check_bool "at least one active pattern" true (!checked > 0)

(* A timer fed only zero samples still reaches the summary, at 0 — a
   solver route that ran on nothing reports its 0 s, not its absence. *)
let test_zero_timer () =
  let obs = Obs.create ~config:Obs.Config.enabled () in
  Obs.add_time obs "t.idle" 0.;
  Obs.add_time obs "t.idle" 0.;
  let s = Summary.of_trace obs in
  Alcotest.(check (option (float 0.))) "zero timer" (Some 0.)
    (List.assoc_opt "t.idle" s.Summary.timers)

let test_summary_json_roundtrip () =
  let obs = Obs.create ~config:Obs.Config.enabled () in
  Obs.with_ambient obs (fun () ->
      Obs.with_span obs "root" (fun () ->
          Obs.with_span obs "child" (fun () -> ());
          Obs.with_span obs "child" (fun () -> ()));
      Obs.add obs "c.hits" 3;
      Obs.incr obs "c.hits";
      Obs.add_time obs "t.busy" 0.125;
      Obs.gauge obs "g.skew" 2.5);
  let s = Summary.of_trace obs in
  check_int "aggregated count" 2
    (match Summary.find s [ "root"; "child" ] with
    | Some n -> n.Summary.count
    | None -> -1);
  let s' = Summary.of_json_string (Obs.Json.to_string (Summary.to_json s)) in
  check_bool "round-trips through JSON text" true (s = s');
  (* Engine summaries survive the same round-trip. *)
  let _, e = expand_with_obs () in
  let es = e.Probkb.Engine.obs in
  let es' = Summary.of_json_string (Obs.Json.to_string (Summary.to_json es)) in
  check_bool "engine summary round-trips" true (es = es')

let test_malformed_json () =
  check_bool "unterminated object rejected" true
    (Obs.Json.of_string_opt "{\"a\": " = None);
  check_bool "garbage rejected" true (Obs.Json.of_string_opt "nonsense" = None);
  (* A number lexeme JSON's grammar rejects ends in [Malformed] as well,
     never in [float_of_string]'s [Failure]. *)
  List.iter
    (fun n ->
      check_bool (n ^ " rejected") true (Obs.Json.of_string_opt n = None))
    [ "1e"; "1e+"; "1.4E"; "1."; "-"; "-e5"; "-.5"; "01"; "--1"; "1.e5" ];
  List.iter
    (fun (n, v) ->
      check_bool (n ^ " accepted") true (Obs.Json.of_string_opt n = Some v))
    Obs.Json.
      [
        ("0", Int 0); ("-0", Int 0); ("1e5", Float 1e5); ("1E+5", Float 1e5);
        ("-1.5e-3", Float (-1.5e-3)); ("0.25", Float 0.25);
      ];
  (* A \u escape is exactly four hex digits. *)
  List.iter
    (fun s ->
      check_bool (s ^ " rejected") true (Obs.Json.of_string_opt s = None))
    [
      {|"\u1_23"|}; {|"\u_123"|}; {|"\u+123"|}; {|"\u-123"|}; {|"\u12g4"|};
      {|"\u12"|};
    ];
  List.iter
    (fun (s, v) ->
      check_bool (s ^ " accepted") true
        (Obs.Json.of_string_opt s = Some (Obs.Json.String v)))
    [
      ({|"\u0041"|}, "A"); ({|"\u00e9"|}, "\xc3\xa9");
      ({|"\uABCD"|}, "\xea\xaf\x8d");
    ];
  let raised =
    try
      ignore (Summary.of_json_string "[1, 2]");
      false
    with Obs.Json.Malformed _ | Failure _ -> true
  in
  check_bool "non-summary JSON rejected" true raised

let test_nonfinite_json () =
  (* Non-finite floats encode as strings — the output stays valid JSON. *)
  let enc v = Obs.Json.to_string (Obs.Json.Float v) in
  Alcotest.(check string) "nan" "\"NaN\"" (enc Float.nan);
  Alcotest.(check string) "inf" "\"Infinity\"" (enc Float.infinity);
  Alcotest.(check string) "-inf" "\"-Infinity\"" (enc Float.neg_infinity);
  (* The encoded document parses back, and the accessor recovers the
     float. *)
  let doc =
    Obs.Json.to_string
      (Obs.Json.Obj
         [ ("r_hat", Obs.Json.Float Float.nan);
           ("ess", Obs.Json.Float Float.infinity);
           ("x", Obs.Json.Float 1.5) ])
  in
  let parsed = Obs.Json.of_string doc in
  let f name =
    Option.bind (Obs.Json.member name parsed) Obs.Json.to_float
  in
  check_bool "NaN round-trips" true
    (match f "r_hat" with Some v -> Float.is_nan v | None -> false);
  check_bool "Infinity round-trips" true (f "ess" = Some Float.infinity);
  check_bool "finite untouched" true (f "x" = Some 1.5);
  (* Bare non-finite tokens (what a naive printer would emit) are
     rejected with a clear error. *)
  List.iter
    (fun s ->
      check_bool (s ^ " rejected") true (Obs.Json.of_string_opt s = None))
    [ "NaN"; "Infinity"; "-Infinity"; "{\"a\": NaN}"; "[-Infinity]" ];
  let msg =
    try
      ignore (Obs.Json.of_string "NaN");
      ""
    with Obs.Json.Malformed m -> m
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "error explains the encoding" true (contains msg "non-finite")

(* --- histograms --- *)

module Hist = Obs.Hist

let record_hist_at d values =
  with_pool_size d (fun () ->
      let obs = Obs.create ~config:Obs.Config.enabled () in
      let pool = Pool.get_default () in
      let values = Array.of_list values in
      (* Dynamic scheduling: which domain records which observation
         differs run to run and pool size to pool size — the merged
         result must not. *)
      Pool.parallel_for pool ~n:(Array.length values) (fun i ->
          Obs.observe obs "h" values.(i));
      Summary.of_trace obs)

let test_hist_pool_determinism =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30
       ~name:"hist merged across pool sizes 1 vs 4 is bit-identical"
       QCheck.(small_list (map Float.abs float))
       (fun values ->
         let s1 = record_hist_at 1 values and s4 = record_hist_at 4 values in
         let j s = Obs.Json.to_string (Summary.to_json s) in
         (match (Summary.hist s1 "h", Summary.hist s4 "h") with
         | Some h1, Some h4 ->
           Hist.equal h1 h4
           && Hist.count h1 = List.length values
           && Hist.sum_micro h1 = Hist.sum_micro h4
           && Hist.buckets h1 = Hist.buckets h4
         | None, None -> values = []
         | _ -> false)
         && j s1 = j s4))

let test_hist_json_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:50 ~name:"hist JSON round-trip"
       QCheck.(small_list (map Float.abs float))
       (fun values ->
         let h = Hist.create () in
         List.iter (Hist.observe h) values;
         let h' = Hist.of_json (Hist.to_json h) in
         Hist.equal h h'))

let test_hist_summary_roundtrip () =
  let obs = Obs.create ~config:Obs.Config.enabled () in
  Obs.observe obs "lat" 0.003;
  Obs.observe obs "lat" 0.04;
  Obs.observe obs "lat|op=q" 1e9;
  let s = Summary.of_trace obs in
  let s' = Summary.of_json_string (Obs.Json.to_string (Summary.to_json s)) in
  check_bool "summary with hists round-trips" true (s = s');
  check_bool "hist accessor finds the series" true
    (match Summary.hist s "lat" with
    | Some h -> Hist.count h = 2
    | None -> false)

let test_hist_quantile_edges () =
  let feq a b = Float.abs (a -. b) <= 1e-12 *. Float.max 1. (Float.abs b) in
  (* Empty: no rank to interpolate. *)
  let h = Hist.create () in
  check_bool "empty quantile is nan" true (Float.is_nan (Hist.quantile h 0.5));
  check_bool "empty max is nan" true (Float.is_nan (Hist.max_value h));
  (* Single occupied bucket: every quantile interpolates inside it. *)
  let h = Hist.create () in
  for _ = 1 to 5 do
    Hist.observe h 0.01
  done;
  let lower, upper =
    let i = ref 0 in
    while Hist.bound !i < 0.01 do
      incr i
    done;
    ((if !i = 0 then 0. else Hist.bound (!i - 1)), Hist.bound !i)
  in
  List.iter
    (fun q ->
      let v = Hist.quantile h q in
      check_bool "quantile inside the occupied bucket" true
        (v >= lower && v <= upper))
    [ 0.; 0.25; 0.5; 0.99; 1. ];
  check_bool "q=1 reaches the bucket's upper bound" true
    (feq (Hist.quantile h 1.) upper);
  (* Sub-resolution values land in bucket 0, whose lower edge is 0. *)
  let h = Hist.create () in
  Hist.observe h 1e-9;
  check_bool "tiny value quantile within bucket 0" true
    (Hist.quantile h 0.5 <= Hist.bound 0);
  (* Overflow bucket: quantiles and max clamp to the last finite bound. *)
  let h = Hist.create () in
  Hist.observe h 1e9;
  let last = Hist.bound (Hist.finite_buckets - 1) in
  check_bool "overflow quantile clamps" true (feq (Hist.quantile h 0.99) last);
  check_bool "overflow max clamps" true (feq (Hist.max_value h) last);
  check_bool "overflow counted" true (Hist.count h = 1);
  (* Exact bucket bounds are inclusive upper edges. *)
  let h = Hist.create () in
  Hist.observe h (Hist.bound 7);
  let b = Hist.buckets h in
  check_int "observation on a bound lands in that bucket" 1 b.(7)

let test_hist_merge_into () =
  let a = Hist.create () and b = Hist.create () in
  List.iter (Hist.observe a) [ 0.001; 0.002 ];
  List.iter (Hist.observe b) [ 0.004; 1e9 ];
  Hist.merge_into a b;
  check_int "merged count" 4 (Hist.count a);
  check_bool "merged sum" true
    (Float.abs (Hist.sum a -. (0.007 +. 1e9)) < 1e-5 *. 1e9);
  let expect = Hist.create () in
  List.iter (Hist.observe expect) [ 0.001; 0.002; 0.004; 1e9 ];
  check_bool "merge equals direct observation" true (Hist.equal a expect)

(* --- snapshots --- *)

let collect_snapshots ?(config = Probkb.Config.make ~inference:None ()) kb =
  let engine = Probkb.Engine.create ~config kb in
  let snaps = ref [] in
  Probkb.Obs.set_snapshot_sink
    (Probkb.Engine.trace engine)
    (Some (fun s -> snaps := s :: !snaps));
  let e = Probkb.Engine.expand engine in
  Probkb.Obs.set_snapshot_sink (Probkb.Engine.trace engine) None;
  (e, List.rev !snaps)

let test_snapshots_per_iteration () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let e, snaps = collect_snapshots kb in
  let ground =
    List.filter (fun s -> s.Obs.Snapshot.stage = "ground") snaps
  in
  (* One snapshot per closure iteration (no constraint hook, so no
     iteration-0 pre-pass). *)
  check_int "one snapshot per grounding iteration" e.Probkb.Engine.iterations
    (List.length ground);
  List.iteri
    (fun i s ->
      check_int "step is the iteration number" (i + 1) s.Obs.Snapshot.step;
      check_bool "point" true (s.Obs.Snapshot.point = "iteration"))
    ground;
  (* seq is monotone over the stream. *)
  let seqs = List.map (fun s -> s.Obs.Snapshot.seq) snaps in
  check_bool "seq monotone" true (List.sort compare seqs = seqs);
  (* Snapshots flow without span recording: the trace stayed disabled. *)
  check_bool "trace stayed disabled" true
    ((Probkb.Engine.expand (Probkb.Engine.create kb)).Probkb.Engine.obs
     |> fun s -> s.Summary.spans = [])

let test_snapshot_json_roundtrip () =
  let kb, _, _ = Tutil.ruth_gruber_kb () in
  let _, snaps = collect_snapshots kb in
  check_bool "collected something" true (snaps <> []);
  List.iter
    (fun s ->
      let s' =
        Obs.Snapshot.of_json_string
          (Obs.Json.to_string (Obs.Snapshot.to_json s))
      in
      check_bool "snapshot round-trips" true (s = s'))
    snaps

let test_snapshots_deterministic_across_pools () =
  let content_at d =
    with_pool_size d (fun () ->
        let kb, _, _ = Tutil.ruth_gruber_kb () in
        let _, snaps = collect_snapshots kb in
        List.map
          (fun s -> Obs.Json.to_string (Obs.Snapshot.deterministic_json s))
          snaps)
  in
  let c1 = content_at 1 and c4 = content_at 4 in
  check_bool "non-empty" true (c1 <> []);
  check_bool "snapshot content identical for pool sizes 1 and 4" true
    (c1 = c4)

let test_ndjson_sink () =
  let path = Filename.temp_file "probkb_snaps" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let kb, _, _ = Tutil.ruth_gruber_kb () in
      let engine =
        Probkb.Engine.create ~config:(Probkb.Config.make ~inference:None ()) kb
      in
      let oc = open_out path in
      Probkb.Obs.set_snapshot_sink
        (Probkb.Engine.trace engine)
        (Some (Obs.Snapshot.ndjson oc));
      let e = Probkb.Engine.expand engine in
      Probkb.Obs.set_snapshot_sink (Probkb.Engine.trace engine) None;
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      let lines = List.rev !lines in
      check_int "one NDJSON line per iteration" e.Probkb.Engine.iterations
        (List.length lines);
      let prev_at = ref neg_infinity in
      List.iter
        (fun line ->
          let s = Obs.Snapshot.of_json_string line in
          check_bool "at is monotone" true (s.Obs.Snapshot.at >= !prev_at);
          prev_at := s.Obs.Snapshot.at)
        lines)

let test_null_sink_refused () =
  Probkb.Obs.set_snapshot_sink Probkb.Obs.null (Some (fun _ -> ()));
  check_bool "null never accepts a sink" false
    (Probkb.Obs.snapshots_enabled Probkb.Obs.null)

let test_disabled_trace_is_inert () =
  let _, e =
    let kb, _, _ = Tutil.ruth_gruber_kb () in
    let engine =
      Probkb.Engine.create ~config:(Probkb.Config.make ~inference:None ()) kb
    in
    (kb, Probkb.Engine.expand engine)
  in
  let s = e.Probkb.Engine.obs in
  check_bool "no spans recorded when disabled" true (s.Summary.spans = []);
  check_int "no counters recorded when disabled" 0
    (List.length s.Summary.counters)

let () =
  Alcotest.run "obs"
    [
      ( "tracing",
        [
          Alcotest.test_case "span tree deterministic across pool sizes"
            `Quick test_span_tree_deterministic;
          Alcotest.test_case "counters on the worked example" `Quick
            test_counters_worked_example;
          Alcotest.test_case "a timer fed only zeros" `Quick test_zero_timer;
          Alcotest.test_case "disabled trace is inert" `Quick
            test_disabled_trace_is_inert;
        ] );
      ( "explain",
        [
          Alcotest.test_case "estimated vs observed rows" `Quick
            test_explain_est_vs_observed;
        ] );
      ( "json",
        [
          Alcotest.test_case "summary round-trip" `Quick
            test_summary_json_roundtrip;
          Alcotest.test_case "malformed input" `Quick test_malformed_json;
          Alcotest.test_case "non-finite floats" `Quick test_nonfinite_json;
        ] );
      ( "hist",
        [
          test_hist_pool_determinism;
          test_hist_json_roundtrip;
          Alcotest.test_case "summary with hists round-trips" `Quick
            test_hist_summary_roundtrip;
          Alcotest.test_case "quantile edge cases" `Quick
            test_hist_quantile_edges;
          Alcotest.test_case "merge_into" `Quick test_hist_merge_into;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "one per grounding iteration" `Quick
            test_snapshots_per_iteration;
          Alcotest.test_case "JSON round-trip" `Quick
            test_snapshot_json_roundtrip;
          Alcotest.test_case "deterministic across pool sizes" `Quick
            test_snapshots_deterministic_across_pools;
          Alcotest.test_case "ndjson sink" `Quick test_ndjson_sink;
          Alcotest.test_case "null refuses sinks" `Quick
            test_null_sink_refused;
        ] );
    ]
