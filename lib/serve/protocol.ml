module Json = Obs.Json
module Gamma = Kb.Gamma
module Dict = Relational.Dict
module Table = Relational.Table
module Session = Probkb.Engine.Session
module Snapshot = Probkb.Snapshot
module Local = Grounding.Local

type key = string * string * string * string * string

type op =
  | Ingest of (key * float) list
  | Retract of { keys : key list; ban : bool }
  | Retract_rules of { head : string }
  | Add_rules of string list
  | Reexpand
  | Refresh
  | Query of key
  | Query_local of { key : key; budget : Local.budget option }
  | Stats
  | Metrics

let is_write = function
  | Ingest _ | Retract _ | Retract_rules _ | Add_rules _ | Reexpand | Refresh
    ->
    true
  | Query _ | Query_local _ | Stats | Metrics -> false

let error_json msg = Json.Obj [ ("error", Json.String msg) ]

exception Line_too_long

let input_line_bounded ~max ic =
  let b = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | '\n' -> Buffer.contents b
    | c ->
      if Buffer.length b >= max then raise Line_too_long;
      Buffer.add_char b c;
      go ()
    | exception End_of_file ->
      if Buffer.length b = 0 then raise End_of_file else Buffer.contents b
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Parsing *)

let key_of_json = function
  | Json.List
      [
        Json.String r;
        Json.String x;
        Json.String c1;
        Json.String y;
        Json.String c2;
      ] ->
    Some (r, x, c1, y, c2)
  | _ -> None

let fact_of_json = function
  | Json.List [ r; x; c1; y; c2; w ] -> (
    match (key_of_json (Json.List [ r; x; c1; y; c2 ]), Json.to_float w) with
    | Some k, Some w -> Some (k, w)
    | _ -> None)
  | _ -> None

let member_list name doc =
  Option.bind (Json.member name doc) Json.to_list |> Option.value ~default:[]

let budget_of_json doc =
  let int name = Option.bind (Json.member name doc) Json.to_int in
  let float name = Option.bind (Json.member name doc) Json.to_float in
  match
    (int "budget", int "max_hops", float "decay", float "min_influence")
  with
  | None, None, None, None -> Ok None
  | max_facts, max_hops, decay, min_influence -> (
    try Ok (Some (Local.budget ?max_facts ?max_hops ?decay ?min_influence ()))
    with Invalid_argument m -> Error m)

let op_of_json doc =
  match
    Option.bind (Json.member "op" doc) Json.to_string_value
  with
  | None -> Error "missing op"
  | Some "ingest" ->
    Ok (Ingest (List.filter_map fact_of_json (member_list "facts" doc)))
  | Some "retract" ->
    let ban =
      match Json.member "ban" doc with Some (Json.Bool b) -> b | _ -> false
    in
    Ok
      (Retract
         { keys = List.filter_map key_of_json (member_list "keys" doc); ban })
  | Some "retract_rules" -> (
    match Option.bind (Json.member "head" doc) Json.to_string_value with
    | None -> Error "retract_rules needs a head relation"
    | Some head -> Ok (Retract_rules { head }))
  | Some "add_rules" ->
    Ok
      (Add_rules
         (List.filter_map Json.to_string_value (member_list "rules" doc)))
  | Some "reexpand" -> Ok Reexpand
  | Some "refresh" -> Ok Refresh
  | Some "query" -> (
    match Option.bind (Json.member "key" doc) key_of_json with
    | None -> Error "query needs a key"
    | Some key -> Ok (Query key))
  | Some "query_local" -> (
    match Option.bind (Json.member "key" doc) key_of_json with
    | None -> Error "query_local needs a key"
    | Some key -> (
      match budget_of_json doc with
      | Error m -> Error m
      | Ok budget -> Ok (Query_local { key; budget })))
  | Some "stats" -> Ok Stats
  | Some "metrics" -> Ok Metrics
  | Some other -> Error (Printf.sprintf "unknown op %S" other)

let op_of_line line =
  match Json.of_string_opt line with
  | None -> Error "malformed JSON"
  | Some doc -> op_of_json doc

(* ------------------------------------------------------------------ *)
(* Encoding (client mode, load generator) *)

let key_to_json (r, x, c1, y, c2) =
  Json.List
    [
      Json.String r; Json.String x; Json.String c1; Json.String y;
      Json.String c2;
    ]

let op_to_json = function
  | Ingest facts ->
    Json.Obj
      [
        ("op", Json.String "ingest");
        ( "facts",
          Json.List
            (List.map
               (fun ((r, x, c1, y, c2), w) ->
                 Json.List
                   [
                     Json.String r; Json.String x; Json.String c1;
                     Json.String y; Json.String c2; Json.Float w;
                   ])
               facts) );
      ]
  | Retract { keys; ban } ->
    Json.Obj
      [
        ("op", Json.String "retract");
        ("keys", Json.List (List.map key_to_json keys));
        ("ban", Json.Bool ban);
      ]
  | Retract_rules { head } ->
    Json.Obj [ ("op", Json.String "retract_rules"); ("head", Json.String head) ]
  | Add_rules rules ->
    Json.Obj
      [
        ("op", Json.String "add_rules");
        ("rules", Json.List (List.map (fun r -> Json.String r) rules));
      ]
  | Reexpand -> Json.Obj [ ("op", Json.String "reexpand") ]
  | Refresh -> Json.Obj [ ("op", Json.String "refresh") ]
  | Query key ->
    Json.Obj [ ("op", Json.String "query"); ("key", key_to_json key) ]
  | Query_local { key; budget } ->
    Json.Obj
      ([ ("op", Json.String "query_local"); ("key", key_to_json key) ]
      @
      match budget with
      | None -> []
      | Some b ->
        List.concat
          [
            (match b.Local.max_facts with
            | Some n -> [ ("budget", Json.Int n) ]
            | None -> []);
            (match b.Local.max_hops with
            | Some n -> [ ("max_hops", Json.Int n) ]
            | None -> []);
            (if b.Local.decay = 1.0 then []
             else [ ("decay", Json.Float b.Local.decay) ]);
            (if b.Local.min_influence = 0.0 then []
             else [ ("min_influence", Json.Float b.Local.min_influence) ]);
          ])
  | Stats -> Json.Obj [ ("op", Json.String "stats") ]
  | Metrics -> Json.Obj [ ("op", Json.String "metrics") ]

(* ------------------------------------------------------------------ *)
(* Symbol resolution *)

type resolved =
  | RIngest of (int * int * int * int * int * float) list
  | RRetract of { keys : (int * int * int * int * int) list; ban : bool }
  | RRetract_rules of { head : int option }
  | RAdd_rules of Mln.Clause.t list
  | RReexpand
  | RRefresh
  | RQuery of (int * int * int * int * int) option
  | RQuery_local of {
      key : (int * int * int * int * int) option;
      budget : Local.budget option;
    }
  | RStats
  | RMetrics

let intern_key kb (r, x, c1, y, c2) =
  ( Gamma.relation kb r,
    Gamma.entity kb x,
    Gamma.cls kb c1,
    Gamma.entity kb y,
    Gamma.cls kb c2 )

(* Read-path resolution never interns: an unknown symbol means the fact
   cannot exist, and lookups leave the shared dictionaries untouched
   (they are only safe to read concurrently). *)
let lookup_key kb (r, x, c1, y, c2) =
  let ( let* ) = Option.bind in
  let* r = Dict.find_opt (Gamma.relations kb) r in
  let* x = Dict.find_opt (Gamma.entities kb) x in
  let* c1 = Dict.find_opt (Gamma.classes kb) c1 in
  let* y = Dict.find_opt (Gamma.entities kb) y in
  let* c2 = Dict.find_opt (Gamma.classes kb) c2 in
  Some (r, x, c1, y, c2)

let resolve kb = function
  | Ingest facts ->
    Ok
      (RIngest
         (List.map
            (fun (k, w) ->
              let r, x, c1, y, c2 = intern_key kb k in
              (r, x, c1, y, c2, w))
            facts))
  | Retract { keys; ban } ->
    (* Unknown symbols cannot name a stored fact; dropping them here is
       observationally identical to resolving and finding nothing. *)
    Ok (RRetract { keys = List.filter_map (lookup_key kb) keys; ban })
  | Retract_rules { head } ->
    Ok (RRetract_rules { head = Dict.find_opt (Gamma.relations kb) head })
  | Add_rules rules -> (
    try
      Ok
        (RAdd_rules
           (Mln.Parse.parse_lines
              ~intern_rel:(Gamma.relation kb)
              ~intern_cls:(Gamma.cls kb) rules))
    with Mln.Parse.Syntax_error m -> Error m)
  | Reexpand -> Ok RReexpand
  | Refresh -> Ok RRefresh
  | Query key -> Ok (RQuery (lookup_key kb key))
  | Query_local { key; budget } ->
    Ok (RQuery_local { key = lookup_key kb key; budget })
  | Stats -> Ok RStats
  | Metrics -> Ok RMetrics

(* ------------------------------------------------------------------ *)
(* Reply documents *)

let not_found = Json.Obj [ ("found", Json.Bool false) ]

let view_json (v : Snapshot.view) =
  Json.Obj
    [
      ("found", Json.Bool true);
      ("id", Json.Int v.Snapshot.id);
      ("base", Json.Bool v.Snapshot.base);
      ( "weight",
        if Table.is_null_weight v.Snapshot.weight then Json.Null
        else Json.Float v.Snapshot.weight );
      ( "marginal",
        match v.Snapshot.marginal with
        | Some p -> Json.Float p
        | None -> Json.Null );
    ]

let answer_json (a : Snapshot.answer) =
  Json.Obj
    [
      ("found", Json.Bool true);
      ("id", Json.Int a.id);
      ("epoch", Json.Int a.epoch);
      ("marginal", Json.Float a.marginal);
      ( "method",
        Json.String (if a.enumerated then "local-exact" else "local-gibbs") );
      ("interior", Json.Int a.interior);
      ("boundary", Json.Int a.boundary);
      ("hops", Json.Int a.hops);
      ("factors", Json.Int a.factors);
      ("pruned_mass", Json.Float a.pruned_mass);
      ("truncated", Json.Bool a.truncated);
      ( "seconds",
        Json.Obj
          [
            ("ground", Json.Float a.ground_seconds);
            ("infer", Json.Float a.infer_seconds);
          ] );
    ]

let stats_json (st : Snapshot.stats) =
  Json.Obj
    [
      ("epoch", Json.Int st.Snapshot.epoch);
      ("facts", Json.Int st.Snapshot.facts);
      ("factors", Json.Int st.Snapshot.factors);
      ("marginals_cached", Json.Int st.Snapshot.marginals_cached);
      ("frozen", Json.Bool st.Snapshot.frozen);
    ]

(* The [metrics] reply: the trace's merged summary (histograms
   included).  Counters and histograms are cumulative, so scraping is
   read-only; span aggregation reflects whatever the trace retained. *)
let metrics_json obs =
  Json.Obj [ ("metrics", Obs.Summary.to_json (Obs.Summary.of_trace obs)) ]

(* ------------------------------------------------------------------ *)
(* Interpreters *)

let answer ?(obs = Obs.null) snap = function
  | RIngest _ | RRetract _ | RRetract_rules _ | RAdd_rules _ | RReexpand
  | RRefresh ->
    error_json "snapshot is read-only"
  | RQuery None -> not_found
  | RQuery (Some (r, x, c1, y, c2)) -> (
    match Snapshot.find snap ~r ~x ~c1 ~y ~c2 with
    | None -> not_found
    | Some id -> (
      match Snapshot.view snap id with
      | Some v -> view_json v
      | None ->
        view_json
          {
            Snapshot.id;
            base = false;
            weight = Table.null_weight;
            marginal = Snapshot.marginal snap id;
          }))
  | RQuery_local { key = None; budget = _ } -> not_found
  | RQuery_local { key = Some (r, x, c1, y, c2); budget } -> (
    match Snapshot.query_local ?budget snap ~r ~x ~c1 ~y ~c2 with
    | None -> not_found
    | Some a -> answer_json a)
  | RStats -> stats_json (Snapshot.stats snap)
  | RMetrics -> metrics_json obs

let apply ?(obs = Obs.null) s = function
  | RIngest facts -> Probkb.Report.epoch_to_json (Session.ingest s facts)
  | RRetract { keys; ban } ->
    Probkb.Report.epoch_to_json (Session.retract_keys ~ban s keys)
  | RRetract_rules { head } ->
    Probkb.Report.epoch_to_json
      (Session.retract_rules s ~remove:(fun c ->
           match head with
           | Some rel -> c.Mln.Clause.head_rel = rel
           | None -> false))
  | RAdd_rules rules -> Probkb.Report.epoch_to_json (Session.add_rules s rules)
  | RReexpand -> Probkb.Report.epoch_to_json (Session.reexpand s)
  | RRefresh -> (
    match Session.refresh_marginals s with
    | Some st -> Probkb.Report.epoch_to_json st
    | None -> error_json "inference disabled")
  | (RQuery _ | RQuery_local _ | RStats) as rop ->
    answer (Session.snapshot s) rop
  | RMetrics -> metrics_json obs

let step ?obs kb s line =
  match op_of_line line with
  | Error m -> error_json m
  | Ok op -> (
    match resolve kb op with
    | Error m -> error_json m
    | Ok rop -> apply ?obs s rop)
