(* The serving workloads: one fresh process runs the program's NDJSON
   server ([Serve.Server], reader pool 2) over loopback, driven by two
   client connections.

   Set-up (timed as setup_s): load, open a session (epoch 0 runs the
   closure and the factor queries), refresh marginals, freeze and publish
   the epoch ([Engine.Writer.of_session]), start the server.

   point_reads: two closed-loop clients, in a client process of their
   own so the server process's CPU time is the server's alone, send
   budgeted [query_local] (max_facts 32) and [query] lookups, alternating,
   over Zipf-skewed keys drawn from TΠ (base and inferred facts).
   Nothing is written, so every reply must equal — bit for bit, timings
   aside — the in-process answer [Protocol.answer] gives on the published
   snapshot.

   live_epochs: one connection streams the generated write epochs
   (ingest 4 facts, retract them, a refresh every [Inputs.refresh_every]
   writes) as fast as replies come back; the other sends [query_local] on
   uniform keys at a fixed open-loop rate, each timed from when it was
   due.  Afterwards the same op stream is replayed serially on a fresh
   session: every write reply, every read (at the epoch it reports) and
   the final TΠ must match.

   The traffic's shape — Zipf exponent, key count, deck size, the 1:1
   mix, the read rate, the refresh interval — is an assumption of the
   benchmark, not taken from a measured query log. *)

module Json = Obs.Json
module Gamma = Kb.Gamma
module Engine = Probkb.Engine
module Session = Probkb.Engine.Session
module Writer = Probkb.Engine.Writer
module Protocol = Serve.Protocol
module Server = Serve.Server
module Rng = Workload.Rng

let pool = 2
let max_facts = 32
let budget = Grounding.Local.budget ~max_facts ()
let clients = 2
let candidate_keys = 500
let zipf_alpha = 1.0
let deck_size = 256
let live_read_keys = 128
let read_rate = 10.

(* --- set-up ---------------------------------------------------------- *)

type setup = { kb : Gamma.t; session : Session.t; writer : Writer.t }

let setup o dir =
  let stage name f = Outcome.stage o name f in
  let kb = stage "kb.load" (fun () -> Inputs.load dir) in
  let engine = Engine.create ~config:(Batch.config ()) kb in
  let session = stage "expand" (fun () -> Engine.session engine) in
  ignore (stage "inference.setup_refresh" (fun () -> Session.refresh_marginals session));
  let writer = stage "core.freeze" (fun () -> Writer.of_session session) in
  { kb; session; writer }

let start_server o st =
  Outcome.stage o "serve.start" (fun () ->
      Server.start ~pool ~kb:st.kb ~writer:st.writer
        ~addr:(Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
        ())

(* The served process's resident high-water mark once it is ready to
   serve.  Taken at the end of set-up: during serving it moves with GC
   pacing by up to 20% between identical runs. *)
let ready o = Outcome.set o "setup_rss_bytes" (Outcome.peak_rss ())

(* Set-up through a listening server, wall and CPU seconds. *)
let serve_ready o dir =
  let c0 = Clock.cpu () in
  let (st, srv), s =
    Clock.time (fun () ->
        let st = setup o dir in
        (st, start_server o st))
  in
  Outcome.set o "setup_cpu_s" (Clock.cpu () -. c0);
  Outcome.set o "setup_s" s;
  ready o;
  (st, srv)

let setup_only o dir = Server.stop (snd (serve_ready o dir))

(* --- wire ------------------------------------------------------------ *)

let connect addr =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let request (_, ic, oc) line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  input_line ic

let close (fd, _, _) = try Unix.close fd with Unix.Unix_error _ -> ()
let line op = Json.to_string (Protocol.op_to_json op)
let local_line key = line (Protocol.Query_local { key; budget = Some budget })

(* Replies compared with timings removed. *)
let rec strip = function
  | Json.Obj kvs ->
    Json.Obj
      (List.filter_map
         (fun (k, v) ->
           if k = "seconds" || k = "wall_seconds" then None else Some (k, strip v))
         kvs)
  | Json.List l -> Json.List (List.map strip l)
  | j -> j

let canonical s =
  match Json.of_string_opt s with
  | Some j -> Some (Json.to_string (strip j))
  | None -> None

let mismatches = ref 0

let same_reply served expected =
  let ok =
    match canonical served with
    | Some a -> a = Json.to_string (strip expected)
    | None -> false
  in
  if not ok then begin
    incr mismatches;
    if !mismatches <= 3 then
      prerr_endline
        ("perfbench: reply mismatch\n  served:   " ^ served ^ "\n  expected: "
        ^ Json.to_string expected)
  end;
  ok

let int_field k j = Option.bind (Json.member k j) Json.to_int
let float_field k j = Option.bind (Json.member k j) Json.to_float

(* The request keys: [n] facts of TΠ drawn without replacement, in name
   order, by the generator's seed — the same keys and the same hot set
   whatever the run seed, which only drives the request sequence.  Which
   facts are hot decides how many requests need a sampled (slow) local
   solve, so a seed-dependent hot set would swamp the measurement. *)
let fact_keys kb n =
  let all = ref [] in
  Kb.Storage.iter
    (fun ~id:_ ~r ~x ~c1 ~y ~c2 ~w:_ -> all := Inputs.key_names kb (r, x, c1, y, c2) :: !all)
    (Gamma.pi kb);
  let all = Array.of_list !all in
  Array.sort compare all;
  let k = min n (Array.length all) in
  Array.map
    (fun i -> all.(i))
    (Rng.sample_without_replacement (Rng.create Inputs.generator_seed) ~n:(Array.length all) ~k)

(* A request deck: key index [k] repeated in proportion to [weights.(k)]
   (largest-remainder rounding to [size] cards), shuffled by [rng].  A
   client cycles through its deck, so every pass requests exactly the
   same mix and the seed only decides the order: a slow key's share of
   the requests cannot drift from run to run. *)
let deck rng ~weights ~size =
  let total = Array.fold_left ( +. ) 0. weights in
  let exact = Array.map (fun w -> w /. total *. float_of_int size) weights in
  let counts = Array.map truncate exact in
  let frac k = exact.(k) -. float_of_int counts.(k) in
  let by_remainder = Array.init (Array.length weights) Fun.id in
  Array.stable_sort (fun a b -> Float.compare (frac b) (frac a)) by_remainder;
  for i = 0 to size - Array.fold_left ( + ) 0 counts - 1 do
    let k = by_remainder.(i) in
    counts.(k) <- counts.(k) + 1
  done;
  let cards = Array.concat (Array.to_list (Array.mapi (fun k c -> Array.make c k) counts)) in
  Rng.shuffle rng cards;
  cards

let zipf_weights n = Array.init n (fun k -> 1. /. Float.pow (float_of_int (k + 1)) zipf_alpha)

(* One request as a client saw it. *)
type sent = {
  kind : string;
  key : int;  (** index into the key array; -1 for writes *)
  due : float;
  t0 : float;
  t1 : float;
  reply : string;
}

let latency s = s.t1 -. s.due

(* Run [f] on its own domain per element; each gets a private span
   recorder (enabled from [traced_from] on) and returns its sends. *)
let run_clients ~traced fs =
  List.map
    (fun f ->
      Domain.spawn (fun () ->
          let rec_ = Spans.create ~enabled:traced in
          let sends = f rec_ in
          (sends, rec_)))
    fs
  |> List.map Domain.join

let timed rec_ ~traced_from kind f =
  if Clock.now () >= traced_from then Spans.with_span rec_ ("serve." ^ kind) f else f ()

let adopt_clients o results =
  let sp = o.Outcome.spans in
  let window = Spans.current sp in
  List.iter (fun (_, r) -> Spans.adopt sp ~under:window (Spans.spans r)) results

(* --- point_reads ----------------------------------------------------- *)

(* The server process hands each client its requests, and the client
   process hands back what it sent, through files in the inputs
   directory: one tab-separated line per request.  Request and reply
   lines are JSON, which holds no raw tab. *)
let plan_file dir c = Filename.concat dir (Printf.sprintf "client%d.plan" c)
let sent_file dir c = Filename.concat dir (Printf.sprintf "client%d.sent" c)

let fields l =
  match String.split_on_char '\t' l with
  | kind :: key :: rest -> (kind, int_of_string key, rest)
  | _ -> failwith ("perfbench: bad client line " ^ l)

let read_plan dir c =
  Kb.Loader.read_lines (plan_file dir c)
  |> List.map (fun l ->
         let kind, key, rest = fields l in
         (kind, key, String.concat "\t" rest))
  |> Array.of_list

let read_sent dir c =
  Kb.Loader.read_lines (sent_file dir c)
  |> List.map (fun l ->
         match fields l with
         | kind, key, t0 :: t1 :: reply ->
           let t0 = float_of_string t0 in
           { kind; key; due = t0; t0; t1 = float_of_string t1; reply = String.concat "\t" reply }
         | _ -> failwith ("perfbench: bad client line " ^ l))

(* Closed loop: the next request goes out when the previous reply is
   in.  The plan alternates between the client's [query_local] deck and
   its lookup deck.  The client stops at the first pass boundary past
   the deadline, so it sends whole passes and the mix is exactly the
   decks'. *)
let closed_client addr ~deadline ~traced_from plan rec_ =
  let conn = connect addr in
  let out = ref [] and i = ref 0 in
  while Clock.now () < deadline || !i mod Array.length plan <> 0 do
    let kind, k, l = plan.(!i mod Array.length plan) in
    incr i;
    let t0 = Clock.now () in
    let reply = timed rec_ ~traced_from kind (fun () -> request conn l) in
    out := { kind; key = k; due = t0; t0; t1 = Clock.now (); reply } :: !out
  done;
  close conn;
  !out

(* The client process: run the plans against the server on [port] for
   [seconds], write what was sent, and report the window and the
   requests' spans. *)
let point_reads_client o dir ~port ~seconds =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let plans = List.init clients (read_plan dir) in
  let t_start = Clock.now () in
  let deadline = t_start +. seconds in
  let traced = o.Outcome.spans.Spans.enabled in
  let traced_from = if traced then t_start +. (seconds /. 2.) else infinity in
  let results = run_clients ~traced (List.map (closed_client addr ~deadline ~traced_from) plans) in
  Outcome.set o "window_s" (Clock.now () -. t_start);
  if traced then Outcome.set o "traced_from" traced_from;
  List.iteri
    (fun c (sends, rec_) ->
      Inputs.write_lines (sent_file dir c)
        (List.rev_map
           (fun s -> Printf.sprintf "%s\t%d\t%.17g\t%.17g\t%s" s.kind s.key s.t0 s.t1 s.reply)
           sends);
      Spans.adopt o.Outcome.spans ~under:0 (Spans.spans rec_))
    results

let point_reads o dir ~seed ~seconds ~traced =
  let st, srv = serve_ready o dir in
  let rng = Rng.create seed in
  let keys = fact_keys st.kb candidate_keys in
  let locals = Array.map local_line keys in
  let lookups = Array.map (fun k -> line (Protocol.Query k)) keys in
  let weights = zipf_weights (Array.length keys) in
  let deck_of name = deck (Rng.split rng name) ~weights ~size:deck_size in
  for c = 0 to clients - 1 do
    let locals_deck = deck_of (Printf.sprintf "locals%d" c) in
    let lookups_deck = deck_of (Printf.sprintf "lookups%d" c) in
    Inputs.write_lines (plan_file dir c)
      (List.init (2 * deck_size) (fun i ->
           let j = i / 2 in
           if i land 1 = 0 then
             Printf.sprintf "query_local\t%d\t%s" locals_deck.(j) locals.(locals_deck.(j))
           else Printf.sprintf "query\t%d\t%s" lookups_deck.(j) lookups.(lookups_deck.(j))))
  done;
  let port =
    match Server.sockaddr srv with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  let argv =
    [|
      Sys.executable_name; "--child"; "client"; "--workload"; "point_reads";
      "--seconds"; Printf.sprintf "%.17g" seconds; "--trace"; (if traced then "1" else "0");
      "--inputs"; dir; "--port"; string_of_int port;
    |]
  in
  (* the server process's CPU time over the window: the clients run in
     the client process *)
  let cpu0 = Clock.cpu () in
  let client =
    Spans.with_span o.Outcome.spans "window" @@ fun () ->
    match Outcome.run argv with
    | Some c ->
      let sp = o.Outcome.spans in
      Spans.adopt sp ~under:(Spans.current sp) (Spans.spans c.Outcome.spans);
      c
    | None -> failwith "point_reads client failed"
  in
  let window_cpu = Clock.cpu () -. cpu0 in
  Server.stop srv;
  Outcome.set o "serve.peak_rss_bytes" (Outcome.peak_rss ());
  let window = Option.value (Outcome.metric client "window_s") ~default:seconds in
  let sends = List.concat (List.init clients (read_sent dir)) in
  let of_kind k = List.filter (fun s -> s.kind = k) sends in
  let locals_sent = of_kind "query_local" and lookups_sent = of_kind "query" in
  Outcome.set_samples o "op" (List.map latency sends);
  Outcome.set_samples o "local" (List.map latency locals_sent);
  Outcome.set_samples o "lookup" (List.map latency lookups_sent);
  Outcome.set o "ops_per_s" (float_of_int (List.length sends) /. window);
  Outcome.set o "op_cpu_s" (window_cpu /. float_of_int (max 1 (List.length sends)));
  if traced then begin
    let traced_from = Option.value (Outcome.metric client "traced_from") ~default:infinity in
    let half l f = List.filter (fun s -> f (s.t0 >= traced_from)) l in
    Outcome.set_samples o "op_untraced" (List.map latency (half sends not));
    Outcome.set_samples o "op_traced" (List.map latency (half sends Fun.id))
  end;
  (* Check every reply against the in-process answer on the published
     snapshot; each distinct request is answered (and timed) once. *)
  let snap = Writer.published st.writer in
  let expected = Hashtbl.create 4096 in
  let answer (s : sent) =
    match Hashtbl.find_opt expected (s.kind, s.key) with
    | Some a -> a
    | None ->
      let op = if s.kind = "query" then Protocol.Query keys.(s.key) else
          Protocol.Query_local { key = keys.(s.key); budget = Some budget } in
      let a =
        match Protocol.resolve st.kb op with
        | Ok rop -> Some (Clock.time (fun () -> Protocol.answer snap rop))
        | Error _ -> None
      in
      Hashtbl.replace expected (s.kind, s.key) a;
      a
  in
  let in_process = ref [] in
  List.iter
    (fun s ->
      match answer s with
      | Some (doc, secs) ->
        Outcome.check o (same_reply s.reply doc);
        if s.kind = "query_local" then in_process := (doc, secs) :: !in_process
      | None -> Outcome.check o false)
    sends;
  (* The local path's layers, per request, from the in-process answers. *)
  let answers = !in_process in
  let field f = List.filter_map (fun (d, _) -> f d) answers in
  let sec k d = Option.bind (Json.member "seconds" d) (float_field k) in
  Outcome.set_samples o "local_in_process" (List.map snd answers);
  Outcome.set_samples o "local_walk" (field (sec "ground"));
  Outcome.set_samples o "local_solve" (field (sec "infer"));
  Outcome.set o "grounding.local_interior_mean"
    (Stats.mean (List.map float_of_int (field (int_field "interior"))));
  Outcome.set o "grounding.local_boundary_mean"
    (Stats.mean (List.map float_of_int (field (int_field "boundary"))));
  let share p = Stats.mean (List.map (fun (d, _) -> if p d then 1. else 0.) answers) in
  Outcome.set o "grounding.local_truncated_share"
    (share (fun d -> Json.member "truncated" d = Some (Json.Bool true)));
  Outcome.set o "inference.local_exact_share"
    (share (fun d -> Json.member "method" d = Some (Json.String "local-exact")))

(* --- live_epochs ----------------------------------------------------- *)

let writer_client addr ~deadline ~traced_from ops rec_ =
  let conn = connect addr in
  let out = ref [] in
  let rec go = function
    | l :: rest when Clock.now () < deadline ->
      let kind =
        match Protocol.op_of_line l with
        | Ok (Protocol.Ingest _) -> "ingest"
        | Ok (Protocol.Retract _) -> "retract"
        | _ -> "refresh"
      in
      let t0 = Clock.now () in
      let reply = timed rec_ ~traced_from kind (fun () -> request conn l) in
      out := { kind; key = -1; due = t0; t0; t1 = Clock.now (); reply } :: !out;
      go rest
    | _ -> ()
  in
  go ops;
  close conn;
  List.rev !out

(* Open loop: request i is due at start + i / rate, whatever happened to
   the previous one; latency counts from the due time. *)
let reader_client addr ~start ~deadline ~traced_from ~deck ~locals rec_ =
  let conn = connect addr in
  let out = ref [] and i = ref 0 in
  let due () = start +. (float_of_int !i /. read_rate) in
  while due () < deadline && Clock.now () < deadline do
    let due = due () in
    let wait = due -. Clock.now () in
    if wait > 0. then Unix.sleepf wait;
    let k = deck.(!i mod Array.length deck) in
    let t0 = Clock.now () in
    let reply = timed rec_ ~traced_from "query_local" (fun () -> request conn locals.(k)) in
    out := { kind = "query_local"; key = k; due; t0; t1 = Clock.now (); reply } :: !out;
    incr i
  done;
  close conn;
  List.rev !out

(* The two stores hold the same live facts with bit-identical weights. *)
let same_facts a b =
  let facts kb =
    let acc = ref [] in
    Kb.Storage.iter
      (fun ~id ~r ~x ~c1 ~y ~c2 ~w ->
        acc := (id, r, x, c1, y, c2, Int64.bits_of_float w) :: !acc)
      (Gamma.pi kb);
    List.sort compare !acc
  in
  facts a = facts b

(* Serial replay of the ops the writer sent, on a fresh session: every
   write reply must match, every read must match the replay's answer at
   the epoch the read reported, and the final TΠ must match.  The replay
   is also where the incremental layer is timed, one op at a time, and
   where the gated op is measured: the CPU time of one epoch pair —
   ingest a batch, then retract it, each followed by a publish — as the
   mean over the batches of the pool of each batch's median pair, plus
   the median refresh's share (one refresh every [Inputs.refresh_every]
   writes, that is every half as many pairs).  Averaging per batch keeps
   the batches a run happens to repeat from tilting the figure. *)
let replay o dir ~ops ~writes ~reads ~keys ~served_kb =
  let st = setup (Outcome.create ~traced:false) dir in
  let s = st.session in
  let pending = Hashtbl.create 256 in
  List.iter
    (fun (r : sent) ->
      match Option.bind (Json.of_string_opt r.reply) (int_field "epoch") with
      | Some e -> Hashtbl.add pending e r
      | None -> Outcome.check o false)
    reads;
  let answer_reads () =
    let e = Session.epoch s in
    List.iter
      (fun (r : sent) ->
        Outcome.check o (same_reply r.reply (Protocol.step st.kb s (local_line keys.(r.key)))))
      (Hashtbl.find_all pending e);
    while Hashtbl.mem pending e do
      Hashtbl.remove pending e
    done
  in
  let sp = o.Outcome.spans in
  let times = Hashtbl.create 4 and publish = ref [] in
  let ingest_cpu = ref None and pairs_cpu = ref [] and refresh_cpu = ref [] in
  let derived = ref 0 and cone = ref 0 and retracted = ref 0 and rederived = ref 0 in
  Spans.with_span sp "replay" (fun () ->
      answer_reads ();
      List.iteri
        (fun i (w : sent) ->
          (* what the server's writer does per epoch: apply, then
             publish a frozen snapshot *)
          let (expected, secs), cpu_s =
            Clock.cpu_time (fun () ->
                let r =
                  Clock.time (fun () ->
                      Spans.with_span sp ("incremental." ^ w.kind) (fun () ->
                          Protocol.step st.kb s ops.(i)))
                in
                publish :=
                  snd
                    (Clock.time (fun () ->
                         Spans.with_span sp "core.publish" (fun () -> Session.snapshot s)))
                  :: !publish;
                r)
          in
          Hashtbl.add times w.kind secs;
          (match (w.kind, !ingest_cpu) with
          | "ingest", _ -> ingest_cpu := Some (ops.(i), cpu_s)
          | "retract", Some (batch, c) ->
            pairs_cpu := (batch, c +. cpu_s) :: !pairs_cpu;
            ingest_cpu := None
          | "retract", None -> ()
          | _ -> refresh_cpu := cpu_s :: !refresh_cpu);
          Outcome.check o (same_reply w.reply expected);
          let n k = Option.value (int_field k expected) ~default:0 in
          (match w.kind with
          | "ingest" -> derived := !derived + n "derived"
          | "retract" ->
            cone := !cone + n "cone";
            retracted := !retracted + n "retracted";
            rederived := !rederived + n "rederived"
          | _ -> (
            match Session.last_run s with
            | Some (Inference.Marginal.Hybrid_run r) ->
              Outcome.set o "inference.refresh_exact_fraction" (Inference.Hybrid.exact_fraction r)
            | _ -> ()));
          answer_reads ())
        writes);
  (* reads that reported an epoch the stream never reached *)
  Hashtbl.iter (fun _ _ -> Outcome.check o false) pending;
  Outcome.check o (same_facts served_kb st.kb);
  let all k = Hashtbl.find_all times k in
  Outcome.set_samples o "replay_ingest" (all "ingest");
  Outcome.set_samples o "replay_retract" (all "retract");
  Outcome.set_samples o "replay_refresh" (all "refresh");
  Outcome.set_samples o "pair_cpu" (List.map snd !pairs_cpu);
  Outcome.set_samples o "refresh_cpu" !refresh_cpu;
  let refresh_share =
    match !refresh_cpu with
    | [] -> 0.
    | r -> Stats.median r *. 2. /. float_of_int Inputs.refresh_every
  in
  let batch_medians =
    List.sort_uniq compare (List.map fst !pairs_cpu)
    |> List.map (fun b ->
           Stats.median (List.filter_map (fun (b', c) -> if b = b' then Some c else None) !pairs_cpu))
  in
  Outcome.set o "op_cpu_s" (Stats.mean batch_medians +. refresh_share);
  Outcome.set_samples o "publish" !publish;
  let per k total = float_of_int total /. float_of_int (max 1 (List.length (all k))) in
  Outcome.set o "incremental.derived" (per "ingest" !derived);
  Outcome.set o "incremental.cone_mean" (per "retract" !cone);
  Outcome.set o "incremental.rederived" (per "retract" !rederived);
  Outcome.set o "incremental.cone_yield"
    (if !cone = 0 then 0. else float_of_int !retracted /. float_of_int !cone)

let live_epochs o dir ~seed ~seconds ~traced =
  let st, srv = serve_ready o dir in
  let rng = Rng.create seed in
  let keys = fact_keys st.kb candidate_keys in
  let locals = Array.map local_line keys in
  let ops = Kb.Loader.read_lines (Inputs.writes_file dir) in
  let addr = Server.sockaddr srv in
  let t_start = Clock.now () in
  let deadline = t_start +. seconds in
  let traced_from = if traced then t_start +. (seconds /. 2.) else infinity in
  let results =
    Spans.with_span o.Outcome.spans "window" @@ fun () ->
    let results =
      run_clients ~traced
        [
          writer_client addr ~deadline ~traced_from ops;
          reader_client addr ~start:t_start ~deadline ~traced_from
            ~deck:(deck (Rng.split rng "reads") ~size:live_read_keys
                     ~weights:(Array.init (Array.length keys) (fun k ->
                          if k < live_read_keys then 1. else 0.)))
            ~locals;
        ]
    in
    adopt_clients o results;
    results
  in
  Server.stop srv;
  Outcome.set o "serve.peak_rss_bytes" (Outcome.peak_rss ());
  let writes, reads =
    match List.map fst results with [ w; r ] -> (w, r) | _ -> assert false
  in
  let of_kind k = List.filter (fun s -> s.kind = k) writes in
  let data_writes = List.filter (fun s -> s.kind <> "refresh") writes in
  let ingests = of_kind "ingest" in
  Outcome.set_samples o "op" (List.map latency ingests);
  Outcome.set_samples o "retract" (List.map latency (of_kind "retract"));
  Outcome.set_samples o "refresh" (List.map latency (of_kind "refresh"));
  Outcome.set_samples o "local" (List.map latency reads);
  Outcome.set_samples o "late" (List.map (fun s -> s.t0 -. s.due) reads);
  (* Write throughput of the closed-loop write connection, refresh time
     left out: whether a refresh falls inside the window would otherwise
     swing it by seconds. *)
  Outcome.set o "ops_per_s"
    (float_of_int (List.length data_writes)
    /. List.fold_left (fun acc s -> acc +. latency s) 0. data_writes);
  if traced then begin
    let half f = List.filter (fun s -> f (s.t0 >= traced_from)) ingests in
    Outcome.set_samples o "op_untraced" (List.map latency (half not));
    Outcome.set_samples o "op_traced" (List.map latency (half Fun.id))
  end;
  (* How far a read's epoch trails the newest epoch whose write reply had
     already arrived when the read was sent. *)
  let committed =
    List.filter_map
      (fun s -> Option.map (fun j -> (s.t1, j)) (Json.of_string_opt s.reply))
      writes
    |> List.filter_map (fun (t, j) -> Option.map (fun e -> (t, e)) (int_field "epoch" j))
  in
  let lag (s : sent) =
    match Option.bind (Json.of_string_opt s.reply) (int_field "epoch") with
    | None -> 0
    | Some e ->
      List.fold_left (fun m (t, ce) -> if t <= s.t0 then max m (ce - e) else m) 0 committed
  in
  Outcome.seti o "core.epoch_lag_max" (List.fold_left (fun m s -> max m (lag s)) 0 reads);
  replay o dir ~ops:(Array.of_list ops) ~writes ~reads ~keys ~served_kb:st.kb

