module Json = Obs.Json
module Writer = Probkb.Engine.Writer

(* A write op in flight: the requesting reader blocks on [m]/[c] until
   the writer domain fills [reply]. *)
type job = {
  rop : Protocol.resolved;
  m : Mutex.t;
  c : Condition.t;
  mutable reply : Json.t option;
}

type t = {
  fd : Unix.file_descr;
  bound : Unix.sockaddr;
  writer : Writer.t;
  kb : Kb.Gamma.t;
  trace : Obs.t;
  started : float;  (* [Obs.now] at start, for /statusz uptime *)
  req_ids : int Atomic.t;  (* request ids, unique across connections *)
  access : (Json.t -> unit) option;  (* structured access-log sink *)
  slow_s : float option;  (* slow-query threshold, seconds *)
  symbols : Mutex.t;  (* guards dictionary access during resolution *)
  accept_m : Mutex.t;  (* serializes accept() across the reader pool *)
  stop : bool Atomic.t;
  queue_m : Mutex.t;
  queue_c : Condition.t;
  mutable queue : job list;  (* newest first; drained in reverse *)
  mutable queue_depth : int;
  conns_m : Mutex.t;
  mutable conns : Unix.file_descr list;  (* open connections, for stop *)
  mutable readers : unit Domain.t list;
  mutable writer_dom : unit Domain.t option;
  mutable stopped : bool;
}

let sockaddr t = t.bound

let port t =
  match t.bound with Unix.ADDR_INET (_, p) -> Some p | Unix.ADDR_UNIX _ -> None

let writer t = t.writer
let trace t = t.trace

(* [ndjson_sink oc] serializes concurrent access-log records (reader
   domains log independently) onto one NDJSON channel. *)
let ndjson_sink oc =
  let m = Mutex.create () in
  fun (j : Json.t) ->
    Mutex.lock m;
    output_string oc (Json.to_string j);
    output_char oc '\n';
    flush oc;
    Mutex.unlock m

(* --- write queue ------------------------------------------------- *)

let enqueue t job =
  Mutex.lock t.queue_m;
  t.queue <- job :: t.queue;
  t.queue_depth <- t.queue_depth + 1;
  let depth = t.queue_depth in
  Condition.signal t.queue_c;
  Mutex.unlock t.queue_m;
  Obs.gauge t.trace "serve.queue_depth" (float_of_int depth);
  Obs.gauge_max t.trace "serve.queue_depth_max" (float_of_int depth)

let dequeue t =
  Mutex.lock t.queue_m;
  let rec wait () =
    if t.queue = [] && not (Atomic.get t.stop) then begin
      Condition.wait t.queue_c t.queue_m;
      wait ()
    end
  in
  wait ();
  match List.rev t.queue with
  | [] ->
    Mutex.unlock t.queue_m;
    None (* stopping and drained *)
  | oldest :: rest ->
    t.queue <- List.rev rest;
    t.queue_depth <- t.queue_depth - 1;
    Mutex.unlock t.queue_m;
    Some oldest

let fulfil job reply =
  Mutex.lock job.m;
  job.reply <- Some reply;
  Condition.signal job.c;
  Mutex.unlock job.m

let await job =
  Mutex.lock job.m;
  while job.reply = None do
    Condition.wait job.c job.m
  done;
  let r = Option.get job.reply in
  Mutex.unlock job.m;
  r

(* --- writer domain ----------------------------------------------- *)

let writer_loop t =
  let session = Writer.session t.writer in
  let rec loop () =
    match dequeue t with
    | None -> ()
    | Some job ->
      let lag_in = Writer.epoch_lag t.writer + 1 in
      Obs.gauge_max t.trace "serve.epoch_lag_max" (float_of_int lag_in);
      (* The gauge alone goes stale between writes; the distribution
         keeps every observed lag scrapeable (satellite: epoch lag as
         both current value and histogram). *)
      Obs.observe t.trace "serve.epoch_lag_dist" (float_of_int lag_in);
      let t0 = Obs.now () in
      let reply =
        try Protocol.apply ~obs:t.trace session job.rop
        with e ->
          Obs.incr t.trace "serve.errors";
          Protocol.error_json (Printexc.to_string e)
      in
      (* Publish before replying: a client that writes then reads on one
         connection observes its own write. *)
      let t1 = Obs.now () in
      ignore (Writer.publish t.writer);
      let t2 = Obs.now () in
      Obs.observe t.trace "serve.publish_seconds" (t2 -. t1);
      Obs.observe t.trace "serve.apply_seconds" (t2 -. t0);
      Obs.gauge t.trace "serve.epoch_lag"
        (float_of_int (Writer.epoch_lag t.writer));
      Obs.gauge t.trace "serve.epoch"
        (float_of_int (Probkb.Snapshot.epoch (Writer.published t.writer)));
      Obs.incr t.trace "serve.writes";
      fulfil job reply;
      loop ()
  in
  loop ()

(* --- request handling -------------------------------------------- *)

let op_name = function
  | Protocol.Ingest _ -> "ingest"
  | Protocol.Retract _ -> "retract"
  | Protocol.Retract_rules _ -> "retract_rules"
  | Protocol.Add_rules _ -> "add_rules"
  | Protocol.Reexpand -> "reexpand"
  | Protocol.Refresh -> "refresh"
  | Protocol.Query _ -> "query"
  | Protocol.Query_local _ -> "query_local"
  | Protocol.Stats -> "stats"
  | Protocol.Metrics -> "metrics"

let handle t line =
  Obs.incr t.trace "serve.requests";
  let req_id = Atomic.fetch_and_add t.req_ids 1 in
  (* [ts] stamps the access-log record (wall clock); [t0] times it. *)
  let ts = Unix.gettimeofday () and t0 = Obs.now () in
  let sp = Obs.begin_span ~cat:"serve" t.trace "serve.request" in
  Obs.set_attr sp "req_id" (Obs.I req_id);
  let finish ~op ~kind reply =
    let dt = Obs.now () -. t0 in
    Obs.end_span t.trace sp
      ~attrs:[ ("op", Obs.S op); ("kind", Obs.S kind) ];
    (* Overall and per-op latency distributions; the [|op=...] label
       convention renders as one Prometheus family with [op] labels. *)
    Obs.observe t.trace "serve.request_seconds" dt;
    Obs.observe t.trace ("serve.request_seconds|op=" ^ op) dt;
    let slow = match t.slow_s with Some th -> dt >= th | None -> false in
    if slow then Obs.incr t.trace "serve.slow_requests";
    (match t.access with
    | None -> ()
    | Some log ->
      (* One structured record per request.  Slow requests also carry
         the full span subtree — for query_local that is the grounding
         walk with hops/boundary/pruned_mass attributes. *)
      let spans =
        if slow then
          match Obs.subtree t.trace sp with
          | Some r -> [ ("spans", Obs.Rec_span.to_json r) ]
          | None -> []
        else []
      in
      log
        (Json.Obj
           ([
              ("ts", Json.Float ts);
              ("id", Json.Int req_id);
              ("op", Json.String op);
              ("kind", Json.String kind);
              ("seconds", Json.Float dt);
              ( "epoch",
                Json.Int (Probkb.Snapshot.epoch (Writer.published t.writer))
              );
              ("slow", Json.Bool slow);
            ]
           @ spans)));
    reply
  in
  (* An exception while resolving or answering becomes an error reply:
     it must not end the reader domain and strand its client (a frozen
     [query_local] documents [Invalid_argument] on a torn read). *)
  let failed ~op e =
    Obs.incr t.trace "serve.errors";
    finish ~op ~kind:"error" (Protocol.error_json (Printexc.to_string e))
  in
  match Protocol.op_of_line line with
  | Error m -> finish ~op:"?" ~kind:"error" (Protocol.error_json m)
  | Ok op -> (
    let name = op_name op in
    (* Resolution touches the shared dictionaries: serialize it.  Write
       ops intern; read ops only look up — either way the lock is held
       for symbol resolution only, never across grounding/inference. *)
    Mutex.lock t.symbols;
    let resolved = try Ok (Protocol.resolve t.kb op) with e -> Error e in
    Mutex.unlock t.symbols;
    match resolved with
    | Error e -> failed ~op:name e
    | Ok (Error m) -> finish ~op:name ~kind:"error" (Protocol.error_json m)
    | Ok (Ok rop) ->
      if Protocol.is_write op then begin
        let job = { rop; m = Mutex.create (); c = Condition.create (); reply = None } in
        enqueue t job;
        finish ~op:name ~kind:"write" (await job)
      end
      else begin
        Obs.incr t.trace "serve.reads";
        match Protocol.answer ~obs:t.trace (Writer.published t.writer) rop with
        | reply -> finish ~op:name ~kind:"read" reply
        | exception e -> failed ~op:name e
      end)

(* --- telemetry views ---------------------------------------------- *)

let json_of_value = function
  | Obs.I i -> Json.Int i
  | Obs.F f -> Json.Float f
  | Obs.S s -> Json.String s

(* The /statusz document: liveness figures plus per-op request-latency
   digests.  Scraping merges the per-domain buffers read-only; counters
   and histograms are cumulative, so concurrent recording at worst lags
   a scrape by the requests still in flight. *)
let status_json t =
  let s = Obs.Summary.of_trace t.trace in
  let snap = Writer.published t.writer in
  let per_op =
    List.filter_map
      (fun (name, h) ->
        match Metrics.split_labels name with
        | "serve.request_seconds", [ ("op", op) ] ->
          Some (op, Metrics.hist_json h)
        | _ -> None)
      s.Obs.Summary.hists
  in
  let all =
    match Obs.Summary.hist s "serve.request_seconds" with
    | Some h when Obs.Hist.count h > 0 -> [ ("all", Metrics.hist_json h) ]
    | _ -> []
  in
  Json.Obj
    [
      ("uptime_seconds", Json.Float (Obs.now () -. t.started));
      ("epoch", Json.Int (Probkb.Snapshot.epoch snap));
      ("epoch_lag", Json.Int (Writer.epoch_lag t.writer));
      ("queue_depth", Json.Int t.queue_depth);
      ("requests", Json.Int (Obs.Summary.counter s "serve.requests"));
      ("reads", Json.Int (Obs.Summary.counter s "serve.reads"));
      ("writes", Json.Int (Obs.Summary.counter s "serve.writes"));
      ( "slow_requests",
        Json.Int (Obs.Summary.counter s "serve.slow_requests") );
      ( "mem",
        Json.Obj
          (List.map (fun (k, v) -> (k, json_of_value v)) (Obs.mem_stats ()))
      );
      ("request_seconds", Json.Obj (all @ per_op));
    ]

let metrics_text t = Metrics.render (Obs.Summary.of_trace t.trace)

(* --- connections -------------------------------------------------- *)

let track_conn t fd =
  Mutex.lock t.conns_m;
  t.conns <- fd :: t.conns;
  Mutex.unlock t.conns_m

let untrack_conn t fd =
  Mutex.lock t.conns_m;
  t.conns <- List.filter (fun c -> c <> fd) t.conns;
  Mutex.unlock t.conns_m

(* The socket is closed on every exit path, so a client is never left
   waiting on a connection nobody serves, and the reader domain lives on
   to accept the next one: an exception other than the connection's end
   (a raising access-log sink, say) is counted in [serve.errors]. *)
let serve_conn t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (try
     let rec loop () =
       let line = input_line ic in
       if String.trim line <> "" then begin
         let reply = handle t line in
         output_string oc (Json.to_string reply);
         output_char oc '\n';
         flush oc
       end;
       loop ()
     in
     loop ()
   with
  | End_of_file | Sys_error _ -> ()
  | Unix.Unix_error (_, _, _) -> ()
  | _ -> Obs.incr t.trace "serve.errors");
  untrack_conn t fd;
  (try Unix.close fd with Unix.Unix_error (_, _, _) -> ())

let reader_loop t =
  let rec loop () =
    if Atomic.get t.stop then ()
    else begin
      let accepted =
        Mutex.lock t.accept_m;
        let r =
          if Atomic.get t.stop then None
          else
            match Unix.accept t.fd with
            | fd, _ -> Some fd
            | exception Unix.Unix_error (_, _, _) -> None
        in
        Mutex.unlock t.accept_m;
        r
      in
      match accepted with
      | None -> if Atomic.get t.stop then () else loop ()
      | Some fd ->
        track_conn t fd;
        serve_conn t fd;
        loop ()
    end
  in
  loop ()

(* --- lifecycle ---------------------------------------------------- *)

let start ?(pool = 1) ?(backlog = 16) ?(obs = Obs.null) ?access_log ?slow_ms
    ~kb ~writer ~addr () =
  if pool < 1 then invalid_arg "Server.start: pool must be >= 1";
  (* A client closing mid-reply must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let domain =
    match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Unix.ADDR_UNIX path -> if Sys.file_exists path then Sys.remove path);
  Unix.bind fd addr;
  Unix.listen fd backlog;
  let t =
    {
      fd;
      bound = Unix.getsockname fd;
      writer;
      kb;
      trace = obs;
      started = Obs.now ();
      req_ids = Atomic.make 0;
      access = access_log;
      slow_s = Option.map (fun ms -> ms /. 1000.) slow_ms;
      symbols = Mutex.create ();
      accept_m = Mutex.create ();
      stop = Atomic.make false;
      queue_m = Mutex.create ();
      queue_c = Condition.create ();
      queue = [];
      queue_depth = 0;
      conns_m = Mutex.create ();
      conns = [];
      readers = [];
      writer_dom = None;
      stopped = false;
    }
  in
  (* Seed the liveness gauges so a scrape before the first write sees
     them (the writer only updates them per applied epoch). *)
  Obs.gauge obs "serve.epoch_lag"
    (float_of_int (Writer.epoch_lag writer));
  Obs.gauge obs "serve.epoch"
    (float_of_int (Probkb.Snapshot.epoch (Writer.published writer)));
  t.writer_dom <- Some (Domain.spawn (fun () -> writer_loop t));
  t.readers <-
    List.init pool (fun _ -> Domain.spawn (fun () -> reader_loop t));
  t

(* Closing a listening socket does not wake a thread already blocked in
   accept() on Linux; connecting (and immediately abandoning) a throwaway
   client does.  accept() is serialized by [accept_m], so at most one
   reader is parked inside it — one successful poke is enough, but poking
   is cheap and idempotent. *)
let poke_accept t =
  let domain =
    match t.bound with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET
  in
  match Unix.socket domain Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (_, _, _) -> ()
  | fd ->
    (try Unix.connect fd t.bound with Unix.Unix_error (_, _, _) -> ());
    (try Unix.close fd with Unix.Unix_error (_, _, _) -> ())

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.stop true;
    (* Wake the reader parked in accept(), then unblock future accepts
       and any connection read. *)
    poke_accept t;
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error (_, _, _) -> ());
    (try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ());
    Mutex.lock t.conns_m;
    let conns = t.conns in
    t.conns <- [];
    Mutex.unlock t.conns_m;
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL
        with Unix.Unix_error (_, _, _) -> ())
      conns;
    Mutex.lock t.queue_m;
    Condition.broadcast t.queue_c;
    Mutex.unlock t.queue_m;
    List.iter Domain.join t.readers;
    t.readers <- [];
    (match t.writer_dom with
    | Some d ->
      (* Readers are gone; wake the writer so it drains and exits. *)
      Mutex.lock t.queue_m;
      Condition.broadcast t.queue_c;
      Mutex.unlock t.queue_m;
      Domain.join d;
      t.writer_dom <- None
    | None -> ());
    match t.bound with
    | Unix.ADDR_UNIX path when Sys.file_exists path -> (
      try Sys.remove path with Sys_error _ -> ())
    | _ -> ()
  end
