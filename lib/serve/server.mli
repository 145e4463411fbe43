(** The network front-end: epoch-snapshot reads under live writes.

    A pool of reader domains drives a shared accept loop on one listening
    socket (TCP or Unix-domain).  Each connection speaks the NDJSON
    protocol of {!Protocol}: one op per line, one reply document per
    line.  Read ops ([query], [query_local], [stats]) are answered on the
    reader's own domain against the {e currently published} frozen
    snapshot — one atomic load, no lock shared with the writer.  Write
    ops are enqueued to the single writer domain, which applies them to
    the underlying session in arrival order, publishes the new epoch's
    snapshot, and wakes the requesting reader with the ledger reply.

    Consistency model: a read observes exactly one published epoch
    (snapshot isolation; answers carry the epoch they were computed
    against).  A write's reply is sent only after its epoch is
    published, so a client that writes then reads on one connection sees
    its own write.  Readers never block on writers and vice versa — the
    only shared points are the snapshot pointer (atomic), the symbol
    dictionaries (a mutex held during request resolution only; read ops
    only look symbols up) and the write queue.

    Telemetry on the server's trace: a ["serve.request"] span per
    request (op + outcome + [req_id] attributes), ["serve.requests"] /
    ["serve.reads"] / ["serve.writes"] / ["serve.slow_requests"]
    counters, ["serve.errors"] (exceptions raised while resolving,
    answering or applying an op, each answered with an error reply, and
    exceptions that closed a connection),
    ["serve.queue_depth"] / ["serve.epoch_lag"] gauges (current and
    [_max] high-water marks), and histograms:
    ["serve.request_seconds"] (plus one ["|op=..."]-labelled series per
    op), ["serve.apply_seconds"] (apply and publish together),
    ["serve.publish_seconds"] (the publish alone),
    ["serve.epoch_lag_dist"].  {!metrics_text}
    renders it all as Prometheus text, {!status_json} as the /statusz
    document; wire both to {!Admin} for HTTP scraping, or scrape in-band
    with the [metrics] protocol op. *)

type t

(** [start ?pool ?backlog ?obs ?access_log ?slow_ms ~kb ~writer ~addr ()]
    binds [addr] (use port 0 to let the kernel pick — see {!port}),
    spawns the writer domain and [pool] reader domains, and returns
    immediately.  [kb] must be the knowledge base underlying [writer]'s
    session.  [obs] (default: no-op) receives the per-request telemetry.
    [access_log] (see {!ndjson_sink}) receives one structured record per
    request: [{ts, id, op, kind, seconds, epoch, slow}].  A request
    slower than [slow_ms] milliseconds is marked [slow] and its record
    carries the full [serve.request] span subtree under ["spans"] (for
    [query_local]: the grounding walk with hops / boundary / pruned-mass
    attributes).  SIGPIPE is ignored process-wide (client disconnects
    surface as [EPIPE] errors). *)
val start :
  ?pool:int ->
  ?backlog:int ->
  ?obs:Obs.t ->
  ?access_log:(Obs.Json.t -> unit) ->
  ?slow_ms:float ->
  kb:Kb.Gamma.t ->
  writer:Probkb.Engine.Writer.t ->
  addr:Unix.sockaddr ->
  unit ->
  t

(** [ndjson_sink oc] is an access-log sink writing one JSON document per
    line, mutex-serialized across reader domains, flushed per record. *)
val ndjson_sink : out_channel -> Obs.Json.t -> unit

(** [trace t] is the trace passed to {!start} ({!Obs.null} if none). *)
val trace : t -> Obs.t

(** [status_json t] is the /statusz document: uptime, epoch, epoch lag,
    queue depth, request/read/write/slow counters, memory figures
    ({!Obs.mem_stats}), and per-op request-latency digests
    (count/sum/p50/p90/p99/max). *)
val status_json : t -> Obs.Json.t

(** [metrics_text t] is the Prometheus text exposition of the server's
    merged telemetry (see {!Metrics}). *)
val metrics_text : t -> string

(** [sockaddr t] is the actual bound address (with the kernel-assigned
    port resolved). *)
val sockaddr : t -> Unix.sockaddr

(** [port t] is the bound TCP port ([None] for Unix-domain sockets). *)
val port : t -> int option

(** [stop t] shuts down: closes the listening socket and every open
    connection, drains the writer queue, and joins all domains.
    Idempotent. *)
val stop : t -> unit
