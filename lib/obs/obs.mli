(** Pipeline observability: structured tracing, counters, and metrics.

    A trace context ({!t}) collects monotonic-clock spans (with parent
    nesting), named counters, float timers, and gauges.  Recording is
    race-free under the domain pool: every domain writes to its own
    buffer (domain-local storage), and the buffers are merged only when a
    summary or a trace file is produced.  A disabled context (the
    default, {!null}) reduces every instrumentation point to a single
    branch, so the instrumented engine stays within noise of the
    uninstrumented one.

    Spans fanned out through [Pool] nest under the span that submitted
    them: a worker domain whose local span stack is empty parents new
    spans on the span the creator domain had open when it submitted the
    region, whatever spans the creator opens during its own share.
    Because pool submissions are synchronous barriers, the resulting
    merged tree is the same for any pool size.

    Exports: {!Summary} (aggregated tree + counters, with JSON in both
    directions), and {!write_chrome_trace} (Chrome [trace_event] format,
    loadable in [chrome://tracing] / Perfetto). *)

(** Minimal JSON values, printer and parser (no external dependency). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  exception Malformed of string

  val to_string : t -> string
  val to_pretty_string : t -> string
  val pp : Format.formatter -> t -> unit

  (** @raise Malformed on invalid input. *)
  val of_string : string -> t

  val of_string_opt : string -> t option
  val member : string -> t -> t option
  val to_int : t -> int option
  val to_float : t -> float option
  val to_string_value : t -> string option
  val to_list : t -> t list option
end

module Config : sig
  type t = {
    enabled : bool;
    retain_spans : int option;
        (** per-domain cap on retained closed spans ([None] = unbounded).
            Long-running processes (the serving layer) set a cap so span
            history does not grow without limit; counters, timers, gauges
            and histograms are cumulative and unaffected. *)
  }

  val default : t
  (** disabled *)

  val disabled : t
  val enabled : t
  val make : ?enabled:bool -> ?retain_spans:int -> unit -> t
end

(** [now ()] is CLOCK_MONOTONIC in seconds — the clock every span,
    timer and measured duration in the engine reads.  Only differences
    are meaningful: it is not a wall-clock timestamp. *)
val now : unit -> float

(** Attribute values attached to spans. *)
type value = I of int | F of float | S of string

(** {2 Histograms}

    Fixed log-bucketed histograms: 40 finite buckets whose upper bounds
    double from [1e-6] (microseconds to ~6.4 days when recording
    seconds), plus one overflow bucket.  All state is integral — the sum
    is kept in rounded micro-units — so merging per-domain histograms is
    commutative integer addition and the merged result is bit-identical
    for every pool size. *)

module Hist : sig
  type t

  val finite_buckets : int
  (** number of finite buckets (40) *)

  val n_buckets : int
  (** [finite_buckets + 1]: the last bucket is the overflow bucket *)

  (** [bound i] is the upper bound of finite bucket [i]
      ([1e-6 * 2. ** i]); bucket [0] holds observations [<= 1e-6], the
      overflow bucket everything above [bound (finite_buckets - 1)]. *)
  val bound : int -> float

  val create : unit -> t
  val copy : t -> t

  (** [observe h v] records one observation ([NaN] lands in the overflow
      bucket; non-finite values contribute 0 to the sum). *)
  val observe : t -> float -> unit

  (** [merge_into dst src] adds [src]'s counts and sum into [dst]. *)
  val merge_into : t -> t -> unit

  val count : t -> int

  val sum : t -> float
  (** sum of observations, from the micro-unit accumulator *)

  val sum_micro : t -> int
  val buckets : t -> int array

  (** [quantile h q] is the rank-interpolated [q]-quantile estimate over
      the bucket bounds: [nan] when empty; observations in the overflow
      bucket clamp to the last finite bound. *)
  val quantile : t -> float -> float

  (** [max_value h] is the upper bound of the highest occupied bucket
      ([nan] when empty). *)
  val max_value : t -> float

  val equal : t -> t -> bool
  val to_json : t -> Json.t

  (** @raise Failure on JSON that does not encode a histogram. *)
  val of_json : Json.t -> t
end

(** {2 Live-run snapshots}

    Periodic progress records emitted by long-running stages (grounding
    iterations, Gibbs checkpoints) through a pluggable sink.  The [data]
    payload is deterministic — identical for every pool size — while
    [at] and [perf] carry wall-clock and memory figures that are not. *)

module Snapshot : sig
  type t = {
    seq : int;  (** monotonic per trace *)
    stage : string;  (** e.g. ["ground"], ["mpp"], ["gibbs"] *)
    point : string;  (** e.g. ["iteration"], ["checkpoint"] *)
    step : int;  (** iteration / sweep number *)
    at : float;  (** seconds since the trace was created (volatile) *)
    data : (string * value) list;  (** deterministic fields *)
    perf : (string * value) list;  (** volatile fields: rates, memory *)
  }

  type sink = t -> unit

  val to_json : t -> Json.t

  (** [deterministic_json s] is [to_json s] without the volatile [at] and
      [perf] fields — the pool-size-invariant content. *)
  val deterministic_json : t -> Json.t

  (** @raise Failure / Json.Malformed on input that does not encode a
      snapshot. *)
  val of_json : Json.t -> t

  val of_json_string : string -> t

  (** [ndjson oc] is a sink writing one JSON document per line, flushed
      after every record. *)
  val ndjson : out_channel -> sink

  (** [ticker ppf] is a sink printing one human-readable line per
      snapshot (for [--progress] on stderr). *)
  val ticker : Format.formatter -> sink

  val tee : sink list -> sink
end

(** [debug] is [true] when the [PROBKB_DEBUG] environment variable is
    set to anything but the empty string or ["0"].  It turns on the
    internal consistency checks: the chromatic colouring verifier,
    [Storage]'s id-order check after each compaction and the frozen
    snapshot's per-query torn-read fingerprint.  Read once, when the
    program starts, so every domain sees the same value. *)
val debug : bool

(** [mem_stats ()] is the volatile memory figures (OCaml heap MB, major
    collections, RSS when /proc is readable) for a snapshot's [perf]
    section. *)
val mem_stats : unit -> (string * value) list

(** [peak_rss_bytes ()] is the process's peak resident set size in bytes
    (Linux [VmHWM] from [/proc/self/status]); [None] where /proc is
    unavailable.  Executors emit it as the [exec.peak_rss_bytes]
    gauge next to [exec.peak_intermediate_bytes]. *)
val peak_rss_bytes : unit -> int option

type t
(** A trace context. *)

type trace = t

val create : ?config:Config.t -> unit -> t

val null : t
(** the shared disabled context; recording into it is free *)

val enabled : t -> bool

(** {2 Ambient context}

    Operators too deep to thread a trace argument through (hash joins,
    distinct) read the process-wide ambient trace.  [null] unless a
    pipeline stage installed its trace. *)

val ambient : unit -> t
val set_ambient : t -> unit
val with_ambient : t -> (unit -> 'a) -> 'a

(** {2 Snapshot stream}

    Emission is gated on the sink alone, not on {!enabled}: a
    [--snapshots] run does not pay for span recording.  Snapshots must be
    emitted from single-threaded points (between pool barriers) — the
    grounding iteration boundary, the sampler checkpoint. *)

(** [set_snapshot_sink t sink] installs (or, with [None], removes) the
    snapshot sink.  Refused on {!null}, which is shared process-wide. *)
val set_snapshot_sink : t -> Snapshot.sink option -> unit

val snapshots_enabled : t -> bool

(** [snapshot t ~stage ~point ~step ?perf data] emits one record through
    the installed sink (no-op without one).  [data] must be deterministic
    across pool sizes; volatile figures belong in [perf]. *)
val snapshot :
  t ->
  stage:string ->
  point:string ->
  step:int ->
  ?perf:(string * value) list ->
  (string * value) list ->
  unit

(** {2 Spans} *)

type sp
(** An open span handle (a no-op token when the trace is disabled). *)

val begin_span : ?cat:string -> t -> string -> sp
val set_attr : sp -> string -> value -> unit
val end_span : ?attrs:(string * value) list -> t -> sp -> unit

(** [with_span t name f] wraps [f] in a span; the span is closed (with an
    ["error"] attribute) even if [f] raises.  Begin/end pairs must run on
    the same domain, innermost first — [with_span] guarantees both. *)
val with_span :
  ?cat:string ->
  ?attrs:(string * value) list ->
  t ->
  string ->
  (unit -> 'a) ->
  'a

(** {2 Recorded span subtrees}

    Materialized copies of closed spans for structured logging — the
    serving layer's slow-query log dumps the full [serve.request]
    subtree (grounding hops, boundary sizes, pruned mass) as JSON. *)

module Rec_span : sig
  type t = {
    name : string;
    cat : string;
    seconds : float;
    attrs : (string * value) list;
    children : t list;
  }

  val to_json : t -> Json.t
end

(** [subtree t sp] is the just-ended span [sp] with its same-domain
    descendants, oldest first.  Call it on the domain that ran the span,
    immediately after [end_span] (before {!Config.retain_spans}
    truncation can drop the descendants).  [None] on a disabled trace or
    when the span is no longer retained.  Spans fanned out to other pool
    domains are not expanded. *)
val subtree : t -> sp -> Rec_span.t option

(** {2 Counters, timers, gauges, histograms} *)

val add : t -> string -> int -> unit
val incr : t -> string -> unit
val add_time : t -> string -> float -> unit

(** [gauge t name v] sets a last-write-wins gauge. *)
val gauge : t -> string -> float -> unit

(** [gauge_max t name v] keeps the maximum over all writes. *)
val gauge_max : t -> string -> float -> unit

(** [observe t name v] records one observation into histogram [name] on
    the calling domain's buffer (race-free, like counters). *)
val observe : t -> string -> float -> unit

(** [timed t name f] accumulates [f]'s duration into timer [name]. *)
val timed : t -> string -> (unit -> 'a) -> 'a

(** [natural_compare a b] orders mixed text/number strings so that
    ["iteration 10"] sorts after ["iteration 2"]. *)
val natural_compare : string -> string -> int

(** {2 Aggregated summaries} *)

module Summary : sig
  (** One aggregation node: all spans sharing a root-to-here name path,
      children sorted by {!natural_compare}. *)
  type node = {
    name : string;
    count : int;
    seconds : float;
    children : node list;
  }

  type t = {
    total_seconds : float;  (** sum over root spans *)
    spans : node list;
    counters : (string * int) list;  (** sorted by name *)
    timers : (string * float) list;
    gauges : (string * float) list;
    hists : (string * Hist.t) list;  (** merged per-domain histograms *)
  }

  val empty : t

  (** [of_trace trace] merges the per-domain buffers (closed spans only)
      into a deterministic aggregated tree.  Call it between parallel
      regions, not during one. *)
  val of_trace : trace -> t

  val to_json : t -> Json.t

  (** @raise Failure on JSON that does not encode a summary. *)
  val of_json : Json.t -> t

  (** @raise Json.Malformed / Failure on malformed input. *)
  val of_json_string : string -> t

  (** [find t path] walks the span tree by name. *)
  val find : t -> string list -> node option

  (** [counter t name] is the counter's merged total (0 when absent). *)
  val counter : t -> string -> int

  (** [gauge t name] is the gauge's merged value, e.g. the serving
      layer's [serve.epoch_lag_max] ([None] when never set). *)
  val gauge : t -> string -> float option

  (** [hist t name] is the merged histogram ([None] when never
      observed). *)
  val hist : t -> string -> Hist.t option

  val pp : Format.formatter -> t -> unit
end

(** {2 Chrome trace_event export} *)

val write_chrome_trace : t -> out_channel -> unit
val chrome_trace_json : t -> Json.t
