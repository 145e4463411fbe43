(** The NDJSON op codec — defined once, shared by the [session]
    subcommand (stdin/stdout) and the [serve] subcommand (socket).

    Wire format: one JSON document per line in, one JSON document per
    line out (see DESIGN.md §13 for the full schema).  Ops:

    {v
    {"op":"ingest","facts":[["r","x","C1","y","C2",0.93], ...]}
    {"op":"retract","keys":[["r","x","C1","y","C2"], ...],"ban":true}
    {"op":"retract_rules","head":"r"}
    {"op":"add_rules","rules":["1.40 live_in(x:W, y:P) :- born_in(x, y)"]}
    {"op":"reexpand"}
    {"op":"refresh"}
    {"op":"query","key":["r","x","C1","y","C2"]}
    {"op":"query_local","key":[...],"budget":64,"max_hops":3,
     "decay":0.8,"min_influence":0.01}
    {"op":"stats"}
    {"op":"metrics"}
    v}

    Epoch ops answer with the epoch ledger entry
    ([Report.epoch_to_json]); [query] answers with the fact view;
    [query_local] with the point-query answer (carrying the [epoch] it
    was computed against); [stats] with the snapshot statistics.
    Malformed input answers [{"error": ...}] and the stream continues.

    The codec stages are split so the server can run them on different
    arms: {!op_of_line} (pure parse), {!resolve} (symbol resolution
    against the shared dictionaries — write ops intern, read ops only
    look up, so resolution for reads never mutates), then either
    {!apply} (full session semantics, single-threaded writer arm) or
    {!answer} (read ops against an immutable snapshot, any domain). *)

(** A fact key as strings, pre-resolution: relation, x, class of x, y,
    class of y. *)
type key = string * string * string * string * string

type op =
  | Ingest of (key * float) list
  | Retract of { keys : key list; ban : bool }
  | Retract_rules of { head : string }
  | Add_rules of string list  (** textual MLN rules, [Mln.Parse] syntax *)
  | Reexpand
  | Refresh
  | Query of key
  | Query_local of { key : key; budget : Grounding.Local.budget option }
  | Stats
  | Metrics
      (** in-band telemetry scrape: answers
          [{"metrics": Obs.Summary JSON}] of the serving trace *)

(** Write ops mutate the session (and must be serialized through the
    writer arm); read ops can be answered from a snapshot. *)
val is_write : op -> bool

(** [op_of_line line] parses one request line.  [Error] carries the
    reply-ready message (["malformed JSON"], ["missing op"],
    ["unknown op %S"], ...). *)
val op_of_line : string -> (op, string) result

(** [op_to_json op] is the wire document for [op] — the encoder used by
    the client mode and the load generator; round-trips through
    {!op_of_line}. *)
val op_to_json : op -> Obs.Json.t

(** A resolved op: symbols replaced by dictionary ids.  Read-op keys
    resolve to [None] when any symbol is unknown (the fact cannot
    exist). *)
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
      budget : Grounding.Local.budget option;
    }
  | RStats
  | RMetrics

(** [resolve kb op] resolves symbols against [kb]'s dictionaries.
    Write ops intern new symbols (call only under the server's symbol
    lock, or single-threaded); read ops are pure lookups.  [Error] on
    unparsable rule text. *)
val resolve : Kb.Gamma.t -> op -> (resolved, string) result

(** [apply ?obs s rop] executes any resolved op against the live
    session — the single-threaded interpreter behind the [session]
    subcommand and the server's writer arm.  The read ops but
    [metrics] ([query], [query_local], [stats]) are {!answer}ed from
    [Session.snapshot s], the epoch's cached snapshot.  Returns the reply document.  [obs] (default {!Obs.null})
    is the trace the [metrics] op summarizes. *)
val apply :
  ?obs:Obs.t -> Probkb.Engine.Session.t -> resolved -> Obs.Json.t

(** [answer ?obs snap rop] answers a {e read} op from an immutable
    snapshot (safe from any domain); write ops answer
    [{"error": ...}]. *)
val answer : ?obs:Obs.t -> Probkb.Snapshot.t -> resolved -> Obs.Json.t

(** [error_json msg] is [{"error": msg}]. *)
val error_json : string -> Obs.Json.t

(** Raised by {!input_line_bounded} on a line longer than its cap. *)
exception Line_too_long

(** [input_line_bounded ~max ic] is [input_line ic] for untrusted peers:
    it reads at most [max] bytes of a line, then raises {!Line_too_long}
    instead of buffering the rest, so one request without a newline
    cannot grow a buffer until memory runs out.
    @raise End_of_file at the end of input, as [input_line] does. *)
val input_line_bounded : max:int -> in_channel -> string

(** [step ?obs kb s line] is parse → resolve → {!apply}: one full
    session-mode step, errors rendered as reply documents. *)
val step :
  ?obs:Obs.t -> Kb.Gamma.t -> Probkb.Engine.Session.t -> string -> Obs.Json.t
