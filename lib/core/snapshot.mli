(** Immutable epoch snapshots — the one read path.

    A snapshot answers point queries ({!query_local}), key lookups
    ({!find}, {!view}) and cached-marginal reads ({!marginal}) without
    touching any mutable engine or session state.  {!freeze} is its one
    constructor: it copies everything mutable the read path needs out
    of a materialized epoch, as flat arrays — [TΠ] with its key index
    and dead-row mask ([Kb.Storage.copy]), the factor table [TΦ] with
    its mask ([Factor_graph.Fgraph.copy]) and the cached marginals,
    dense by fact id — and reads the fact↔factor index it is given
    ([Factor_graph.Lineage], immutable once built) through the [TΦ]
    copy ([Lineage.through]), sharing it.  The result shares
    {e nothing} mutable with the writer, so it can be handed to any
    number of reader domains while the next epoch commits behind it
    (the serving layer's MVCC-by-epoch read arm; see DESIGN.md §13).
    Storage's tombstone discipline keeps fact identifiers stable across
    deletions, which is what makes the copy cheap: ids, cached marginals
    and keys all carry over without remapping.

    The server, a session ([Engine.Session.snapshot], cached per epoch,
    its [query] and [query_local] ops included) and [probkb query
    --local] (a freeze of [Engine.expand]'s graph) all answer through
    it.

    Under [PROBKB_DEBUG] ({!Obs.debug}), a freeze hashes the copied
    factor table, and every {!query_local} re-hashes it and compares —
    a torn read (a writer mutating state a snapshot still references)
    trips the check immediately.  Without the flag no hash is taken, so
    a publish does not pay for it. *)

(** A fact as seen through a snapshot. *)
type view = {
  id : int;
  base : bool;  (** carries extraction (singleton) support *)
  weight : float;  (** extraction confidence; null for inferred facts *)
  marginal : float option;  (** cached estimate, if any *)
}

(** One answered point query. *)
type answer = {
  id : int;  (** the queried fact *)
  marginal : float;  (** P(fact) over the local neighbourhood *)
  epoch : int;  (** the epoch this answer was computed against *)
  interior : int;  (** facts fully expanded by the walk *)
  boundary : int;  (** facts clamped at the truncation frontier *)
  hops : int;  (** hops explored out from the query *)
  factors : int;  (** factor rows in the local subgraph (clamps incl.) *)
  pruned_mass : float;  (** influence discarded at the boundary *)
  truncated : bool;  (** a budget limit cut the walk short *)
  enumerated : bool;  (** every component solved exactly *)
  ground_seconds : float;
  infer_seconds : float;
}

type stats = {
  epoch : int;
  facts : int;  (** live fact keys at snapshot time *)
  factors : int;  (** live factor rows ([TΦ] size) *)
  marginals_cached : int;
  frozen : bool;  (** always [true]: every snapshot is a {!freeze} *)
}

type t

(** [freeze ?epoch ?marginals ?solver ?obs ~pi ~lineage ()] copies the
    read state out of [pi] and [lineage]'s graph ([Lineage.graph]) —
    array copies, no index build, no rehashing, no re-grounding and no
    compile.  [lineage] must index that graph as it stands: built after
    its last append or compaction ([Incremental.Dred.lineage] in a
    session, [Lineage.build graph] otherwise).
    Lookups run [Storage.find] and [Storage.row_of_id] on the copy of
    [pi], so tombstoned facts are excluded exactly as they are from the
    live store, and the fact count is Storage's live count: no per-row
    work however many rows are dead.
    [marginals] (copied into an array indexed by fact id, sized by
    [Storage.next_id pi]) clamps boundary facts in preference to
    extraction priors.  [solver] is the neighbourhood dispatcher's
    settings (default {!Inference.Hybrid.default_options}); [obs]
    receives the per-query spans; pass the server's trace, or
    leave it [Obs.null].
    @raise Invalid_argument if [marginals] holds a negative fact id. *)
val freeze :
  ?epoch:int ->
  ?marginals:(int, float) Hashtbl.t ->
  ?solver:Inference.Hybrid.options ->
  ?obs:Obs.t ->
  pi:Kb.Storage.t ->
  lineage:Factor_graph.Lineage.t ->
  unit ->
  t

val epoch : t -> int
val stats : t -> stats

(** [find t ~r ~x ~c1 ~y ~c2] is the queried fact's identifier, if the
    fact existed (live, not tombstoned) at snapshot time. *)
val find : t -> r:int -> x:int -> c1:int -> y:int -> c2:int -> int option

(** [view t id] is the fact as of the snapshot: [None] unless it is live
    with an extraction weight or a live factor mentions it. *)
val view : t -> int -> view option

(** [marginal t id] is the cached estimate carried by the snapshot. *)
val marginal : t -> int -> float option

(** [query_local ?budget t ~r ~x ~c1 ~y ~c2] answers a point query
    against the snapshot: local-grounding walk over [TΦ], boundary facts
    clamped to cached marginals (then extraction priors, then 0.5), then
    the per-component dispatch of [Inference.Neighborhood.solve] —
    enumeration or variable elimination where exact inference fits,
    chromatic Gibbs on the rest.  [None]
    when the fact is unknown at this epoch.  Emits a ["query_local"]
    span (with an ["epoch"] attribute) on the snapshot's trace. *)
val query_local :
  ?budget:Grounding.Local.budget ->
  t -> r:int -> x:int -> c1:int -> y:int -> c2:int -> answer option

(** [verify_integrity t] re-hashes the snapshot's copied factor table
    against the fingerprint taken at freeze time; [true] means no writer
    has torn through the snapshot's state.  The fingerprint is taken
    only under [PROBKB_DEBUG]; without it there is nothing to compare
    and the answer is [true].  Runs automatically per query. *)
val verify_integrity : t -> bool
