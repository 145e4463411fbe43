(** The fact↔factor index of [TΦ], and lineage queries over it.

    Because each clause factor records the facts that derived its head, the
    factor graph contains the entire derivation lineage of every inferred
    fact (paper, Section 4.2.3: "it contains the entire lineage and can be
    queried").  This module is the one index of that relation: for each
    fact id,

    - the clause factors deriving it ({!iter_derivations} — factors with
      the fact as head),
    - the clause factors it supports ({!iter_supports} — factors with the
      fact in the body, each once), and
    - its singleton (prior) factor ({!singleton_of}), whose presence is
      the authoritative base-vs-inferred marker ({!is_base}): the weight
      column of [TΠ] is not, once [Engine.store_marginals] has written
      probabilities into it.

    DRed walks it to overdelete, rederive and retire, the local walk
    ([Grounding.Local]) to find a query's neighbourhood, and the
    error-propagation analysis of Section 5 to find every fact
    transitively supported by an ambiguous entity.

    {!build} is one counting sort over the live factors into a CSR by
    fact id, immutable once built: each fact's factors are listed in
    descending position, and a fact with several priors reports the
    last.  Every read takes rows from the graph it reads through and
    skips the positions that graph has killed ([Fgraph.kill]), so one
    index serves that graph, however many of its factors are retired
    later, and any {!Fgraph.copy} of it ({!through}), until the next
    append to it or compaction of it: neither is seen, and after a
    compaction positions name other rows, so build again. *)

type t

(** [build g] indexes the live factors of [g], read through [g].  The
    arrays are sized by the largest fact id of a live factor.
    @raise Invalid_argument if a factor holds a negative fact id (other
    than {!Fgraph.null} in a body slot). *)
val build : Fgraph.t -> t

(** [graph l] is the graph [l] reads rows and liveness through. *)
val graph : t -> Fgraph.t

(** [through l g] is [l] read through [g] — typically an {!Fgraph.copy}
    of [l]'s graph, which shares its positions.  The CSR is shared, not
    copied.
    @raise Invalid_argument unless [Fgraph.bound g] is the bound of the
    graph [l] was built over. *)
val through : t -> Fgraph.t -> t

(** [iter_derivations l id f] applies [f] to the position of every live
    clause factor with head [id], most recent first; allocation-free for
    hot walk loops. *)
val iter_derivations : t -> int -> (int -> unit) -> unit

(** [iter_supports l id f] applies [f] to the position of every live
    clause factor with [id] in the body, once each, most recent first. *)
val iter_supports : t -> int -> (int -> unit) -> unit

(** [has_supports l id] is [true] iff [id] appears in the body of some
    live clause factor. *)
val has_supports : t -> int -> bool

(** [singleton_of l id] is the position of [id]'s prior factor, if it is
    live. *)
val singleton_of : t -> int -> int option

(** [is_base l id] is [true] iff the fact has a live prior factor: it
    carries extraction support. *)
val is_base : t -> int -> bool

(** [derivations l id] is the list of clause factors (as
    [(i2, i3, w)] with [i3 = Fgraph.null] for one-atom bodies) whose head
    is fact [id]. *)
val derivations : t -> int -> (int * int * float) list

(** [ancestors l id] is the set of facts reachable from [id] through
    derivation bodies (transitively), excluding [id] itself. *)
val ancestors : t -> int -> int list

(** [descendants l id] is the set of facts transitively derived (in part)
    from fact [id], excluding [id] itself — the propagation cone of an
    error (paper, Figure 5(a)). *)
val descendants : t -> int -> int list

(** [depth l id] is the minimum derivation depth of [id]: 0 for facts with
    a singleton factor (extracted facts), otherwise 1 + min over
    derivations of the max body depth.  [None] if [id] has no derivation
    and no singleton (unknown fact). *)
val depth : t -> int -> int option
