(** Tuffy-T — the baseline grounding engine (paper, Section 6.1).

    Tuffy (Niu et al., VLDB 2011) grounds MLNs in an RDBMS but stores each
    relation in its own table and applies each rule with its own SQL
    query: for the 30,912 Sherlock rules it issues 30,912 queries per
    iteration where ProbKB issues 6.  The paper re-implements Tuffy with
    typing support ("Tuffy-T") for a fair comparison; this module is that
    re-implementation on the same relational substrate as ProbKB, so the
    measured difference isolates the storage layout and per-rule query
    dispatch, not the engine.

    The observable behaviour (the set of inferred facts and the ground
    factors) is identical to [Grounding.Ground] — asserted by the
    differential tests. *)

type t
(** A Tuffy database: one table per relation plus shared bookkeeping. *)

type result = {
  db : t;  (** the per-relation database after grounding *)
  iterations : int;
  converged : bool;
  new_fact_count : int;
  fact_count : int;  (** total facts across all per-relation tables *)
  graph : Factor_graph.Fgraph.t;
  n_singleton_factors : int;
  n_clause_factors : int;
  load_seconds : float;
  statements : int;
      (** closure statements issued: one rule query per rule per
          iteration (the paper's Table 3 count) *)
}

(** [load kb] bulk-loads the facts of [kb] into per-relation tables.  This
    is the expensive load path of Table 3 (one table per relation —
    ReVerb has 83K of them — versus ProbKB's single [TΠ]). *)
val load : Kb.Gamma.t -> t

(** [n_tables db] is the number of per-relation tables created. *)
val n_tables : t -> int

(** [load_seconds_of db] is the measured bulk-load time. *)
val load_seconds_of : t -> float

(** [fact_count db] is the total number of stored facts. *)
val fact_count : t -> int

(** [fact_keys db] is the set of fact keys [(r, x, c1, y, c2)], for
    differential testing against ProbKB. *)
val fact_keys : t -> (int * int * int * int * int) list

(** [run ?max_iterations ?build_factors ?on_iteration kb] loads [kb] and
    grounds it by applying each rule with its own query per iteration
    until closure. *)
val run :
  ?max_iterations:int ->
  ?build_factors:bool ->
  ?on_iteration:(iteration:int -> new_facts:int -> unit) ->
  Kb.Gamma.t ->
  result
