(** Error-source analysis of constraint violations (paper, Section 6.2.2
    and Figure 7(b)).

    The paper samples violating entities and attributes each violation to
    one of six sources.  In this reproduction the workload generator
    injects errors with known labels, so the attribution is exact instead
    of sampled. *)

(** The error taxonomy of Figure 7(b). *)
type source =
  | Ambiguous_entity  (** one name, several objects (E3, detected) *)
  | Ambiguous_join_key  (** a fact inferred through an ambiguous join key *)
  | Incorrect_rule  (** a fact produced by an unsound rule (E2) *)
  | Incorrect_extraction  (** an extraction error (E1) *)
  | General_type  (** over-general classes, e.g. both New York and U.S. as Place *)
  | Synonym  (** two names for one object *)

val all_sources : source list

type report = {
  total : int;  (** number of violations categorized *)
  counts : (source * int) list;  (** per source, in {!all_sources} order *)
}

(** [categorize ~classify items] attributes every item (typically a
    violation paired with its captured fact group) using the
    caller-provided oracle (typically backed by the workload generator's
    ground truth). *)
val categorize : classify:('a -> source) -> 'a list -> report

(** [fraction report source] is the share of the given source in [0, 1]
    (0 when the report is empty). *)
val fraction : report -> source -> float

val pp : Format.formatter -> report -> unit
