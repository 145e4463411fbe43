(** The relational model of an MLN: rule partition tables [M1 .. M6].

    [TH] — the relational representation of the deductive rules [H] — is a
    set of partitions, one per structural equivalence class; each partition
    stores the identifier tuples of its clauses together with their weights
    (paper, Definition 6 and Figure 3(b)(c)). *)

type t

(** [of_rules rules] partitions the clauses into the six [Mi] tables.
    Clauses that are not valid Horn shapes are rejected.
    @raise Invalid_argument on a structurally invalid clause. *)
val of_rules : Clause.t list -> t

(** [table p pat] is the relational table [Mi] of pattern [pat]. *)
val table : t -> Pattern.t -> Relational.Table.t

(** [rule_count p] is the total number of stored rules. *)
val rule_count : t -> int

(** [count p pat] is the number of rules in one partition. *)
val count : t -> Pattern.t -> int

(** [to_rules p] reconstructs the clause list (partition order). *)
val to_rules : t -> Clause.t list
