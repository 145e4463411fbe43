(** Printing clauses back to the textual rule format of {!Parse}. *)

(** [clause ~rel_name ~cls_name c] renders [c] on one line, with each
    variable's class annotated at its first occurrence.  [rel_name] and
    [cls_name] map identifiers back to names (typically
    [Relational.Dict.name]). *)
val clause :
  rel_name:(int -> string) -> cls_name:(int -> string) -> Clause.t -> string
