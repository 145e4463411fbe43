(** Serializing [TΦ].

    Figure 1 of the paper hands the grounding result to external inference
    engines ("e.g., GraphLab"); this module is that interface: a plain
    one-factor-per-line text format

    {v
    # singleton: S <fact-id> <weight>
    S 17 0.96
    # clause:    C <head> <body1> [<body2>] <weight>
    C 23 17 - 1.40
    C 31 23 17 0.52
    v}

    plus a reader, so factor graphs can be produced by one process and
    consumed by another (or checkpointed between grounding and
    inference). *)

exception Parse_error of string

(** [to_file g path] writes the graph to [path], one factor per line. *)
val to_file : Fgraph.t -> string -> unit

(** [of_file path] parses a graph written by {!to_file}.
    @raise Parse_error on malformed input. *)
val of_file : string -> Fgraph.t
