(** Live maintenance of a grounded knowledge base: the DRed
    delete–rederive / incremental re-expansion engine, which walks
    [TΦ]'s fact↔factor index ([Factor_graph.Lineage]). *)

module Dred = Dred
