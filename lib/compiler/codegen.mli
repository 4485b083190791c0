(** Code generation: typed IR -> virtual three-address code.

    Declarative operations are lowered to explicit loops with the filter
    predicates inlined into their consumers (the paper's primitive
    fusion): subflow lists become bitmasks over the snapshot, queue
    views become scan loops over the base queue. Conditions compile to
    jumping code (branches, no 0/1 value). Program variables occupy
    virtual registers [0 .. num_slots-1], read in place and never
    zero-initialized; booleans stored or compared as values are 0/1 and
    NULL is handle 0. *)

val generate : ?subflow_count:int -> Progmp_lang.Tast.program -> Vcode.t
(** Translate a typed program. With [subflow_count] the code is
    specialized for that constant number of subflows; the caller must
    guard execution on the actual count. *)
