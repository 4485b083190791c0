(** Ahead-of-time compilation backend — execution alternative 2.

    The paper's AOT backend generates and compiles C; the OCaml analogue
    is closure compilation: the typed IR is translated once into a tree
    of closures, removing all per-execution dispatch on IR constructors.
    Semantics are identical to {!Interpreter} (differentially tested). *)

type compiled
(** A program's closure tree: immutable, shareable across domains. *)

val compile : Progmp_lang.Tast.program -> compiled
(** [compile p] translates once. *)

val instantiate : compiled -> Env.t -> unit
(** [instantiate c] allocates one variable frame ({!Interpreter.frame})
    and returns the decision function running [c] on it; executions
    allocate nothing beyond the actions they emit. Not reentrant. *)
