(** Tree-walking interpreter over the typed IR — execution alternative 1
    of the paper's runtime (§4.1) and the semantic reference for the
    compiled backends.

    Graceful-failure semantics: selections over empty sets yield NULL,
    properties of NULL read as 0/false, PUSH/DROP of NULL are no-ops,
    division and modulo by zero yield 0. Queue filters evaluate with
    late materialization (no view is ever built). Operands evaluate left
    to right, as in the bytecode.

    The walker is typed and allocates nothing per execution: an int,
    bool (0/1), subflow (snapshot position, -1 for NULL) or subflow set
    (bitmask over snapshot positions) is an [int]; a packet is a
    {!Packet.t}, {!Packet.dummy} for NULL. *)

exception Type_bug of string
(** Only raised on interpreter bugs; the type checker rules these out
    for checked programs. *)

type frame = { mutable env : Env.t; ints : int array; pkts : Packet.t array }
(** Variable storage of one instance: slot [i] lives in [ints.(i)] or,
    when packet-typed, in [pkts.(i)]. [env] is the environment of the
    execution in progress. *)

val frame : int -> frame
(** [frame n] is a fresh frame of [max 1 n] slots (a program's
    [num_slots]). *)

exception Returned
(** Control-flow marker for [RETURN]; escapes only from
    {!exec_stmt}/{!exec_block} when used directly (e.g. by the
    profiler), never from an instance. *)

val eval_int : frame -> Progmp_lang.Tast.expr -> int
(** Evaluate a non-packet expression. *)

val eval_packet : frame -> Progmp_lang.Tast.expr -> Packet.t
(** Evaluate a packet expression; NULL is {!Packet.dummy}. *)

val exec_stmt : frame -> Progmp_lang.Tast.stmt -> unit

val exec_block : frame -> Progmp_lang.Tast.block -> unit

val instantiate : Progmp_lang.Tast.program -> Env.t -> unit
(** [instantiate p] allocates one frame and returns the decision
    function running [p] on it: one execution per environment prepared
    with {!Env.begin_execution}, actions buffered in the environment.
    Not reentrant; each connection or domain takes its own instance. *)
