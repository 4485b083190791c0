(** The reference bytecode executor: a bounds-checked interpreter of
    {!Isa} code, the yardstick the middle-end and threaded-engine
    properties compare against. Helpers implement the same
    graceful-failure semantics as the interpreter (NULL handles read as
    0, PUSH/DROP of NULL are no-ops, division by zero yields 0). *)

type prog = {
  code : Isa.instr array;
  spill_slots : int;
  specialized_for : int option;
      (** compiled for a constant subflow count; the engine guards on it *)
  stack_extent : int;
      (** stack words an instance allocates ({!Isa.stack_extent}) *)
}
(** Immutable: share one program across instances and domains. *)

val make_prog :
  ?specialized_for:int -> spill_slots:int -> Isa.instr array -> prog
(** Wrap code into a program. Every access is bounds-checked, so the
    code need not be verified. *)

exception Fault of string
(** Invalid handle, bad queue code, stack violation or exhausted step
    budget. *)

val default_max_steps : int

val detached : Progmp_runtime.Env.t
(** The environment an idle instance points at between executions; no
    execution ever runs against it. *)

val instantiate : ?max_steps:int -> prog -> Progmp_runtime.Env.t -> unit
(** [instantiate prog] allocates an instance's scratch (register file,
    stack, packet table) and returns its decision function. Each call
    runs one execution against an environment prepared with
    [Env.begin_execution]; an instance is not reentrant.
    @raise Fault as above. *)

val run : ?max_steps:int -> prog -> Progmp_runtime.Env.t -> unit
(** One execution on a fresh instance ([instantiate prog env]). *)

val size : prog -> int
(** Instruction count (the paper's per-scheduler memory analogue). *)
